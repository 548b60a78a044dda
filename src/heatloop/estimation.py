"""Sliding-window slope estimation for the ultra-local control model.

The ultra-local model y' = F + alpha*u lumps everything the controller
does not know about the plant into F.  F is re-estimated at every
sample from measured data:

    F_estim = dy_hat - alpha * u_prev

where dy_hat is the slope of a least-squares line fitted to the most
recent samples and u_prev is the input actually applied over the most
recent completed sample interval (never the input about to be chosen,
which keeps the estimate causal).

The samples sit on the engine's uniform tick grid, so the least-squares
slope over the last W of them is a fixed FIR filter, the
first-derivative Savitzky-Golay filter.  Only the measured values are
kept; the fit never sees a time value.  The engine's tick loop takes the
same mirror-pair sum straight from its measured column, and the tests
hold it to :class:`SlopeEstimator` bit for bit.
"""

from __future__ import annotations

from collections import deque


def slope_scale(window_len: int, dt: float) -> float:
    """The factor that turns the mirror-pair sum of a full window,
    sum_i (W-1-2i) * (y[W-1-i] - y[i]), into its least-squares slope."""
    # least-squares weights are (j - (W-1)/2) / (dt * W*(W^2-1)/12);
    # a mirror pair's offset is (W-1-2i)/2, whose 1/2 is folded in here
    return 6.0 / (dt * (window_len * (window_len * window_len - 1)))


class SlopeEstimator:
    """Least-squares slope of the last ``window_len`` values pushed, one
    ``dt`` apart (``window_len`` 2 is a backward difference)."""

    def __init__(self, window_len: int, dt: float):
        # the deque allocates as it fills, and the scale is closed-form,
        # so a huge window costs nothing until samples arrive
        self._ring = deque(maxlen=window_len)
        self._scale = slope_scale(window_len, dt)

    def push(self, y: float) -> None:
        self._ring.append(y)

    @property
    def slope(self) -> float | None:
        """None until the window is full (warm-up).

        Mirror samples are subtracted before weighting, so a constant
        window gives exactly 0.
        """
        ring = self._ring
        w = len(ring)
        if w < ring.maxlen:
            return None
        acc = 0.0
        for i in range(w // 2):
            acc += (w - 1 - 2 * i) * (ring[-1 - i] - ring[i])
        return self._scale * acc


def estimate_F(dy_hat: float, u_prev: float, alpha: float) -> float:
    """F_estim = dy_hat - alpha * u_prev (linear in both arguments)."""
    return dy_hat - alpha * u_prev
