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
mirror-pair sum straight from its measured column, scaled by
:func:`slope_scale`, and subtracts alpha * u_prev itself; the tests hold
it bit for bit to a least-squares estimator over a ring of samples and
to F_estim as a plain function.
"""

from __future__ import annotations


def slope_scale(window_len: int, dt: float) -> float:
    """The factor that turns the mirror-pair sum of a full window,
    sum_i (W-1-2i) * (y[W-1-i] - y[i]), into its least-squares slope."""
    # least-squares weights are (j - (W-1)/2) / (dt * W*(W^2-1)/12);
    # a mirror pair's offset is (W-1-2i)/2, whose 1/2 is folded in here
    return 6.0 / (dt * (window_len * (window_len * window_len - 1)))
