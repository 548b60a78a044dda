"""Sliding-window slope estimation for the ultra-local control model.

The ultra-local model y' = F + alpha*u lumps everything the controller
does not know about the plant into F.  F is re-estimated at every
sample from measured data:

    F_estim = dy_hat - alpha * u_prev

where dy_hat is the slope of a least-squares line fitted to the most
recent samples and u_prev is the input actually applied over the most
recent completed sample interval (never the input about to be chosen,
which keeps the estimate causal).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class UltraLocalConfig:
    """window_len is the number of samples in the slope fit (2
    degenerates to a backward difference); sample_time is the spacing of
    the sample grid.  The input gain alpha belongs to the controller
    (:class:`heatloop.controllers.IpController`)."""

    window_len: int = 5
    sample_time: float = 60.0

    def __post_init__(self) -> None:
        if self.window_len < 2:
            raise ValueError(f"window_len must be at least 2, got {self.window_len!r}")
        if not (math.isfinite(self.sample_time) and self.sample_time > 0.0):
            raise ValueError(f"sample_time must be positive, got {self.sample_time!r}")


@dataclass
class EstimatorState:
    """Ring buffer of (t, y) samples plus the last applied input."""

    config: UltraLocalConfig
    u_prev: float = 0.0
    _buffer: deque = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._buffer = deque(maxlen=self.config.window_len)

    def push(self, t: float, y: float) -> None:
        """Append a sample; times must advance on the sample grid."""
        if self._buffer:
            gap = t - self._buffer[-1][0]
            if abs(gap - self.config.sample_time) > 1e-6 * self.config.sample_time:
                raise ValueError(
                    f"sample at t={t!r} is not one sample_time after t={self._buffer[-1][0]!r}"
                )
        self._buffer.append((t, y))

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def is_full(self) -> bool:
        return len(self._buffer) == self.config.window_len

    def samples(self) -> list[tuple[float, float]]:
        return list(self._buffer)


def estimate_derivative(est: EstimatorState) -> float | None:
    """Slope of the least-squares line through the buffered samples.

    Returns None while the buffer holds fewer than two samples (warm-up);
    the caller must fall back to a defined default (see the engine, which
    uses F_estim = 0 until the buffer is full).
    """
    pts = est.samples()
    n = len(pts)
    if n < 2:
        return None
    t_mean = sum(t for t, _ in pts) / n
    y_mean = sum(y for _, y in pts) / n
    num = sum((t - t_mean) * (y - y_mean) for t, y in pts)
    den = sum((t - t_mean) ** 2 for t, _ in pts)
    return num / den


def estimate_F(dy_hat: float, u_prev: float, alpha: float) -> float:
    """F_estim = dy_hat - alpha * u_prev (linear in both arguments)."""
    return dy_hat - alpha * u_prev
