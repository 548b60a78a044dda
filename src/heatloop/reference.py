"""Setpoint schedules and reference trajectory generators.

A schedule is an ordered list of (start_time, setpoint) segments; the
last segment extends indefinitely.  Three generators turn it into a
reference (y_star, y_star_dot):

* ``step_reference``   -- hold the active setpoint, derivative zero;
* ``smooth_reference`` -- quintic blend over a window of length D
  starting at each segment boundary (C2: value, slope and curvature all
  match at both ends);
* ``ramp_reference``   -- linear blend over the same window.

The transition starts at the boundary, so y_star leaves the old
setpoint at the boundary instant and reaches the new one D seconds
later.

:func:`fill_reference` writes a whole run's reference at once: one
slice fill per hold, and the blend evaluated on the ticks of each
transition window only.  The blends are written once and evaluate
floats and arrays alike, so the columns equal the scalar generators
bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """Ordered (start_time, setpoint) segments plus the blend window D."""

    segments: tuple[tuple[float, float], ...]
    transition_duration: float = 3600.0

    def __post_init__(self) -> None:
        if len(self.segments) < 1:
            raise ValueError("Schedule needs at least one segment")
        object.__setattr__(self, "segments", tuple((float(t), float(sp)) for t, sp in self.segments))
        starts = [t for t, _ in self.segments]
        for a, b in zip(starts, starts[1:]):
            if not b > a:
                raise ValueError(f"segment starts must be strictly increasing, got {a!r} then {b!r}")
        for t, sp in self.segments:
            if not (math.isfinite(t) and math.isfinite(sp)):
                raise ValueError(f"segment ({t!r}, {sp!r}) is not finite")
        d = self.transition_duration
        if not (math.isfinite(d) and d > 0.0):
            raise ValueError(f"transition_duration must be positive, got {d!r}")
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        if gaps and d >= min(gaps):
            raise ValueError(
                f"transition_duration {d!r} must be smaller than the smallest segment gap {min(gaps)!r}"
            )

    @property
    def start(self) -> float:
        return self.segments[0][0]


def _segment_context(sched: Schedule, t: float) -> tuple[float, float, float]:
    """(previous setpoint, active setpoint, time since active segment start)."""
    if t < sched.start:
        raise ValueError(f"t={t!r} precedes the first segment start {sched.start!r}")
    starts = [s for s, _ in sched.segments]
    i = bisect_right(starts, t) - 1
    prev_sp = sched.segments[i - 1][1] if i > 0 else sched.segments[i][1]
    return prev_sp, sched.segments[i][1], t - starts[i]


def _quintic_blend(prev, cur, tau, d):
    sigma = tau / d
    s = sigma * sigma * sigma * (10.0 + sigma * (-15.0 + 6.0 * sigma))
    ds = 30.0 * sigma * sigma * (1.0 - sigma) * (1.0 - sigma) / d
    return prev + (cur - prev) * s, (cur - prev) * ds


def _linear_blend(prev, cur, tau, d):
    return prev + (cur - prev) * (tau / d), (cur - prev) / d


def _blended(blend, sched: Schedule, t: float) -> tuple[float, float]:
    prev, cur, tau = _segment_context(sched, t)
    d = sched.transition_duration
    if prev == cur or tau >= d:
        return cur, 0.0
    return blend(prev, cur, tau, d)


def step_reference(sched: Schedule, t: float) -> tuple[float, float]:
    """Piecewise-constant reference: the active setpoint, slope 0."""
    _, cur, _ = _segment_context(sched, t)
    return cur, 0.0


def smooth_reference(sched: Schedule, t: float) -> tuple[float, float]:
    """Quintic blend a -> b over [start, start + D).

    With sigma = tau/D the blend is s = 6 sigma^5 - 15 sigma^4 + 10 sigma^3,
    whose first and second derivatives vanish at both ends.
    """
    return _blended(_quintic_blend, sched, t)


def ramp_reference(sched: Schedule, t: float) -> tuple[float, float]:
    """Linear blend a -> b over [start, start + D); slope (b-a)/D inside."""
    return _blended(_linear_blend, sched, t)


REFERENCE_GENERATORS = {
    "step": step_reference,
    "smooth": smooth_reference,
    "ramp": ramp_reference,
}


_BLENDS = {"step": None, "smooth": _quintic_blend, "ramp": _linear_blend}


def fill_reference(sched: Schedule, mode: str, t: np.ndarray, y_star: np.ndarray, y_star_dot: np.ndarray) -> None:
    """Write the ``mode`` reference at the nondecreasing times ``t`` into
    ``y_star`` and ``y_star_dot``, equal to ``REFERENCE_GENERATORS[mode]``
    at every entry."""
    if len(t) and t[0] < sched.start:
        raise ValueError(f"t={float(t[0])!r} precedes the first segment start {sched.start!r}")
    blend = _BLENDS[mode]
    d = sched.transition_duration
    first_ticks = np.searchsorted(t, [s for s, _ in sched.segments]).tolist()
    prev = sched.segments[0][1]
    for (start, cur), lo, hi in zip(sched.segments, first_ticks, first_ticks[1:] + [len(t)]):
        y_star[lo:hi] = cur
        y_star_dot[lo:hi] = 0.0
        if blend is not None and prev != cur and lo < hi:
            # tau = t - start ascends with t, so the window is a prefix of it
            tau = t[lo:hi] - start
            end = lo + int(np.searchsorted(tau, d))
            y_star[lo:end], y_star_dot[lo:end] = blend(prev, cur, tau[:end - lo], d)
        prev = cur
