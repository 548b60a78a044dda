"""Tiny hand-rolled SVG line plots for run logs.

No plotting dependency: the CLI only needs a quick two-panel view
(temperatures on top, heat below), so the file is emitted directly.
Coordinates are computed a whole column at a time, with the same
arithmetic and text as a per-point f"{x:.1f},{y:.1f}" loop.

Each coordinate's "%.1f" text is looked up, not formatted.  With
k = rint(10 v), a value that is non-negative and below 1000, and whose
10 v is not within 1e-6 of a half, is written as two table cells,
k // 10 and k % 10, and one join over the cells gives the points string.
That is exactly "%.1f": below 1000, 10 v is computed within 2**-40 of
its true value, and no double is a tie at one decimal ((2m+1)/20 is not
dyadic), so rint picks the digit that correct rounding picks.  Every
other value (negatives, -0.0, 1000 or more, nan, +-inf, near-halves)
falls back to "%.1f" % v, so every byte is the same as formatting each
value.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import Trace

_WIDTH = 900
_PANEL_H = 220
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_GAP = 50

_WHOLE = np.array([str(i) for i in range(1000)], dtype=object)
_TENTHS = np.array([".%d" % i for i in range(10)], dtype=object)


def _escape(text: str) -> str:
    """The title as SVG text: html.escape(text, quote=False), without
    html's import cost."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """Stretch a degenerate axis range by 1 either way, or by one ulp
    where the values are too large for 1 to register."""
    return min(lo - 1.0, math.nextafter(lo, -math.inf)), max(hi + 1.0, math.nextafter(hi, math.inf))


def _bounds(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo, hi = _widen(lo, hi)
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _on_table(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k = rint(10 v), and where the tables give v's "%.1f" text from k."""
    with np.errstate(all="ignore"):    # 10 v overflows to inf quietly
        ten = 10.0 * v
        k = np.rint(ten)
        return k, ~np.signbit(v) & (k < 10000.0) & (np.abs(ten - k) < 0.5 - 1e-6)


def _one_decimal(v: np.ndarray, out: np.ndarray) -> None:
    """Write "%.1f" % v into out's first two columns, as two cells a value."""
    k, fast = _on_table(v)
    whole, tenth = np.divmod(np.where(fast, k, 0.0).astype(np.intp), 10)
    out[:, 0] = _WHOLE[whole]
    out[:, 1] = _TENTHS[tenth]
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow, 0] = ["%.1f" % x for x in v[slow].tolist()]
        out[slow, 1] = ""


class _Panel:
    def __init__(self, top: float, t0: float, t1: float, lo: float, hi: float):
        self.top = top
        self.t0, self.t1 = t0, t1
        self.lo, self.hi = lo, hi

    # x and y take a float or a float64 array: elementwise numpy
    # arithmetic rounds exactly as Python's float arithmetic does
    def x(self, t):
        return _MARGIN_L + (t - self.t0) / (self.t1 - self.t0) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def y(self, v):
        return self.top + (self.hi - v) / (self.hi - self.lo) * _PANEL_H

    def polyline(self, ts: np.ndarray, vs: np.ndarray, color: str, dash: str = "") -> str:
        with np.errstate(all="ignore"):    # float arithmetic overflows to inf/nan quietly
            xy = np.column_stack((self.x(ts), self.y(vs))).ravel()
        cells = np.empty((len(xy), 3), dtype=object)    # x "," y " " a point
        _one_decimal(xy, cells)
        cells[0::2, 2] = ","
        cells[1::2, 2] = " "
        pts = "".join(cells.ravel().tolist())[:-1]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.2"{dash_attr} points="{pts}"/>'

    def frame(self, label: str) -> list[str]:
        out = [
            f'<rect x="{_MARGIN_L}" y="{self.top}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
            f'height="{_PANEL_H}" fill="none" stroke="#888"/>',
            f'<text x="{_MARGIN_L - 8}" y="{self.y(self.hi) + 12}" text-anchor="end" font-size="11">{self.hi:.3g}</text>',
            f'<text x="{_MARGIN_L - 8}" y="{self.y(self.lo)}" text-anchor="end" font-size="11">{self.lo:.3g}</text>',
            f'<text x="{_MARGIN_L - 50}" y="{self.top + _PANEL_H / 2}" font-size="12" '
            f'transform="rotate(-90 {_MARGIN_L - 50} {self.top + _PANEL_H / 2})" text-anchor="middle">{label}</text>',
        ]
        return out


def render_svg(trace: Trace, title: str = "") -> str:
    """Two stacked panels: reference and indoor temperature, then applied heat."""
    if not len(trace.t):
        raise ValueError("nothing to plot")
    hours = trace.t / 3600.0
    t_int, y_star, t_ext, q = trace.t_int_true, trace.y_star, trace.t_ext, trace.q_applied
    h0, h1 = float(hours[0]), float(hours[-1])
    t0, t1 = _widen(h0, h1) if h1 == h0 else (h0, h1)    # t / 3600 underflowed to one value

    height = _MARGIN_T + 2 * _PANEL_H + _GAP + 40
    lo1, hi1 = _bounds(np.concatenate((t_int, y_star, t_ext)))
    lo2, hi2 = _bounds(q)
    top_panel = _Panel(_MARGIN_T, t0, t1, lo1, hi1)
    bot_panel = _Panel(_MARGIN_T + _PANEL_H + _GAP, t0, t1, lo2, hi2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}" font-family="sans-serif">',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>',
    ]
    parts += top_panel.frame("temperature (C)")
    parts.append(top_panel.polyline(hours, t_ext, "#bbbbbb"))
    parts.append(top_panel.polyline(hours, y_star, "#d62728", "5,4"))
    parts.append(top_panel.polyline(hours, t_int, "#1f77b4"))
    parts.append(
        f'<text x="{_WIDTH - _MARGIN_R}" y="{_MARGIN_T - 6}" text-anchor="end" font-size="11">'
        f'<tspan fill="#1f77b4">indoor</tspan>  <tspan fill="#d62728">reference</tspan>  '
        f'<tspan fill="#bbbbbb">outdoor</tspan></text>'
    )
    parts += bot_panel.frame("heat (W)")
    parts.append(bot_panel.polyline(hours, q, "#2ca02c"))
    x_axis_y = bot_panel.top + _PANEL_H + 18
    parts.append(f'<text x="{_MARGIN_L}" y="{x_axis_y}" font-size="11">{h0:.3g} h</text>')
    parts.append(f'<text x="{_WIDTH - _MARGIN_R}" y="{x_axis_y}" text-anchor="end" font-size="11">{h1:.3g} h</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, trace: Trace, title: str = "") -> None:
    # render before opening, so a plot that cannot be drawn leaves no file
    text = render_svg(trace, title)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
