"""Tiny hand-rolled SVG line plots for run logs.

No plotting dependency: the CLI only needs a quick two-panel view
(temperatures on top, heat below), so the file is emitted directly.
"""

from __future__ import annotations

from .engine import Trace

_WIDTH = 900
_PANEL_H = 220
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_GAP = 50


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Panel:
    def __init__(self, top: float, t0: float, t1: float, lo: float, hi: float):
        self.top = top
        self.t0, self.t1 = t0, t1
        self.lo, self.hi = lo, hi

    def x(self, t: float) -> float:
        return _MARGIN_L + (t - self.t0) / (self.t1 - self.t0) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def y(self, v: float) -> float:
        return self.top + (self.hi - v) / (self.hi - self.lo) * _PANEL_H

    def polyline(self, ts: list[float], vs: list[float], color: str, dash: str = "") -> str:
        pts = " ".join(f"{self.x(t):.1f},{self.y(v):.1f}" for t, v in zip(ts, vs))
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
    hours = (trace.t / 3600.0).tolist()
    t_int, y_star, t_ext, q = (c.tolist() for c in (trace.t_int_true, trace.y_star, trace.t_ext, trace.q_applied))

    height = _MARGIN_T + 2 * _PANEL_H + _GAP + 40
    lo1, hi1 = _bounds(t_int + y_star + t_ext)
    lo2, hi2 = _bounds(q)
    top_panel = _Panel(_MARGIN_T, hours[0], hours[-1], lo1, hi1)
    bot_panel = _Panel(_MARGIN_T + _PANEL_H + _GAP, hours[0], hours[-1], lo2, hi2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}" font-family="sans-serif">',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
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
    parts.append(f'<text x="{_MARGIN_L}" y="{x_axis_y}" font-size="11">{hours[0]:.3g} h</text>')
    parts.append(f'<text x="{_WIDTH - _MARGIN_R}" y="{x_axis_y}" text-anchor="end" font-size="11">{hours[-1]:.3g} h</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, trace: Trace, title: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_svg(trace, title))
