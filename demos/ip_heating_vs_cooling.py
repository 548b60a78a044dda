"""What a heating-only actuator costs during setpoint ramp-downs.

Runs the adaptive iP loop twice on the reference scenario: once with a
reversible actuator (the command may go negative) and once heating-only
(negative commands are clamped to zero).  During the two evening
ramp-downs the heating-only plant can only drift back to the setpoint
at its natural cooling rate, so the error peaks an order of magnitude
higher there.  Everywhere else the two runs are indistinguishable.

Writes ip_heat_cool.svg and ip_heat_only.svg next to this script.
"""

from pathlib import Path

from heatloop import compute_metrics, default_scenario, run
from heatloop.cli import comparison_scenarios
from heatloop.svgplot import write_svg

OUT = Path(__file__).parent / "output"


def cooling_demand_periods(trace, min_ticks=10):
    """Maximal runs of ticks whose command asks for negative heat."""
    periods, current = [], None
    for i, q_command in enumerate(trace.q_command.tolist()):
        if q_command < 0.0:
            current = (current[0], i) if current else (i, i)
        else:
            if current and current[1] - current[0] + 1 >= min_ticks:
                periods.append(current)
            current = None
    if current and current[1] - current[0] + 1 >= min_ticks:
        periods.append(current)
    return periods


def main() -> None:
    OUT.mkdir(exist_ok=True)
    comparison = dict(comparison_scenarios(default_scenario()))

    both = run(comparison["ip_heat_cool"])
    heat_only = run(comparison["ip_heat"])

    print("iP on the reference scenario, heat+cool vs heating-only")
    print()
    print(f"{'':>24}  {'heat+cool':>12}  {'heating-only':>12}")
    m_both, m_heat = compute_metrics(both), compute_metrics(heat_only)
    for name in ("rmse", "max_abs_error", "energy", "cooling_energy", "saturation_fraction"):
        print(f"{name:>24}  {getattr(m_both, name):>12.4f}  {getattr(m_heat, name):>12.4f}")

    print()
    print("sustained cooling-demand periods (heating-only command < 0):")
    err_h = abs(heat_only.t_int_true - heat_only.y_star)
    err_c = abs(both.t_int_true - both.y_star)
    for a, b in cooling_demand_periods(heat_only):
        t0, t1 = heat_only.t[a] / 3600.0, heat_only.t[b] / 3600.0
        peak_h, peak_c = err_h[a:b + 1].max(), err_c[a:b + 1].max()
        print(f"  {t0:6.2f} h .. {t1:6.2f} h   peak |e| {peak_h:.3f} K heating-only"
              f" vs {peak_c:.3f} K with cooling")

    write_svg(str(OUT / "ip_heat_cool.svg"), both, title="iP, heating and cooling")
    write_svg(str(OUT / "ip_heat_only.svg"), heat_only, title="iP, heating only")
    print()
    print(f"plots written to {OUT}/")


if __name__ == "__main__":
    main()
