"""Why the setpoint should be ramped, not stepped.

The same PI loop tracks the day/night schedule twice: once fed the raw
setpoint steps, once fed the smooth one-hour blends.  Stepping the
reference asks for an infinite slew and the loop answers with a large
transient at every switch; the smooth reference keeps the demanded
trajectory feasible and cuts the rmse by more than a factor of three.
The adaptive iP run on the same smooth reference is printed alongside
as the baseline it is usually compared against.

Writes pi_step.svg and pi_smooth.svg next to this script.
"""

from pathlib import Path

from heatloop import compute_metrics, default_scenario, run
from heatloop.cli import comparison_scenarios
from heatloop.svgplot import write_svg

OUT = Path(__file__).parent / "output"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    comparison = dict(comparison_scenarios(default_scenario()))

    runs = {
        "pi_step": comparison["pi_step"],
        "pi_smooth": comparison["pi_smooth"],
        "ip_smooth": comparison["ip_heat_cool"],
    }

    print("PI under step vs smooth references (iP shown for scale)")
    print()
    print(f"{'run':<12}  {'rmse':>8}  {'max |e|':>8}  {'energy':>12}")
    metrics = {}
    for name, sc in runs.items():
        trace = run(sc)
        metrics[name] = compute_metrics(trace)
        m = metrics[name]
        print(f"{name:<12}  {m.rmse:>8.4f}  {m.max_abs_error:>8.4f}  {m.energy:>12.0f}")
        if name.startswith("pi"):
            write_svg(str(OUT / f"{name}.svg"), trace, title=name)

    ratio = metrics["pi_step"].rmse / metrics["pi_smooth"].rmse
    print()
    print(f"stepping the reference multiplies the PI rmse by {ratio:.2f}")
    print(f"plots written to {OUT}/")


if __name__ == "__main__":
    main()
