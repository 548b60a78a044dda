"""Two failure modes of the model-based feedforward controllers.

Part 1: the feedforward-plus-P loop has no integrator, so a load it
never measures (here: cold outdoor air) leaves a permanent offset.  The
offset is not noise, it is the unique solution of the closed-loop
statics; the script prints both the simulated and the predicted value.

Part 2: adding the integrator fixes the offset but buys a new problem.
With a fast double pole the corrector amplifies measurement noise into
actuator chatter; slowing the pole calms the actuator but lets every
transition error linger.  The adaptive iP loop sidesteps the trade-off
because it never differentiates the model, only a short sliding fit.

Writes flat_p_offset.svg, flat_pi_fast.svg, flat_pi_slow.svg.
"""

from dataclasses import replace
from pathlib import Path

from heatloop import (
    ConstantTExt,
    FlatPController,
    FlatPiController,
    NOMINAL,
    compute_metrics,
    default_scenario,
    run,
)
from heatloop.cli import comparison_scenarios
from heatloop.controllers import flat_feedforward, place_flat_p_gain
from heatloop.plant import system_matrices
from heatloop.svgplot import write_svg

OUT = Path(__file__).parent / "output"


def predicted_offset(setpoint: float, t_ext: float) -> float:
    # closed-loop statics of feedforward + P at the default pole: the
    # plant's static K-per-watt gain g, -(A^-1)[0][0] * b_q, against the
    # placed corrector gain
    (a11, a12, a21, a22), (b_q, _, _) = system_matrices(NOMINAL)
    g = -a22 * b_q / (a11 * a22 - a12 * a21)
    q_ff = flat_feedforward(setpoint, 0.0, NOMINAL)
    k_p = place_flat_p_gain(FlatPController().pole, NOMINAL)
    return (g * q_ff - (setpoint - t_ext)) / (1.0 - g * k_p)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    base = default_scenario()

    print("Part 1: flat+P against an unmeasured constant load")
    sc = replace(base, controller=FlatPController(),
                 t_ext=ConstantTExt(5.0), noise_std=0.0)
    trace = run(sc)
    plateau = (158400.0 <= trace.t) & (trace.t < 165600.0)
    e_sim = (trace.t_int_true - trace.y_star)[plateau].mean()
    print(f"  steady error on the 19 degree plateau: {e_sim:+.4f} K simulated,"
          f" {predicted_offset(19.0, 5.0):+.4f} K predicted")
    write_svg(str(OUT / "flat_p_offset.svg"), trace, title="flat+P, constant 5 C outdoors")

    print()
    print("Part 2: flat+PI pole choice under 0.05 K measurement noise")
    print()
    print(f"{'run':<16}  {'rmse':>8}  {'control variation':>18}")
    rows = {
        "flat_pi_fast": FlatPiController(),
        "flat_pi_slow": dict(comparison_scenarios(base))["flat_pi_slow"].controller,
        "ip": None,
    }
    metrics = {}
    for name, ctrl in rows.items():
        sc = base if ctrl is None else replace(base, controller=ctrl)
        trace = run(sc)
        metrics[name] = compute_metrics(trace)
        m = metrics[name]
        print(f"{name:<16}  {m.rmse:>8.4f}  {m.control_variation:>18.0f}")
        if ctrl is not None:
            write_svg(str(OUT / f"{name}.svg"), trace, title=name)

    churn = metrics["flat_pi_fast"].control_variation / metrics["ip"].control_variation
    lag = metrics["flat_pi_slow"].rmse / metrics["ip"].rmse
    print()
    print(f"fast pole: {churn:.0f}x the actuator churn of iP;"
          f" slow pole: {lag:.0f}x the rmse of iP")
    print(f"plots written to {OUT}/")


if __name__ == "__main__":
    main()
