"""Command-line front end.

Three subcommands:

* ``run``     -- one closed-loop run: timeseries.csv, metrics.txt, plot.svg
* ``compare`` -- the standard seven-run controller comparison
* ``sweep``   -- plant-parameter robustness sweep, sweep.csv

Exit codes: 0 on success, 2 for configuration or ``--out`` problems
(the diagnostic names the offending file, key or path), 3 when a run
aborts on a non-finite value.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_scenario
from .controllers import CONTROLLERS, HEATING_AND_COOLING, HEATING_ONLY, ActuatorMode, default_controller
from .engine import (
    DEFAULT_SWEEP_FACTORS,
    Metrics,
    Scenario,
    SimulationError,
    Trace,
    compute_metrics,
    run,
    sweep,
)
from .svgplot import write_svg

_ACTUATOR_FLAG = {"heat": HEATING_ONLY, "heat_cool": HEATING_AND_COOLING}


def _g9(value: float) -> str:
    return format(value, ".9g")


def write_timeseries_csv(path: str, trace: Trace) -> None:
    """One column per Trace field, in order: 9 significant digits, LF line
    ends, f_estim blank for controllers without an ultra-local estimate.

    The whole body is one %-template applied to the row-major values;
    "%.9g" % v is the same text as format(v, ".9g") for every float."""
    columns = [col for col in trace if col is not None]
    row = ",".join(["%.9g"] * len(columns)) + ("," if trace.f_estim is None else "") + "\n"
    body = (row * len(trace.t)) % tuple(np.column_stack(columns).ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(Trace._fields) + "\n" + body)


def write_metrics_txt(path: str, metrics: Metrics) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, value in metrics.as_dict().items():
            fh.write(f"{name} = {_g9(value)}\n")


def comparison_scenarios(base: Scenario) -> list[tuple[str, Scenario]]:
    """The standard seven-run comparison, all sharing the base scenario's
    plant, schedule, outdoor profile, noise and seed."""
    heat = ActuatorMode(mode=HEATING_ONLY, q_max=base.actuator.q_max)
    cool = ActuatorMode(mode=HEATING_AND_COOLING, q_max=base.actuator.q_max)
    c = {kind: default_controller(kind, base.plant) for kind in CONTROLLERS}
    return [
        ("ip_heat", replace(base, controller=c["ip"], reference_mode="smooth", actuator=heat)),
        ("ip_heat_cool", replace(base, controller=c["ip"], reference_mode="smooth", actuator=cool)),
        ("pi_step", replace(base, controller=c["pi"], reference_mode="step", actuator=cool)),
        ("pi_smooth", replace(base, controller=c["pi"], reference_mode="smooth", actuator=cool)),
        ("flat_p", replace(base, controller=c["flat_p"], reference_mode="smooth", actuator=cool)),
        ("flat_pi_fast", replace(base, controller=c["flat_pi"], reference_mode="smooth", actuator=cool)),
        ("flat_pi_slow", replace(base, controller=replace(c["flat_pi"], double_pole=-0.001), reference_mode="smooth", actuator=cool)),
    ]


def write_comparison_txt(path: str, rows: list[tuple[str, Metrics]]) -> None:
    columns = ("run",) + Metrics.FIELDS
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("  ".join(f"{c:>20}" if i else f"{c:<14}" for i, c in enumerate(columns)).rstrip() + "\n")
        for name, m in rows:
            cells = [f"{name:<14}"] + [f"{_g9(getattr(m, f)):>20}" for f in Metrics.FIELDS]
            fh.write("  ".join(cells).rstrip() + "\n")


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path!r}: cannot create the output directory: {exc.strerror}") from None


def _apply_overrides(sc: Scenario, args: argparse.Namespace) -> Scenario:
    if getattr(args, "controller", None):
        sc = replace(sc, controller=default_controller(args.controller, sc.plant))
    if getattr(args, "reference", None):
        sc = replace(sc, reference_mode=args.reference)
    if getattr(args, "actuator", None):
        sc = replace(sc, actuator=ActuatorMode(mode=_ACTUATOR_FLAG[args.actuator], q_max=sc.actuator.q_max))
    if getattr(args, "seed", None) is not None:
        sc = replace(sc, rng_seed=args.seed)
    sc.validate()
    return sc


def cmd_run(args: argparse.Namespace) -> int:
    sc = _apply_overrides(load_scenario(args.config), args)
    _make_out_dir(args.out)
    trace = run(sc)
    write_timeseries_csv(os.path.join(args.out, "timeseries.csv"), trace)
    write_metrics_txt(os.path.join(args.out, "metrics.txt"), compute_metrics(trace))
    if args.plot:
        write_svg(os.path.join(args.out, "plot.svg"), trace, title=f"{sc.controller.kind} / {sc.reference_mode}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base = load_scenario(args.config)
    if getattr(args, "seed", None) is not None:
        base = replace(base, rng_seed=args.seed)
    _make_out_dir(args.out)
    rows = []
    for name, sc in comparison_scenarios(base):
        trace = run(sc)
        write_timeseries_csv(os.path.join(args.out, f"{name}.csv"), trace)
        if args.plot:
            write_svg(os.path.join(args.out, f"{name}.svg"), trace, title=name)
        rows.append((name, compute_metrics(trace)))
    write_comparison_txt(os.path.join(args.out, "comparison.txt"), rows)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _apply_overrides(load_scenario(args.config), args)
    kinds = [args.controller] if getattr(args, "controller", None) else list(CONTROLLERS)
    _make_out_dir(args.out)
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("controller,factor,rmse,energy,control_variation\n")
        for kind in kinds:
            sc = replace(base, controller=default_controller(kind, base.plant))
            for factor, metrics in sweep(sc, DEFAULT_SWEEP_FACTORS):
                fh.write(",".join((
                    kind,
                    _g9(factor),
                    _g9(metrics.rmse),
                    _g9(metrics.energy),
                    _g9(metrics.control_variation),
                )) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heatloop", description="Room-heating control simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, overrides: bool = True) -> None:
        p.add_argument("--config", required=True, help="scenario config file (key = value lines)")
        p.add_argument("--out", required=True, help="output directory, created if missing")
        if overrides:
            p.add_argument("--controller", choices=CONTROLLERS)
            p.add_argument("--reference", choices=("step", "smooth", "ramp"))
            p.add_argument("--actuator", choices=("heat", "heat_cool"))
        p.add_argument("--seed", type=int)

    p_run = sub.add_parser("run", help="simulate one closed-loop run")
    common(p_run)
    p_run.add_argument("--plot", action="store_true", help="also write plot.svg")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run the standard seven-run controller comparison")
    common(p_cmp, overrides=False)
    p_cmp.add_argument("--plot", action="store_true", help="also write one SVG per run")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="plant-parameter robustness sweep")
    common(p_swp)
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
