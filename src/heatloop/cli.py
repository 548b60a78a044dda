"""Command-line front end.

Three subcommands:

* ``run``     -- one closed-loop run: timeseries.csv, metrics.txt, plot.svg
* ``compare`` -- the standard seven-run controller comparison
* ``sweep``   -- plant-parameter robustness sweep, sweep.csv; its runs
  share the CPUs this process may use

Exit codes: 0 on success, 2 for configuration or ``--out`` problems
(the diagnostic names the offending file, key or path), 3 when a run
aborts on a non-finite value.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import CHOICES, ConfigError, apply_entries, load_scenario
from .controllers import CONTROLLERS
from .engine import (
    DEFAULT_SWEEP_FACTORS,
    Metrics,
    Scenario,
    SimulationError,
    Trace,
    compute_metrics,
    run,
    spread,
    sweep_point,
)
from .svgplot import write_svg

# each override flag and the config key it sets
_FLAG_KEYS = {"controller": "controller.kind", "reference": "reference.mode", "actuator": "actuator.mode", "seed": "seed"}


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


# the standard seven-run comparison, each run as the config entries it sets
_SMOOTH_COOL = {"reference.mode": "smooth", "actuator.mode": "heat_cool"}
_COMPARISON = {
    "ip_heat": {"controller.kind": "ip", "reference.mode": "smooth", "actuator.mode": "heat"},
    "ip_heat_cool": {"controller.kind": "ip", **_SMOOTH_COOL},
    "pi_step": {"controller.kind": "pi", "reference.mode": "step", "actuator.mode": "heat_cool"},
    "pi_smooth": {"controller.kind": "pi", **_SMOOTH_COOL},
    "flat_p": {"controller.kind": "flat_p", **_SMOOTH_COOL},
    "flat_pi_fast": {"controller.kind": "flat_pi", **_SMOOTH_COOL},
    "flat_pi_slow": {"controller.kind": "flat_pi", "controller.double_pole": "-0.001", **_SMOOTH_COOL},
}


def comparison_scenarios(base: Scenario) -> list[tuple[str, Scenario]]:
    """The seven comparison runs, all sharing the base scenario's plant,
    schedule, outdoor profile, noise and seed."""
    return [(name, apply_entries(base, entries)) for name, entries in _COMPARISON.items()]


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


def _scenario(args: argparse.Namespace) -> Scenario:
    """The --config scenario with each given flag applied as its config entry."""
    flags = {_FLAG_KEYS[flag]: value for flag, value in vars(args).items() if flag in _FLAG_KEYS and value is not None}
    return apply_entries(load_scenario(args.config), flags)


def cmd_run(args: argparse.Namespace) -> int:
    sc = _scenario(args)
    _make_out_dir(args.out)
    trace = run(sc)
    metrics = compute_metrics(trace)    # a run that fails here leaves no files
    write_timeseries_csv(os.path.join(args.out, "timeseries.csv"), trace)
    write_metrics_txt(os.path.join(args.out, "metrics.txt"), metrics)
    if args.plot:
        write_svg(os.path.join(args.out, "plot.svg"), trace, title=f"{sc.controller.kind} / {sc.reference_mode}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base = _scenario(args)
    _make_out_dir(args.out)
    rows = []
    for name, sc in comparison_scenarios(base):
        trace = run(sc)
        rows.append((name, compute_metrics(trace)))
        write_timeseries_csv(os.path.join(args.out, f"{name}.csv"), trace)
        if args.plot:
            write_svg(os.path.join(args.out, f"{name}.svg"), trace, title=name)
    write_comparison_txt(os.path.join(args.out, "comparison.txt"), rows)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _scenario(args)
    kinds = [args.controller] if args.controller else list(CONTROLLERS)
    _make_out_dir(args.out)
    # one scenario per kind, then all kinds x factors in one spread; the
    # file opens only after every run has passed
    scenarios = {kind: apply_entries(base, {"controller.kind": kind}) for kind in kinds}
    points = [(kind, factor) for kind in kinds for factor in DEFAULT_SWEEP_FACTORS]
    rows = spread(lambda point: sweep_point(scenarios[point[0]], point[1]), points)
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("controller,factor,rmse,energy,control_variation\n")
        for (kind, factor), metrics in zip(points, rows):
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

    def common(p: argparse.ArgumentParser, flags=_FLAG_KEYS) -> None:
        p.add_argument("--config", required=True, help="scenario config file (key = value lines)")
        p.add_argument("--out", required=True, help="output directory, created if missing")
        for flag in flags:
            key = _FLAG_KEYS[flag]
            p.add_argument(f"--{flag}", choices=CHOICES.get(key), help=f"same as config key {key}")

    p_run = sub.add_parser("run", help="simulate one closed-loop run")
    common(p_run)
    p_run.add_argument("--plot", action="store_true", help="also write plot.svg")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run the standard seven-run controller comparison")
    common(p_cmp, flags=["seed"])
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
