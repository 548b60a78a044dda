"""Command-line front end.

Three subcommands:

* ``run``     -- one closed-loop run: timeseries.csv, metrics.txt, plot.svg
* ``compare`` -- the standard seven-run controller comparison: a CSV (and
  an SVG) per run, comparison.txt; its runs share the CPUs this process
  may use
* ``sweep``   -- plant-parameter robustness sweep, sweep.csv; its runs
  share the CPUs this process may use

A command writes into a fresh ``.heatloop-*`` directory under ``--out``,
and its files move into ``--out`` with ``os.replace`` only once it has
succeeded: a failed command leaves ``--out`` as it was.  Exit codes: 0
on success, 2 for configuration or ``--out`` problems (the diagnostic
names the offending file, key or path) and for a run too long to hold
in memory, 3 when a run aborts on a non-finite value.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile

import numpy as np

from .config import CHOICES, ConfigError, apply_entries, load_scenario
from .controllers import CONTROLLERS
from .engine import (
    DEFAULT_SWEEP_FACTORS,
    Metrics,
    Scenario,
    SimulationError,
    Trace,
    _too_many_ticks,
    compute_metrics,
    run,
    run_variants,
    scaled,
)
from .svgplot import write_svg

# each override flag and the config key it sets
_FLAG_KEYS = {"controller": "controller.kind", "reference": "reference.mode", "actuator": "actuator.mode", "seed": "seed"}


# rows per write of the timeseries CSV: a few hundred bound the writer's
# peak and take no longer than one write of the whole body
_CSV_BLOCK_ROWS = 256


def _g9(value: float) -> str:
    return format(value, ".9g")


def write_timeseries_csv(path: str, trace: Trace) -> None:
    """One column per Trace field, in order: 9 significant digits, LF line
    ends, f_estim blank for controllers without an ultra-local estimate.

    Each block of _CSV_BLOCK_ROWS rows is one %-template applied to its
    row-major values, so the floats and text alive at once stay a block's;
    "%.9g" % v is the same text as format(v, ".9g") for every float."""
    columns = [col for col in trace if col is not None]
    row = ",".join(["%.9g"] * len(columns)) + ("," if trace.f_estim is None else "") + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(Trace._fields) + "\n")
        for a in range(0, len(trace.t), _CSV_BLOCK_ROWS):
            block = np.column_stack([col[a:a + _CSV_BLOCK_ROWS] for col in columns])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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


@contextlib.contextmanager
def _staged(out: str):
    """A fresh directory under ``out`` to write into, always removed; its
    files move into ``out`` if the block succeeds and none is a directory there."""
    try:
        os.makedirs(out, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=".heatloop-", dir=out)
    except OSError as exc:
        raise ConfigError(f"--out {out!r}: cannot create the output directory: {exc.strerror}") from None
    try:
        yield stage
        names = os.listdir(stage)
        for name in names:
            if os.path.isdir(os.path.join(out, name)):
                raise ConfigError(f"--out {out!r}: cannot write {name!r}: a directory has that name")
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(out, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def cmd_run(args: argparse.Namespace, sc: Scenario, out: str) -> None:
    trace = run(sc)
    write_timeseries_csv(os.path.join(out, "timeseries.csv"), trace)
    write_metrics_txt(os.path.join(out, "metrics.txt"), compute_metrics(trace))
    if args.plot:
        write_svg(os.path.join(out, "plot.svg"), trace, title=f"{sc.controller.kind} / {sc.reference_mode}")


def cmd_compare(args: argparse.Namespace, base: Scenario, out: str) -> None:
    def finish(name: str, trace: Trace) -> Metrics:
        # writes the run's own files whole and returns only its metrics, so a rerun
        # by spread's fallback writes the same bytes and no text goes back to the caller
        metrics = compute_metrics(trace)
        write_timeseries_csv(os.path.join(out, name + ".csv"), trace)
        if args.plot:
            write_svg(os.path.join(out, name + ".svg"), trace, title=name)
        return metrics

    write_comparison_txt(os.path.join(out, "comparison.txt"), run_variants(comparison_scenarios(base), finish))


def cmd_sweep(args: argparse.Namespace, base: Scenario, out: str) -> None:
    kinds = [args.controller] if args.controller else list(CONTROLLERS)
    scenarios = {kind: apply_entries(base, {"controller.kind": kind}) for kind in kinds}
    variants = [((kind, f), scaled(sc, f)) for kind, sc in scenarios.items() for f in DEFAULT_SWEEP_FACTORS]
    rows = run_variants(variants, lambda point, trace: compute_metrics(trace))
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("controller,factor,rmse,energy,control_variation\n")
        for (kind, factor), metrics in rows:
            fh.write(",".join((
                kind,
                _g9(factor),
                _g9(metrics.rmse),
                _g9(metrics.energy),
                _g9(metrics.control_variation),
            )) + "\n")


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
    """Run one command and return its exit code; a MemoryError exits 2."""
    args = _build_parser().parse_args(argv)
    try:
        # the --config scenario with each given flag applied as its config entry
        flags = {_FLAG_KEYS[flag]: value for flag, value in vars(args).items() if flag in _FLAG_KEYS and value is not None}
        base = apply_entries(load_scenario(args.config), flags)
        with _staged(args.out) as stage:
            try:
                args.func(args, base, stage)
            except MemoryError:    # from any allocation of any run: the scenario is too long for this machine
                raise _too_many_ticks(base) from None
        return 0
    except (ValueError, SimulationError) as exc:    # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SimulationError) else 2


if __name__ == "__main__":
    sys.exit(main())
