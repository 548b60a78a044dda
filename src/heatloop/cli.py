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
_CSV_BLOCK_ROWS = 192


def _g9(value: float) -> str:
    return format(value, ".9g")


# A CSV cell's text is cut from a 24-byte slot of six uint32 words: a
# sign byte "-" and six integer digits, ".", twelve decimals, then the
# separator in byte 20.  Row 21 (7 s + f) + l of _SPANS keeps bytes
# f..l-1, the sign byte when s = 1, and the separator.
_DIGITS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)                  # [a, b, c, d] is "abcd"
_kept = np.zeros((), dtype=np.uint8)                                     # 4 less the trailing zeros of "abcd"
for _k in range(4):
    _digit = np.arange(10, dtype=np.uint8).reshape((10,) + (1,) * (3 - _k))
    _DIGITS[..., _k] = _digit + ord("0")
    _kept = np.maximum(_kept, (_digit != 0) * np.uint8(_k + 1))
_DIGITS, _kept = _DIGITS.reshape(10000, 4), _kept.ravel()
_SIGN, _DOT = _DIGITS[:1000].copy(), np.roll(_DIGITS[:1000], -1, axis=1)
_SIGN[:, 0], _DOT[:, 3] = ord("-"), ord(".")
_FOUR, _SIGN, _DOT = (t.view(np.uint32).ravel() for t in (_DIGITS, _SIGN, _DOT))    # "0000", "-000", "000."
# the end of a cell's text by its three words of decimals: past the last nonzero one, or before the point
_ENDS = np.where(_kept, _kept + np.array([[8], [12], [16]], dtype=np.uint8), np.array([[7], [0], [0]], dtype=np.uint8))
_FIRST = 21 * (6 - np.maximum(np.arange(10) - 4, 0))                    # 21 f by e + 4: the units digit, or e more
_NEGATIVE = 21 * 7
_f, _l, _b = np.ogrid[:7, :21, :24]
_SPANS = ((_f <= _b) & (_b < _l)) | (_b == 20)
_SPANS = np.concatenate((_SPANS, _SPANS | (_b == 0))).reshape(-1, 24)
del _DIGITS, _k, _digit, _kept, _f, _l, _b
_POW10 = 10.0 ** np.arange(13)


def _on_table(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e + 4, fast): n = v's nine significant digits as a count of
    1e-12 (0 off the table), e = floor(log10 |v|), and where n gives v's
    "%.9g" text: +-0.0, and |v| in [1e-4, 1e6) not within 1e-6 of a tie
    at nine digits."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e6)
    zero = a == 0.0
    np.putmask(a, ~fast, 1.0)                                           # off the table: any value in range
    e4 = np.log10(a)
    e4 += 4.0
    np.clip(e4, 0.0, 9.0, out=e4)
    e4 = e4.astype(np.intp)                                             # floor, as e4 >= 0
    a *= _POW10[12 - e4]                                                # x = |v| 10**(8 - e)
    m = np.rint(a)
    fast &= (m >= 1e8) & (m < 1e9)
    a -= m
    np.abs(a, out=a)
    fast &= a < 0.5 - 1e-6
    del a
    m *= _POW10[e4]                                                     # 10**(e + 4)
    np.putmask(m, ~fast, 0.0)
    fast |= zero
    return m.astype(np.int64), e4, fast


def _fill_slots(v: np.ndarray, words: np.ndarray, code: np.ndarray) -> None:
    """Write each value's "%.9g" text into its slot, and the row of _SPANS that cuts it."""
    n, e4, fast = _on_table(v)
    whole = n // 10**12
    n -= whole * 10**12                                                 # the twelve decimals
    hi = whole // 1000
    whole -= hi * 1000
    words[..., 0] = _SIGN[hi]
    words[..., 1] = _DOT[whole]
    del whole, hi
    d = n // 10**8
    n -= d * 10**8
    words[..., 2] = _FOUR[d]
    end = _ENDS[0][d]
    d = n // 10000
    n -= d * 10000
    words[..., 3] = _FOUR[d]
    words[..., 4] = _FOUR[n]
    np.maximum(end, _ENDS[1][d], out=end)
    np.maximum(end, _ENDS[2][n], out=end)
    del n, d
    np.add(_FIRST[e4], end, out=code)
    np.add(code, _NEGATIVE, out=code, where=np.signbit(v))
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array(["%.9g" % x for x in v.ravel()[slow].tolist()], dtype="S20")
        words.reshape(-1, 6)[slow, :5] = text.view(np.uint32).reshape(-1, 5)
        code.reshape(-1)[slow] = np.char.str_len(text)


def write_timeseries_csv(path: str, trace: Trace) -> None:
    """One column per Trace field, in order: "%.9g" text, LF line ends,
    f_estim blank for controllers without an ultra-local estimate.

    The text is made _CSV_BLOCK_ROWS rows at a time, so the values and
    bytes alive at once stay a block's.  A cell with |v| in [1e-4, 1e6)
    takes its digits from tables: e = floor(log10 |v|), x = |v| 10**(8 - e)
    is one correctly rounded product by an exact power of ten, within 6e-8
    of the true one as x < 2**30, so where x is not within 1e-6 of a half,
    m = rint(x) is the nine-digit mantissa that "%.9g" rounds to, and
    "%.9g" writes m 10**(e - 8) in fixed notation, trailing zeros and a
    bare point dropped.  +-0.0 is "0" or "-0".  Every other cell
    (near-ties, exponent form, 1e6 or more, nan, +-inf) is "%.9g" % v, so
    every byte is the per-value "%.9g" text."""
    width = len(Trace._fields)
    values = np.zeros((_CSV_BLOCK_ROWS, width))
    words = np.zeros((_CSV_BLOCK_ROWS, width, 6), dtype=np.uint32)
    slots = words.view(np.uint8).reshape(_CSV_BLOCK_ROWS, width, 24)
    slots[:, :, 20] = ord(",")
    slots[:, -1, 20] = ord("\n")
    code = np.empty((_CSV_BLOCK_ROWS, width), dtype=np.intp)
    columns = [col for col in trace if col is not None]
    with open(path, "wb") as fh:
        fh.write((",".join(Trace._fields) + "\n").encode())
        for a in range(0, len(trace.t), _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, len(trace.t) - a)
            for j, col in enumerate(columns):
                values[:rows, j] = col[a:a + rows]
            _fill_slots(values[:rows], words[:rows], code[:rows])
            if trace.f_estim is None:
                code[:rows, -1] = 0
            fh.write(slots[:rows][_SPANS.take(code[:rows], axis=0)].tobytes())


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
