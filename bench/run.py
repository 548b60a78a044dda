"""heatloop benchmark.

Usage (from anywhere; paths resolve against the checkout that holds
this directory):

    python3 bench/run.py --workload compare_plot|sweep|seed_ensemble \
        --seed N --seconds S --trace 0|1

One process, one caller, closed loop: each pass starts when the previous
one has ended.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` alternates passes that wrap only
``run`` with fully traced passes and reports the per-layer metrics.
The metric names and units come from BENCHMARK.json.  The last line of
standard output is the result as one JSON object; the line before it
records the environment.  NOTES.md says what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import tracer as tr
import workloads as wl

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 9
MAX_TRACED_PASSES = 4        # spans of one traced sweep pass take about 10 MB
TAIL_BEYOND = 10             # samples required above the reported tail percentile
KINDS = ("ip", "pi", "flat_p", "flat_pi")


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import heatloop from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "heatloop", "__init__.py")):
        raise ProgramMissing(f"no heatloop sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import heatloop
    import heatloop.cli
    import heatloop.config
    import heatloop.engine

    if os.path.dirname(os.path.dirname(os.path.abspath(heatloop.__file__))) != SRC:
        raise ProgramMissing(f"heatloop was imported from {heatloop.__file__}, not {SRC}")
    return heatloop


def environment(bench_seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": os.getloadavg(),
        "seed": bench_seed,
        "program_seed": wl.PROGRAM_SEED_BASE + bench_seed,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class SetupProbes:
    """Set-up time of fresh interpreters (``setup_probe.py``, the
    benchmark's only subprocess), each importing ``heatloop.cli`` and
    loading the empty config.

    The probes are spread evenly over the measured window, between
    passes, so that they sample the same machine conditions as the
    passes do; probes clustered at the start swung with the host's load
    far more than the pass medians did."""

    def __init__(self, config: str, seconds: float) -> None:
        self.config = config
        self.start = time.perf_counter()
        self.every = seconds / SETUP_PROBES
        self.totals: list[float] = []
        self.imports: list[float] = []
        self.loads: list[float] = []

    def due(self) -> None:
        """Run one probe if the next one is due."""
        if len(self.totals) < SETUP_PROBES and time.perf_counter() >= self.start + len(self.totals) * self.every:
            self._probe()

    def finish(self) -> None:
        while len(self.totals) < SETUP_PROBES:
            self._probe()

    def _probe(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC, self.config],
                              capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        self.totals.append(time.perf_counter() - t0)
        split = json.loads(proc.stdout.strip().splitlines()[-1])
        self.imports.append(split["import_s"])
        self.loads.append(split["load_s"])


class Checker:
    """Checks every operation and counts the ones that fail.

    The first run of a given input is validated (finite values, expected
    files and rows); every later run of the same input must reproduce
    its output exactly."""

    def __init__(self, workload, frozen: dict) -> None:
        self.w = workload
        self.frozen = frozen
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ops: list, results: list, against_frozen: bool = False) -> list:
        outputs = []
        for op, result in zip(ops, results):
            self.attempted += 1
            problem, out = f"raised {result!r}", None
            if not isinstance(result, BaseException):
                try:
                    problem, out = self.w.output(op, result)
                except Exception as exc:    # a result the workload cannot read is a failed op
                    problem = f"unreadable result {result!r}: {exc!r}"
            if problem is None:
                if op in self.seen:
                    first, first_problem = self.seen[op]
                    problem = first_problem if out == first else "output differs from the first run of the same input"
                else:
                    problem = "; ".join(self.w.validate(out)) or None
                    self.seen[op] = (out, problem)
            if problem is None and against_frozen:
                problem = "; ".join(self.w.frozen_problems(op, out, self.frozen)) or None
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op}: {problem}")
            outputs.append(out)
        return outputs


def run_pass(w, ops: list, checker: Checker, tracer: tr.Tracer | None = None, against_frozen: bool = False) -> float:
    """Execute one pass of operations and check them; return its host seconds."""
    w.before_pass()
    gc.collect()
    execute = w.execute if tracer is None else tracer.wrap("op", w.execute)
    results = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            results.append(execute(op))
        except (Exception, SystemExit) as exc:
            results.append(exc)
    elapsed = time.perf_counter() - t0
    checker.check(ops, results, against_frozen)
    return elapsed


def _bytes(paths: list[str]) -> int:
    """Total size of the files a pass wrote, read right after the pass."""
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    s = sorted(times)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(w, checker: Checker, bench_seed: int, seconds: float) -> tuple[dict, dict]:
    tracemalloc.start()
    run_pass(w, w.ops(bench_seed, 0), checker)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    times = []
    setup = SetupProbes(w.config, seconds)
    deadline = time.perf_counter() + seconds
    p = 1
    while True:
        setup.due()
        times.append(run_pass(w, w.ops(bench_seed, p), checker))
        p += 1
        if time.perf_counter() >= deadline:
            break
    setup.finish()
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup.totals),
        "wall_s": statistics.median(times),
        "wall_s_tail": tail_s,
        "ticks_per_s": len(times) * w.runs_per_pass * wl.TICKS_PER_RUN / sum(times),
        "peak_alloc_mib": peak / 2**20,
    }
    info = {"wall_s_tail_percentile": tail_pct, "wall_s_tail_samples": len(times), "pass_s": times}
    return metrics, info


def per_layer(hl, w, checker: Checker, bench_seed: int, seconds: float) -> tuple[dict, dict]:
    run_pass(w, w.ops(bench_seed, 0), checker)
    light, full = tr.Tracer(), tr.Tracer()
    light_runs: list = []
    plain_times, traced_times, probes = [], [], []

    def instrumented_pass(tracer: tr.Tracer, is_full: bool, p: int) -> tuple[float, tr.Probe]:
        probe = tr.Probe()
        tracer.current_pass = p
        tr.instrument(tracer, hl, probe, is_full)
        try:
            return run_pass(w, w.ops(bench_seed, p), checker, tracer if is_full else None), probe
        finally:
            tracer.uninstall()

    setup = SetupProbes(w.config, seconds)
    deadline = time.perf_counter() + seconds
    p = 1
    while True:
        setup.due()
        elapsed, probe = instrumented_pass(light, False, p)
        plain_times.append(elapsed)
        light_runs += probe.runs
        # after MAX_TRACED_PASSES traced passes, the rest of the time goes to plain passes
        if len(traced_times) < MAX_TRACED_PASSES:
            elapsed, probe = instrumented_pass(full, True, p + 1)
            traced_times.append(elapsed)
            probes.append((p + 1, probe, _bytes(probe.csv_paths), _bytes(probe.svg_paths)))
        p += 2
        if time.perf_counter() >= deadline:
            break
    setup.finish()
    os.makedirs(WORK, exist_ok=True)
    full.save(os.path.join(WORK, f"spans-{w.name}.npz"))    # the last traced run of each workload

    spans = full.summarize()
    traced_passes = [p for p, *_ in probes]

    def per_pass(names, p: int, field: int) -> float:
        return sum(spans.get(name, {}).get(p, (0, 0.0))[field] for name in names)

    def med(names, field: int) -> float:
        return statistics.median(per_pass(names, p, field) for p in traced_passes)

    metrics = {"ops_failed_frac": checker.failed / checker.attempted}
    for layer, names in tr.LAYERS.items():
        metrics[f"{layer}.calls"] = med(names, 0)
        metrics[f"{layer}.self_s"] = med(names, 1)
    for layer in ("noise", "reference"):
        metrics[f"{layer}.distinct_ratio"] = statistics.median(
            len(pr.keys[layer]) / max(per_pass(tr.LAYERS[layer], p, 0), 1) for p, pr, *_ in probes
        )
    for name in ("engine.run", "engine.compute_metrics", "cli.write_timeseries_csv", "svgplot.write_svg", "op"):
        metrics[f"{name}.self_s"] = med([name], 1)
    metrics["engine.run.calls"] = med(["engine.run"], 0)
    metrics["cli.csv_bytes"] = statistics.median(csv for *_, csv, _ in probes)
    metrics["svgplot.bytes"] = statistics.median(svg for *_, svg in probes)

    # µs per tick by controller kind, from the passes that wrap only run()
    light_spans = light.arrays()
    run_dur = light_spans["end"] - light_spans["start"]
    for kind in KINDS:
        picked = [(run_dur[i], ticks) for i, k, ticks in light_runs if k == kind]
        ticks = sum(t for _, t in picked)
        metrics[f"engine.run.us_per_tick.{kind}"] = 1e6 * sum(d for d, _ in picked) / ticks if ticks else 0.0

    metrics["setup.import_s"] = statistics.median(setup.imports)
    metrics["config.load_scenario.self_s"] = statistics.median(setup.loads)
    metrics["tracing.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    metrics["tracing.wrapper_ns_per_call"] = tr.wrapper_ns_per_call()
    info = {"traced_passes": len(traced_times), "plain_passes": len(plain_times), "missing_targets": full.missing}
    return metrics, info


def measure(workload: str, bench_seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark measurement; return (result, environment and info)."""
    env = environment(bench_seed)
    hl = load_program()
    w = wl.make(workload, hl, os.path.join(WORK, workload))
    checker = Checker(w, wl.load_frozen()[workload])
    # The frozen inputs run in every measurement, so the gate holds whatever the seed.
    run_pass(w, w.ops(wl.DEFAULT_SEED, 0), checker, against_frozen=True)
    if bench_seed != wl.DEFAULT_SEED:
        run_pass(w, w.ops(bench_seed, 0), checker)
    # Each mode starts by running (bench_seed, 0) once more, which checks
    # that two passes on the same inputs give identical outputs.
    if trace:
        metrics, info = per_layer(hl, w, checker, bench_seed, seconds)
    else:
        metrics, info = end_to_end(w, checker, bench_seed, seconds)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    env["loadavg_end"] = os.getloadavg()
    env.update(info, workload=workload, trace=int(trace), problems=checker.problems)
    return result, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
