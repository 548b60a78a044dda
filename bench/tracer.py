"""Outside-in span tracer for heatloop.

The tracer instruments the program from the outside: it replaces the
names that callers look up at call time (module globals such as
``heatloop.engine.step_rk4``, entries of ``REFERENCE_GENERATORS``, a
class attribute such as ``EstimatorState.push``) with wrappers that
record one span per call, and puts the originals back on ``uninstall``.
Patching the defining module would miss callers that bound the name
with ``from ... import``.

Spans live in flat in-memory arrays (name id, start, end, parent span,
pass id) and are only aggregated or written out after the measured
passes.  A target that no longer exists is skipped and listed in
``missing``; its calls then read as 0 and its time lands in the caller's
self time.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_pass = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``note(span_index, args)`` runs before the call, outside the span,
        so that counters are taken where the work happens."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_a, parent_a, pass_a = self.name_id, self.parent, self.pass_id
        start_a, end_a, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            pass_a.append(tracer.current_pass)
            start_a.append(0.0)
            end_a.append(0.0)
            if note is not None:
                note(i, args)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_a[i] = t0
                end_a[i] = t1

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced wrapper."""
        is_item = isinstance(owner, dict)
        orig = owner.get(attr) if is_item else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        wrapped = self.wrap(name, orig, note)
        if is_item:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig, is_item))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig, is_item = self._restore.pop()
            if is_item:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span to an ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summarize(self) -> dict[str, dict[int, tuple[int, float]]]:
        """{span name: {pass id: (calls, self time)}}.

        Self time is a span's duration minus the durations of its direct
        children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        own = dur - np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        out: dict[str, dict[int, tuple[int, float]]] = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            passes, own_n = a["pass_id"][mask], own[mask]
            out[name] = {int(p): (int((passes == p).sum()), float(own_n[passes == p].sum())) for p in np.unique(passes)}
        return out


# span names grouped into the layers that the per-layer metrics report
LAYERS = {
    "noise": ("noise.gaussian",),
    "reference": ("reference.step", "reference.smooth", "reference.ramp"),
    "plant": ("plant.step_rk4",),
    "estimation": ("estimation.push", "estimation.estimate_derivative", "estimation.estimate_F"),
    "controllers": ("controllers.ip_control", "controllers.pi_control",
                    "controllers.flat_feedforward", "controllers.clamp"),
}


class Probe:
    """Counters taken at the wrapped boundaries during one pass."""

    def __init__(self) -> None:
        self.keys: dict[str, set] = {"noise": set(), "reference": set()}   # distinct inputs seen
        self.runs: list[tuple[int, str, int]] = []     # (span index, controller kind, ticks)
        self.csv_paths: list[str] = []
        self.svg_paths: list[str] = []

    def note_run(self, i: int, args) -> None:
        sc = args[0]
        kind = getattr(getattr(sc, "controller", None), "kind", "?")
        self.runs.append((i, kind, getattr(sc, "num_ticks", 0)))


def instrument(tracer: Tracer, hl, probe: Probe, full: bool) -> None:
    """Patch heatloop's call sites.  With ``full`` false only ``run`` is
    wrapped, once per run, which costs about nothing per tick."""
    engine, cli = hl.engine, hl.cli
    for owner in (engine, cli):
        tracer.patch(owner, "run", "engine.run", probe.note_run)
    if not full:
        return
    for owner in (engine, cli):
        tracer.patch(owner, "compute_metrics", "engine.compute_metrics")
    tracer.patch(engine, "gaussian", "noise.gaussian", lambda i, a: probe.keys["noise"].add(a[:2]))
    generators = getattr(engine, "REFERENCE_GENERATORS", None)
    if generators is None:
        tracer.missing.append("reference")
    for mode in list(generators or ()):
        tracer.patch(generators, mode, f"reference.{mode}",
                     lambda i, a, m=mode: probe.keys["reference"].add((m, *a[:2])))
    tracer.patch(engine, "step_rk4", "plant.step_rk4")
    estimator = getattr(engine, "EstimatorState", None)
    if estimator is None:
        tracer.missing.append("estimation.push")
    else:
        tracer.patch(estimator, "push", "estimation.push")
    for fn in ("estimate_derivative", "estimate_F"):
        tracer.patch(engine, fn, f"estimation.{fn}")
    for fn in ("ip_control", "pi_control", "flat_feedforward", "clamp"):
        tracer.patch(engine, fn, f"controllers.{fn}")
    tracer.patch(cli, "write_timeseries_csv", "cli.write_timeseries_csv", lambda i, a: probe.csv_paths.append(a[0]))
    tracer.patch(cli, "write_svg", "svgplot.write_svg", lambda i, a: probe.svg_paths.append(a[0]))
    tracer.patch(cli, "load_scenario", "config.load_scenario")


def wrapper_ns_per_call(calls: int = 200_000, repeats: int = 5) -> float:
    """Median cost in ns that one traced wrapper adds to an empty call."""

    def empty():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("empty", empty)
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - t0 - bare) / calls * 1e9)
    costs.sort()
    return costs[len(costs) // 2]
