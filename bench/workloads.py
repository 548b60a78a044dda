"""The three benchmark workloads and their correctness checks.

Each workload turns the benchmark seed into the program's inputs (an
empty config file plus argv, or seeds for library runs), executes one
pass of operations, and checks what the operations produced.  An
operation is one CLI call or one library run.  Why each workload exists
is recorded in NOTES.md.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import replace

DEFAULT_SEED = 0             # the benchmark seed whose outputs are frozen
PROGRAM_SEED_BASE = 63       # benchmark seed 0 runs the frozen reference scenario
TICKS_PER_RUN = 2880         # 48 h of 60 s ticks: the empty config
ENSEMBLE_SEEDS_PER_PASS = 4  # each seed drives one iP and one PI run
FROZEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen.json")
REL_TOL = 1e-7               # 9 significant digits are printed; a changed control law moves ~1e-3
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _parse_table(text: str, sep: str | None, key_cols: int) -> dict[str, dict[str, float]]:
    """{row key: {column: value}} from a header-first text table."""
    lines = text.strip().splitlines()
    header = lines[0].split(sep)
    rows = {}
    for line in lines[1:]:
        cells = line.split(sep)
        if len(cells) != len(header):
            raise ValueError(f"row {line!r} has {len(cells)} cells, header has {len(header)}")
        key = "@".join(cells[:key_cols])
        rows[key] = {col: float(cell) for col, cell in zip(header[key_cols:], cells[key_cols:])}
    return rows


def _frozen_problems(frozen: dict, got: dict) -> list[str]:
    """Every frozen value must be present and close; extra columns are fine."""
    problems = []
    for key, cols in frozen.items():
        row = got.get(key)
        if row is None:
            problems.append(f"missing row {key}")
            continue
        for col, want in cols.items():
            if col not in row or not _close(row[col], want):
                problems.append(f"{key}.{col} = {row.get(col)!r}, frozen {want!r}")
    return problems


class CliWorkload:
    """One ``heatloop`` CLI call per pass, made in-process through
    ``heatloop.cli.main`` on the empty config, each pass into a fresh
    output directory."""

    def __init__(self, name: str, heatloop, work_dir: str, config: str, args: list[str], runs: int,
                 table: str, sep: str | None, key_cols: int, csv_files: int, svg_files: int):
        self.name = name
        self.hl = heatloop
        self.out = os.path.join(work_dir, "out")
        self.config = config
        self.args = args
        self.runs_per_pass = runs
        self.table, self.sep, self.key_cols = table, sep, key_cols
        self.csv_files, self.svg_files = csv_files, svg_files

    def ops(self, bench_seed: int, p: int) -> list[tuple[str, ...]]:
        seed = str(PROGRAM_SEED_BASE + bench_seed)
        return [(self.args[0], "--config", self.config, "--out", self.out, "--seed", seed, *self.args[1:])]

    def before_pass(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def execute(self, argv):
        return self.hl.cli.main(list(argv))

    def output(self, op, result) -> tuple[str | None, object]:
        """(problem or None, output to compare across passes)."""
        if result != 0:
            return f"exit status {result!r}", None
        files = {}
        for fname in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, fname), "rb") as fh:
                files[fname] = fh.read()
        return None, files

    def validate(self, files: dict[str, bytes]) -> list[str]:
        problems = []
        csvs = [f for f in files if f.endswith(".csv") and f != self.table]
        svgs = [f for f in files if f.endswith(".svg")]
        if len(csvs) != self.csv_files or len(svgs) != self.svg_files or self.table not in files:
            problems.append(f"unexpected files {sorted(files)}")
        for fname in csvs:
            data = files[fname]
            if data.count(b"\n") != TICKS_PER_RUN + 1 or b"nan" in data or b"inf" in data:
                problems.append(f"{fname}: not {TICKS_PER_RUN} finite rows")
        for fname in svgs:
            if not files[fname].endswith(b"</svg>\n"):
                problems.append(f"{fname}: truncated svg")
        try:
            rows = self.parse(files)
        except (KeyError, ValueError, UnicodeDecodeError) as exc:
            return problems + [f"{self.table}: {exc}"]
        if len(rows) != self.runs_per_pass:
            problems.append(f"{self.table}: {len(rows)} rows, expected {self.runs_per_pass}")
        for key, cols in rows.items():
            if not all(math.isfinite(v) for v in cols.values()):
                problems.append(f"{self.table}: non-finite value in row {key}")
        return problems

    def parse(self, files: dict[str, bytes]) -> dict[str, dict[str, float]]:
        return _parse_table(files[self.table].decode("utf-8"), self.sep, self.key_cols)

    def freeze(self, op, files: dict[str, bytes]) -> dict[str, dict[str, float]]:
        return self.parse(files)

    def frozen_problems(self, op, files: dict[str, bytes], frozen: dict) -> list[str]:
        return _frozen_problems(frozen, self.freeze(op, files))


class EnsembleWorkload:
    """The A3 study through the library: ``run`` and ``compute_metrics``
    on the frozen ``ip_heat_cool`` and ``pi_smooth`` scenarios, each run
    with a seed of its own, so no noise draw repeats within or across
    passes.  Writes no files."""

    name = "seed_ensemble"
    runs_per_pass = 2 * ENSEMBLE_SEEDS_PER_PASS

    def __init__(self, heatloop, config: str):
        self.hl = heatloop
        self.config = config
        base = heatloop.config.load_scenario(config)
        scenarios = dict(heatloop.cli.comparison_scenarios(base))
        self.scenarios = {name: scenarios[name] for name in ("ip_heat_cool", "pi_smooth")}

    def ops(self, bench_seed: int, p: int) -> list[tuple[str, int]]:
        rng = random.Random(f"seed_ensemble:{bench_seed}:{p}")
        seeds = [rng.getrandbits(63) for _ in range(self.runs_per_pass)]
        names = list(self.scenarios) * ENSEMBLE_SEEDS_PER_PASS
        return list(zip(names, seeds))

    def before_pass(self) -> None:
        pass

    def execute(self, op):
        name, seed = op
        engine = self.hl.engine
        return engine.compute_metrics(engine.run(replace(self.scenarios[name], rng_seed=seed)))

    def output(self, op, result) -> tuple[str | None, object]:
        values = result.as_dict()
        if not all(math.isfinite(v) for v in values.values()):
            return f"non-finite metrics {values}", None
        return None, values

    def validate(self, values: dict[str, float]) -> list[str]:
        return [] if values["rmse"] > 0.0 else [f"rmse {values['rmse']!r} is not positive"]

    def freeze(self, op, values: dict[str, float]) -> dict[str, dict[str, float]]:
        name, seed = op
        return {f"{name}:{seed}": {"rmse": values["rmse"]}}

    def frozen_problems(self, op, values: dict[str, float], frozen: dict) -> list[str]:
        mine = self.freeze(op, values)
        return _frozen_problems({key: frozen.get(key, {"rmse": math.nan}) for key in mine}, mine)


def make(name: str, heatloop, work_dir: str):
    """The named workload, with an empty config file written to ``work_dir``."""
    os.makedirs(work_dir, exist_ok=True)
    config = os.path.join(work_dir, "empty.cfg")
    with open(config, "w", encoding="utf-8"):
        pass
    if name == "compare_plot":
        return CliWorkload(name, heatloop, work_dir, config, ["compare", "--plot"], runs=7,
                           table="comparison.txt", sep=None, key_cols=1, csv_files=7, svg_files=7)
    if name == "sweep":
        return CliWorkload(name, heatloop, work_dir, config, ["sweep"], runs=20,
                           table="sweep.csv", sep=",", key_cols=2, csv_files=0, svg_files=0)
    if name == "seed_ensemble":
        return EnsembleWorkload(heatloop, config)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("compare_plot", "sweep", "seed_ensemble")


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)
