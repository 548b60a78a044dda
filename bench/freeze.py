"""Rewrite frozen.json from the outputs of the default seed's pass 0.

Usage: python3 bench/freeze.py

The correctness gate compares every measurement against frozen.json.
Regenerate it only for a deliberate change to the program's numbers,
and say in CHANGES.md which values moved and why.
"""

import json
import os

import run
import workloads as wl


def main() -> None:
    hl = run.load_program()
    frozen = {}
    for name in wl.WORKLOADS:
        w = wl.make(name, hl, os.path.join(run.WORK, name))
        checker = run.Checker(w, {})
        ops = w.ops(wl.DEFAULT_SEED, 0)
        w.before_pass()
        outputs = checker.check(ops, [w.execute(op) for op in ops])
        if checker.failed:
            raise SystemExit(f"{name}: {checker.problems}")
        frozen[name] = {}
        for op, out in zip(ops, outputs):
            frozen[name].update(w.freeze(op, out))
    with open(wl.FROZEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
