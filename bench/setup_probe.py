"""Set-up probe: run in a fresh interpreter by the benchmark.

Usage: python3 setup_probe.py SRC_DIR CONFIG

Imports ``heatloop.cli`` from SRC_DIR and loads CONFIG, the two steps a
CLI user pays on every call, and prints their times as one JSON line.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import heatloop.cli  # noqa: E402

t1 = time.perf_counter()
heatloop.cli.load_scenario(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
