"""Harness smoke test: one short measurement per workload, untraced and
traced.  It checks that every declared metric is reported and that no
operation failed; it asserts no timing."""

import json
import os

import pytest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_measurement_reports_every_metric(workload, trace):
    result, env = run.measure(workload, workloads.DEFAULT_SEED, 0.0, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["correct"] and result["failed"] == 0, env["problems"]
    assert result["attempted"] >= 1
    if trace:
        assert result["metrics"]["ops_failed_frac"]["value"] == 0
