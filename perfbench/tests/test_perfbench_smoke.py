"""Reduced-size runs of every workload emit every metric BENCHMARK.json names.

The smoke inputs are far below the sizes the accuracy gates are set for,
so these tests check the metric names and the traced/untraced identity,
not the accuracy checks.
"""

import json
import os

import pytest

from conftest import ROOT
from run import run_workload

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run_emits_every_end_to_end_metric(workload):
    checks, metrics, _, samples, tracer = run_workload(workload, seed=3, seconds=0,
                                                       trace=False, size="smoke")
    assert tracer is None
    assert samples["train_s"] and samples["detect"] and samples["rca"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"]
        assert value > 0
    assert checks.attempted >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_emits_every_per_layer_metric(workload):
    checks, metrics, _, _, tracer = run_workload(workload, seed=3, seconds=0, trace=True,
                                                 size="smoke")
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert tracer.spans
    assert any(line.startswith("pass: traced and untraced runs give identical outputs")
               for line in checks.lines)
