"""Smoke test of the benchmark itself (not part of tier-1 ``testpaths``).

Run it explicitly::

    python -m pytest bench/smoke_test.py -q

Every workload runs once at ~1/16 size, traced, in a fresh process exactly
as ``run.py`` would start it.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import END_TO_END, PER_LAYER, WORKLOADS, per_layer_values  # noqa: E402
from run import ROOT, run_rep  # noqa: E402


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_small(workload):
    record = run_rep(workload, seed=7, traced=True, scale=1 / 16)
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["messages"]
    for metric in END_TO_END:
        assert record[metric.name] > 0, metric.name
    values = per_layer_values(record, record["host_cpu_s"])
    assert list(values) != [] and set(values) == {m.name for m in PER_LAYER}


def test_manifest_lists_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert manifest["paths"] == ["bench"]
