"""BENCHMARK.json names exactly the workloads and metrics the code reports."""

import json
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


def test_metrics_match():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
