"""BENCHMARK.json agrees with the tables the benchmark code reports from."""

import json
import os

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_top_level_keys_and_command():
    doc = _load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert 1 <= doc["run_seconds"] <= 60


def test_workloads_match_the_runner():
    doc = _load()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WHY[entry["name"]]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_what_the_runs_print():
    doc = _load()
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == workloads.E2E_UNITS
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert layers == {name: spec[:2]
                      for name, spec in workloads.LAYERS.items()}
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
