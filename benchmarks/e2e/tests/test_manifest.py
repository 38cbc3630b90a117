"""BENCHMARK.json respects the contract and matches the runner."""

import re

import config
import harness
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    data = harness.manifest()
    assert sorted(data) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert data["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert data["paths"] == ["benchmarks/e2e"]
    assert data["run_seconds"] == config.DEFAULT_SECONDS


def test_workloads_match_the_runner():
    data = harness.manifest()
    assert sorted(w["name"] for w in data["workloads"]) == sorted(
        run.WORKLOAD_MODULES)
    for workload in data["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metrics_respect_the_contract():
    data = harness.manifest()
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(set(names)) == len(names)
    for metric in data["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
    for metric in data["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert len(data["end_to_end"]) <= 16 and len(data["per_layer"]) <= 128
    assert harness.unit("setup_s") == "s"
