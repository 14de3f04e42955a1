"""BENCHMARK.json is well formed and names the workloads run.py runs;
run.py refuses to print a metric it does not declare."""

import json
import re

from perfbench import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]


def test_metrics_are_well_formed() -> None:
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_undeclared_metric_is_refused() -> None:
    import pytest

    out = {"correct": True, "attempted": 1, "failed": 0,
           "e2e": {"setup_s": (1.0, "s"), "made_up_ms": (1.0, "ms")}}
    with pytest.raises(RuntimeError):
        run.result_line(out, trace=False)


def test_absent_layer_reports_zero() -> None:
    out = {"correct": True, "attempted": 1, "failed": 0, "layers": {}}
    line = json.loads(run.result_line(out, trace=True))
    assert set(line["metrics"]) == set(run.PER_LAYER)
    assert all(m["value"] == 0.0 for m in line["metrics"].values())
