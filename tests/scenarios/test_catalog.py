"""Catalog registry invariants, tier resolution, record IO, and the
acceptance-check DSL."""

import json

import pytest

from repro.analysis.ablations import ALL_ABLATIONS
from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.scenarios import (
    BENCH_RUNNERS,
    CATALOG,
    SCHEMA,
    SCHEMA_VERSION,
    Check,
    RecordError,
    Scenario,
    TIERS,
    TrafficAxis,
    TransportAxis,
    WorkloadAxis,
    get_scenario,
    load_record,
    record_path,
    scenario_ids,
    write_record,
)
from repro.scenarios.records import default_records_root, to_jsonable
from repro.service.loadgen import CALIBRATIONS


class TestRegistry:
    def test_every_experiment_and_ablation_has_a_scenario(self):
        tables = {s.table for s in CATALOG.values() if s.table}
        assert set(ALL_EXPERIMENTS) - {"E18"} <= tables | {"E18"}
        missing = (set(ALL_EXPERIMENTS) | set(ALL_ABLATIONS)) - tables
        # E18 is bench-only: its scale run has no analysis-registry table.
        assert missing == {"E18"} or missing == set()
        assert {"E18"} <= set(CATALOG)

    def test_table_keys_resolve_in_analysis_registry(self):
        registry = {**ALL_EXPERIMENTS, **ALL_ABLATIONS}
        for scenario in CATALOG.values():
            if scenario.table is not None:
                assert scenario.table in registry, scenario.scenario_id

    def test_bench_keys_resolve_in_bench_runners(self):
        for scenario in CATALOG.values():
            if scenario.bench is not None:
                assert scenario.bench in BENCH_RUNNERS, scenario.scenario_id

    def test_calibration_names_resolve(self):
        for scenario in CATALOG.values():
            calibration = scenario.workload.calibration
            if calibration is not None:
                assert calibration in CALIBRATIONS, scenario.scenario_id

    def test_unknown_id_lists_valid_set(self):
        with pytest.raises(KeyError) as err:
            get_scenario("E99")
        message = str(err.value)
        for scenario_id in scenario_ids():
            assert scenario_id in message

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("e14").scenario_id == "E14"

    def test_drift_metrics_are_disjoint(self):
        for scenario in CATALOG.values():
            overlap = set(scenario.drift.exact) & set(scenario.drift.band)
            assert not overlap, (
                f"{scenario.scenario_id}: {overlap} both exact and banded"
            )

    def test_acceptance_ops_valid_and_described(self):
        for scenario in CATALOG.values():
            for check in scenario.acceptance:
                assert check.describe()


class TestSpec:
    def axes(self):
        return dict(
            workload=WorkloadAxis(family="random"),
            traffic=TrafficAxis(),
            transport=TransportAxis(),
        )

    def test_scenario_needs_table_or_bench(self):
        with pytest.raises(ValueError):
            Scenario(scenario_id="X", title="t", **self.axes())

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            Scenario(scenario_id="X", title="t", table="E1",
                     tiers={"nightly": {}}, **self.axes())

    def test_tier_resolution_layers_base_tier_overrides(self):
        scenario = Scenario(
            scenario_id="X", title="t", table="E1",
            params={"table": {"trials": 5, "seed": 1}},
            tiers={"ci": {"table": {"trials": 2}}},
            **self.axes(),
        )
        assert scenario.resolve("ci") == {
            "table": {"trials": 2, "seed": 1}, "bench": {},
        }
        assert scenario.resolve("full") == {
            "table": {"trials": 5, "seed": 1}, "bench": {},
        }
        merged = scenario.resolve("ci", {"table": {"seed": 9}})
        assert merged["table"] == {"trials": 2, "seed": 9}

    def test_resolve_rejects_unknown_tier_and_namespace(self):
        scenario = Scenario(scenario_id="X", title="t", table="E1",
                            **self.axes())
        with pytest.raises(ValueError):
            scenario.resolve("nightly")
        with pytest.raises(ValueError):
            scenario.resolve("ci", {"wrong": {}})

    def test_check_ops(self):
        metrics = {"r": 2.5, "flag": True, "n": 0}
        assert Check("r", ">=", 2.0).evaluate(metrics, None) == (True, 2.5)
        assert Check("r", "<", 2.0).evaluate(metrics, None) == (False, 2.5)
        assert Check("flag", "truthy").evaluate(metrics, None) == (True, True)
        assert Check("n", "==", 0).evaluate(metrics, None) == (True, 0)
        ok, got = Check("absent", ">=", 1).evaluate(metrics, None)
        assert not ok and got is None
        with pytest.raises(ValueError):
            Check("r", "~=", 1)

    def test_check_table_quantifiers(self):
        table = {"columns": ["name", "ok"],
                 "rows": [["a", True], ["b", False]]}
        assert Check("table.all:ok", "truthy").evaluate({}, table) == \
            (False, False)
        assert Check("table.any:ok", "truthy").evaluate({}, table) == \
            (True, True)
        ok, _ = Check("table.all:missing", "truthy").evaluate({}, table)
        assert not ok


class TestRecords:
    def test_roundtrip_and_nan_to_null(self, tmp_path):
        payload = {
            "schema": SCHEMA, "schema_version": SCHEMA_VERSION,
            "scenario": "EX", "tier": "ci",
            "metrics": {"nan": float("nan"), "inf": float("inf"), "x": 1},
        }
        path = write_record(payload, tmp_path, "ci", "EX")
        assert path == record_path(tmp_path, "ci", "EX")
        loaded = load_record(path)
        assert loaded["metrics"] == {"nan": None, "inf": None, "x": 1}

    def test_missing_record_error_is_actionable(self, tmp_path):
        with pytest.raises(RecordError) as err:
            load_record(record_path(tmp_path, "ci", "E14"))
        assert "reproduce --scenario E14" in str(err.value)
        assert "--tier ci" in str(err.value)

    def test_corrupt_record_rejected(self, tmp_path):
        path = tmp_path / "ci" / "EX.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with pytest.raises(RecordError):
            load_record(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(RecordError):
            load_record(path)

    def test_tiers_constant(self):
        assert TIERS == ("ci", "full")

    def test_tracked_records_match_catalog_axes(self):
        # The drift comparator never reads ``axes``, so a catalog edit
        # that leaves the tracked records behind would go unnoticed.
        paths = sorted(default_records_root().glob("*/*.json"))
        assert paths
        for path in paths:
            record = load_record(path)
            assert path.stem in CATALOG, f"{path}: no such scenario"
            assert record["axes"] == to_jsonable(
                CATALOG[path.stem].axes_dict()
            ), path
