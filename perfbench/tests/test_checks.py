"""Workload self-checks: a stream that is not full drift must fail."""

from perfbench.service import FULL_DRIFT, check_ranges
from perfbench.traffic import DriftCluster, changed_share
from repro.service.loadgen import LoadGenConfig, build_snapshots


def _min_changed(snapshots) -> float:
    return min(changed_share(a, b) for a, b in zip(snapshots, snapshots[1:]))


def test_loadgen_drift_snapshots_fail_the_full_drift_check() -> None:
    # Documented as moving every site every epoch; its flash-crowd step
    # rewrites loads from base popularity and erases the diurnal term.
    snapshots = build_snapshots(
        LoadGenConfig(traffic="drift", num_sites=1500, epochs=64, seed=14))
    measured = {"changed_share_min": _min_changed(snapshots)}
    assert measured["changed_share_min"] < 0.01
    problems = check_ranges({"changed_share_min": FULL_DRIFT.checks[
        "changed_share_min"]}, measured)
    assert problems and problems[0].startswith("changed_share_min=")


def test_full_drift_traffic_passes_the_check() -> None:
    cluster = DriftCluster(seed=5, n=2000, m=8)
    snapshots = [cluster.snapshot(e) for e in range(8)]
    assert _min_changed(snapshots) == 1.0
    assert not check_ranges({"changed_share_min": FULL_DRIFT.checks[
        "changed_share_min"]}, {"changed_share_min": 1.0})


def test_missing_measurement_fails() -> None:
    assert check_ranges({"repeat_share": (0.4, 0.6)}, {})
