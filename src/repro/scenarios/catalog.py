"""The ScenarioCatalog: every reproducible result as a declarative config.

One :class:`~repro.scenarios.spec.Scenario` per experiment (E1–E12,
E14, E15 and E17–E19; E13 and E16 are retired) and ablation (A1, A2;
A3 is retired), each composing the three
axes — workload (what the instances are), traffic (how load evolves and
arrives), transport (what decides and how bytes move) — with
tier-resolved parameters, machine-readable acceptance checks and a
drift policy.  ``python -m repro
reproduce`` is a pure interpreter over this table: adding a scenario
here is the *entire* cost of making it reproducible, checkable and
CI-gated.

Conventions:

* ``table`` names the analysis-registry experiment whose
  :class:`ExperimentReport` the scenario regenerates; ``bench`` names a
  :data:`~repro.scenarios.benches.BENCH_RUNNERS` acceptance runner.
* The ``ci`` tier is scaled down but asserts the *same invariants*;
  ``full`` is the canonical scale written up in EXPERIMENTS.md.
* Drift ``exact`` fields are deterministic (seeded math, byte-identity
  flags, error counters); ``band`` fields track host speed and get a
  multiplicative window.  Table timing columns never gate.
"""

from __future__ import annotations

from .spec import (
    Check,
    DriftPolicy,
    Scenario,
    TrafficAxis,
    TransportAxis,
    WorkloadAxis,
)

__all__ = ["CATALOG", "get_scenario", "scenario_ids"]


def _exact_table(*columns: str, exact=(), band=None) -> DriftPolicy:
    return DriftPolicy(
        exact=("table_rows",) + tuple(exact),
        band=dict(band or {}),
        table_exact_columns=columns,
    )


_SERVICE_BENCH_TABLE_TIERS = ("full",)

_SCENARIOS = (
    # ------------------------------------------------------------------
    # Theory tables: seeded math, fully deterministic, drift-gated cell
    # by cell.
    # ------------------------------------------------------------------
    Scenario(
        scenario_id="E1",
        title="GREEDY approximation ratio (Theorem 1: tight 2 - 1/m)",
        workload=WorkloadAxis(family="tightness+random", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="greedy"),
        table="E1",
        acceptance=(Check("table.all:within", "truthy"),),
        drift=_exact_table("family", "m", "measured ratio", "bound 2-1/m",
                           "within"),
        description="Tight family meets 2-1/m; random families stay under.",
    ),
    Scenario(
        scenario_id="E2",
        title="(M-)PARTITION approximation ratio (Theorems 2-3: tight 1.5)",
        workload=WorkloadAxis(family="tightness+random", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="partition"),
        table="E2",
        acceptance=(Check("table.all:within", "truthy"),),
        drift=_exact_table("family", "algorithm", "worst ratio", "bound",
                           "within"),
    ),
    Scenario(
        scenario_id="E3",
        title="Runtime scaling (Theorems 1/3: O(n log n))",
        workload=WorkloadAxis(family="random", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="greedy+m-partition"),
        table="E3",
        drift=_exact_table("algorithm", "n range"),
        description="Timing columns (slope, time@max-n) are informational.",
    ),
    Scenario(
        scenario_id="E4",
        title="PTAS ratio vs eps (Theorem 4)",
        workload=WorkloadAxis(family="random", costs="random"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="ptas"),
        table="E4",
        acceptance=(Check("table.all:budget ok", "truthy"),),
        drift=_exact_table("eps", "bound 1+eps", "mean ratio", "worst ratio",
                           "budget ok"),
    ),
    Scenario(
        scenario_id="E5",
        title="Weighted rebalancing: Section 3.2 vs Shmoys-Tardos LP",
        workload=WorkloadAxis(family="random", costs="random"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="cost-partition+lp"),
        table="E5",
        acceptance=(Check("table.all:budget ok", "truthy"),),
        drift=_exact_table("algorithm", "mean ratio", "worst ratio",
                           "mean cost used", "budget ok"),
    ),
    Scenario(
        scenario_id="E6",
        title="Web-cluster simulation: bounded-migration policies",
        workload=WorkloadAxis(family="websim-cluster", num_sites=60,
                              num_servers=6, k=3, seed=5, sizes="zipf"),
        traffic=TrafficAxis(kind="diurnal+flash", epochs=40),
        transport=TransportAxis(solver="policy-suite", engine="scratch"),
        table="E6",
        params={"table": {"traffic": "diurnal+flash"}},
        drift=_exact_table("policy", "mean makespan", "peak makespan",
                           "mean imbalance", "migrations"),
    ),
    Scenario(
        scenario_id="E7",
        title="Move minimization (Theorem 5: inapproximable; gadget gap)",
        workload=WorkloadAxis(family="gadget", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="exact+greedy"),
        table="E7",
        acceptance=(Check("table.all:greedy sound", "truthy"),),
        drift=_exact_table("gadget", "exact achievable", "exact moves",
                           "greedy achievable", "greedy sound"),
    ),
    Scenario(
        scenario_id="E8",
        title="Makespan vs move budget k (planted-imbalance family)",
        workload=WorkloadAxis(family="planted", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="greedy+m-partition+exact"),
        table="E8",
        drift=_exact_table("k", "lower bound", "greedy", "m-partition",
                           "exact/planted"),
        description="NaN cells (exact beyond reach) serialize as null and "
                    "must stay null.",
    ),
    Scenario(
        scenario_id="E9",
        title="Head-to-head on random families (ratio vs exact)",
        workload=WorkloadAxis(family="random", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="suite"),
        table="E9",
        drift=_exact_table("algorithm", "mean ratio", "p95 ratio",
                           "worst ratio", "mean moves"),
    ),
    Scenario(
        scenario_id="E10",
        title="Hardness gadgets (Theorems 6-7, Corollary 1)",
        workload=WorkloadAxis(family="gadget", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="exact"),
        table="E10",
        acceptance=(Check("table.all:consistent", "truthy"),),
        drift=_exact_table("gadget", "instance", "has matching", "observed",
                           "consistent"),
    ),
    Scenario(
        scenario_id="E11",
        title="Theorem bounds at oracle scale (n up to 50k)",
        workload=WorkloadAxis(family="unit+two-point", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="suite"),
        table="E11",
        acceptance=(Check("table.all:certified", "truthy"),),
        drift=_exact_table("oracle", "n", "m", "algorithm",
                           "ratio vs oracle", "bound", "certified"),
    ),
    Scenario(
        scenario_id="E12",
        title="Warm-start engine vs from-scratch M-PARTITION",
        workload=WorkloadAxis(family="websim-cluster", num_sites=2_000,
                              num_servers=32, k=8, seed=12, sizes="zipf"),
        traffic=TrafficAxis(kind="diurnal+flash", epochs=50),
        transport=TransportAxis(engine="both"),
        table="E12",
        acceptance=(Check("table.all:identical", "truthy"),),
        drift=_exact_table("traffic", "policy", "tables reused",
                           "buckets patched", "cache hits", "identical"),
        description="identical=True is the engine's byte-identity contract.",
    ),
    # ------------------------------------------------------------------
    # Systems scenarios: table (full tier) + acceptance bench (both
    # tiers).  The bench params at ci tier are exactly what the old
    # per-script CI ran.
    # ------------------------------------------------------------------
    Scenario(
        scenario_id="E14",
        title="Serving the solver: batched asyncio service vs naive",
        workload=WorkloadAxis(family="calibrated", calibration="service",
                              sizes="drifting"),
        traffic=TrafficAxis(kind="drift", arrival="open-loop"),
        transport=TransportAxis(wire="v1", executor="thread"),
        table="E14",
        table_tiers=_SERVICE_BENCH_TABLE_TIERS,
        bench="e14-service",
        bench_json="BENCH_e14.json",
        acceptance=(
            Check("goodput_ratio", ">=", 3.0),
            Check("batched_p99_le_naive", "truthy"),
            Check("errors_total", "==", 0),
            Check("accounted_ok", "truthy"),
            Check("alive_all", "truthy"),
            Check("overload_naive_rejected", ">", 0),
            Check("overload_queues_drained", "truthy"),
        ),
        drift=DriftPolicy(
            exact=("errors_total", "accounted_ok", "alive_all",
                   "batched_p99_le_naive", "overload_queues_drained"),
            # goodput_ratio divides by the *collapsed* naive leg, which
            # is chaotic at overload -- the acceptance floor is the
            # invariant, so it stays informational here.
            table_exact_columns=("mode", "alive"),
        ),
    ),
    Scenario(
        scenario_id="E15",
        title="v2 binary wire + delta snapshots vs v1 JSON",
        workload=WorkloadAxis(family="calibrated", calibration="wire",
                              sizes="drifting"),
        traffic=TrafficAxis(kind="drift", arrival="open-loop"),
        transport=TransportAxis(wire="both", executor="thread"),
        table="E15",
        table_tiers=_SERVICE_BENCH_TABLE_TIERS,
        bench="e15-wire",
        bench_json="BENCH_e15.json",
        acceptance=(
            Check("v2_frame_smaller", "truthy"),
            Check("v2_full_smaller", "truthy"),
            Check("decode_bit_exact", "truthy"),
            Check("delta_reduction", ">=", 5.0),
            Check("goodput_ratio", ">=", 2.0),
            Check("optimized_p99_le_baseline", "truthy"),
            Check("optimized_deltas_sent", ">", 0),
            Check("errors_total", "==", 0),
            Check("accounted_ok", "truthy"),
            Check("alive_all", "truthy"),
            Check("optimized_resident_path", "truthy"),
            Check("queues_drained", "truthy"),
        ),
        drift=DriftPolicy(
            exact=("v2_frame_smaller", "v2_full_smaller", "decode_bit_exact",
                   "errors_total", "accounted_ok", "alive_all",
                   "optimized_resident_path", "queues_drained",
                   "optimized_p99_le_baseline"),
            # goodput_ratio's denominator is the v1 leg at overload
            # collapse (observed 45x..416x run to run) -- acceptance
            # floor only, not drift-banded.
            band={"binary_reduction": 1.5, "delta_reduction": 2.0},
            table_exact_columns=("transport", "alive"),
        ),
        description="decode_bit_exact is E15's byte-identity contract.",
    ),
    Scenario(
        scenario_id="E17",
        title="Cluster tier: scale-out, kill -9 failover, router "
              "trajectory transparency",
        workload=WorkloadAxis(family="calibrated", calibration="service",
                              sizes="drifting"),
        traffic=TrafficAxis(kind="diurnal+flash", arrival="open-loop",
                            failure="kill9@midrun"),
        transport=TransportAxis(wire="v2+delta", executor="thread",
                                router_backends=2),
        table="E17",
        table_tiers=_SERVICE_BENCH_TABLE_TIERS,
        bench="e17-cluster",
        bench_json="BENCH_e17.json",
        acceptance=(
            Check("trajectory_identical", "truthy"),
            Check("scaleout_found", "truthy"),
            Check("scaleout_ratio", ">=", 1.8),
            Check("failover_errors", "==", 0),
            Check("failover_deaths", ">=", 1),
            Check("failover_p99_bounded", "truthy"),
            Check("failover_completed", ">", 0),
        ),
        drift=DriftPolicy(
            exact=("trajectory_identical", "scaleout_found",
                   "failover_errors", "failover_p99_bounded"),
            band={"scaleout_ratio": 2.0},
            table_exact_columns=("topology", "alive"),
        ),
        description="trajectory_identical is E17's byte-identity contract; "
                    "the failure axis is the router's kill -9 path.",
    ),
    Scenario(
        scenario_id="E18",
        title="Million-site steady state: O(churn) decides through the "
              "sharded cluster",
        workload=WorkloadAxis(family="zipf-churn", num_servers=64, k=512,
                              seed=18, sizes="zipf"),
        traffic=TrafficAxis(kind="paced-churn", arrival="paced", epochs=24),
        transport=TransportAxis(engine="incremental", wire="v2+delta",
                                executor="thread", router_backends=3),
        bench="e18-scale",
        bench_json="BENCH_e18.json",
        params={"bench": {"backends": 3, "shards": 6, "servers": 64,
                          "k": 512, "churn": 16, "epochs": 24, "warmup": 3,
                          "epoch_interval_ms": 300.0,
                          "p50_growth_bound": 2.0, "seed": 18}},
        tiers={
            "ci": {"bench": {"sites_small": 2_000, "sites_large": 20_000,
                             "required_total_large": 0}},
            "full": {"bench": {"sites_small": 16_700, "sites_large": 167_000,
                               "required_total_large": 1_000_000}},
        },
        acceptance=(
            Check("scale_target_met", "truthy"),
            Check("trajectory_identical", "truthy"),
            Check("replication_trajectory_identical", "truthy"),
            Check("legs_clean", "truthy"),
            Check("p50_growth", "<=", 2.0),
            Check("incremental_decides_small", ">", 0),
            Check("incremental_decides_large", ">", 0),
            Check("router_passthrough_ok", "truthy"),
            Check("replication_replays_ok", "truthy"),
            Check("replication_errors", "==", 0),
        ),
        drift=DriftPolicy(
            exact=("trajectory_identical", "replication_trajectory_identical",
                   "legs_clean", "total_sites_large", "scale_target_met",
                   "router_passthrough_ok", "replication_replays_ok",
                   "replication_errors", "p50_growth_bound",
                   "incremental_decides_small", "incremental_decides_large"),
            band={"p50_growth": 2.5, "steady_p50_small_ms": 4.0,
                  "steady_p50_large_ms": 4.0},
        ),
        description="trajectory_identical / replication_trajectory_identical "
                    "are E18's byte-identity contracts.",
    ),
    Scenario(
        scenario_id="E19",
        title="Sharded router data plane: shard-affine worker processes "
              "and the many-core scale-out proof",
        workload=WorkloadAxis(family="drifting", sizes="drifting", seed=19),
        traffic=TrafficAxis(kind="open-loop+diurnal", arrival="open-loop",
                            failure="kill9@midrun"),
        transport=TransportAxis(wire="v2", executor="thread",
                                router_backends=2, router_workers="1..N"),
        bench="e19-dataplane",
        bench_json="BENCH_e19.json",
        params={"bench": {"relay_concurrency": 1, "relay_delay_ms": 40.0,
                          "relay_queue": 6, "overload": 1.2,
                          "deadline_ms": 600.0, "sites": 400, "servers": 8,
                          "k": 4, "connections": 16, "traj_epochs": 12,
                          "traj_k": 3, "traj_sites": 80, "traj_servers": 6,
                          "traj_seed": 36, "enc_sites": 2_000,
                          "enc_churn": 8, "enc_shards": 2, "enc_reps": 3,
                          "seed": 19}},
        tiers={
            "ci": {"bench": {"workers": 2, "min_ratio": 1.6,
                             "duration_s": 2.5, "shards": 4,
                             "enc_epochs": 80}},
            "full": {"bench": {"workers": 4, "min_ratio": 2.5,
                               "duration_s": 4.0, "shards": 8,
                               "enc_epochs": 150}},
        },
        acceptance=(
            Check("scaleout_ok", "truthy"),
            Check("scaling_ratio", ">=", 1.6),
            Check("p99_bounded", "truthy"),
            Check("scaling_clean", "truthy"),
            Check("relay_path_used", "truthy"),
            Check("traj_plain_identical", "truthy"),
            Check("traj_kill9_identical", "truthy"),
            Check("traj_migrate_identical", "truthy"),
            Check("kill9_deaths", ">=", 1),
            Check("migrations", ">=", 1),
            Check("encoder_not_slower", "truthy"),
            Check("encoder_trajectory_identical", "truthy"),
            Check("encoder_clean", "truthy"),
        ),
        drift=DriftPolicy(
            exact=("scaleout_ok", "p99_bounded", "scaling_clean",
                   "relay_path_used", "traj_plain_identical",
                   "traj_kill9_identical", "traj_migrate_identical",
                   "encoder_not_slower", "encoder_trajectory_identical",
                   "encoder_clean", "workers"),
            band={"scaling_ratio": 1.5},
        ),
        description="Per-worker relay capacity is pinned by construction "
                    "(permits / (delay + service)), so the 1-to-N goodput "
                    "ratio proves the architecture scales independent of "
                    "host cores; the three traj_* bits are E19's "
                    "byte-identity contracts through the sharded data "
                    "plane (plain, kill -9 failover, live migration).",
    ),
    # ------------------------------------------------------------------
    # Ablations.
    # ------------------------------------------------------------------
    Scenario(
        scenario_id="A1",
        title="Ablation: GREEDY reinsertion order",
        workload=WorkloadAxis(family="random", costs="unit"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="greedy"),
        table="A1",
        drift=_exact_table("family", "order", "mean ratio", "worst ratio"),
    ),
    Scenario(
        scenario_id="A2",
        title="Ablation: Section 3.2 knapsack backend (exact DP vs FPTAS)",
        workload=WorkloadAxis(family="random", costs="random"),
        traffic=TrafficAxis(kind="none", arrival="one-shot"),
        transport=TransportAxis(solver="cost-partition"),
        table="A2",
        acceptance=(Check("table.all:budget ok", "truthy"),),
        drift=_exact_table("backend", "mean ratio", "worst ratio",
                           "budget ok"),
    ),
)

CATALOG: dict[str, Scenario] = {s.scenario_id: s for s in _SCENARIOS}


def scenario_ids() -> tuple[str, ...]:
    return tuple(CATALOG)


def get_scenario(scenario_id: str) -> Scenario:
    """Look up a scenario; unknown IDs fail listing the valid set."""
    key = scenario_id.upper()
    if key not in CATALOG:
        raise KeyError(
            f"unknown scenario {scenario_id!r}; valid scenarios: "
            f"{', '.join(scenario_ids())}"
        )
    return CATALOG[key]
