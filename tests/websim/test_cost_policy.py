"""Weighted-migration simulation: Section 3.2 inside the epoch loop."""

import numpy as np

from repro.websim import (
    BytesProportionalCost,
    CostPartitionPolicy,
    DiurnalTraffic,
    NoRebalance,
    Simulation,
    build_cluster,
)


def run(policy, budget_model, epochs=12, seed=33):
    cluster = build_cluster(
        30, 4, np.random.default_rng(seed), migration_model=budget_model
    )
    sim = Simulation(
        cluster=cluster, traffic=DiurnalTraffic(), policy=policy, seed=seed
    )
    return sim.run(epochs)


class TestCostPartitionPolicy:
    def test_per_epoch_cost_budget_respected(self):
        model = BytesProportionalCost(per_byte=0.1)
        budget = 5.0
        res = run(CostPartitionPolicy(budget=budget), model)
        for record in res.records:
            assert record.migration_cost <= budget + 1e-6

    def test_weighted_policy_beats_nothing(self):
        model = BytesProportionalCost(per_byte=0.1)
        weighted = run(CostPartitionPolicy(budget=8.0), model)
        none = run(NoRebalance(), model)
        assert weighted.mean_makespan <= none.mean_makespan + 1e-9

    def test_snapshot_costs_follow_migration_model(self):
        model = BytesProportionalCost(per_byte=2.0)
        cluster = build_cluster(
            10, 2, np.random.default_rng(5), migration_model=model
        )
        inst = cluster.to_instance()
        expected = [2.0 * s.content_bytes for s in cluster.sites]
        assert np.allclose(inst.costs, expected)
        assert not inst.is_unit_cost
