"""Tests for hill-climbing rebalancing."""

from hypothesis import given, settings

from repro.baselines import hill_climb_rebalance
from repro.core import make_instance

from ..conftest import instances_with_k


class TestHillClimb:
    def test_never_worse_than_initial(self):
        inst = make_instance(
            sizes=[9, 4, 4], initial=[0, 0, 0], num_processors=2
        )
        res = hill_climb_rebalance(inst, k=2)
        assert res.makespan <= inst.initial_makespan

    def test_respects_move_budget(self):
        inst = make_instance(
            sizes=[5, 5, 5, 5], initial=[0, 0, 0, 0], num_processors=4
        )
        res = hill_climb_rebalance(inst, k=1)
        assert res.num_moves <= 1

    def test_respects_cost_budget(self):
        inst = make_instance(
            sizes=[5, 5, 5], initial=[0, 0, 0], num_processors=3,
            costs=[10, 1, 1],
        )
        res = hill_climb_rebalance(inst, budget=2.0)
        assert res.relocation_cost <= 2.0

    def test_stops_at_local_optimum(self):
        inst = make_instance(sizes=[5, 5], initial=[0, 1], num_processors=2)
        res = hill_climb_rebalance(inst, k=10)
        assert res.num_moves == 0
        assert res.meta["steps"] == 0

    def test_single_processor(self):
        inst = make_instance(sizes=[3, 2], initial=[0, 0], num_processors=1)
        res = hill_climb_rebalance(inst, k=5)
        assert res.num_moves == 0

    @settings(max_examples=40, deadline=None)
    @given(instances_with_k(max_jobs=8, max_processors=4))
    def test_monotone_improvement(self, case):
        """The makespan never increases relative to the start."""
        inst, k = case
        res = hill_climb_rebalance(inst, k=k)
        assert res.makespan <= inst.initial_makespan + 1e-9
        assert res.num_moves <= k

    @settings(max_examples=25, deadline=None)
    @given(instances_with_k(max_jobs=8, max_processors=4))
    def test_more_budget_never_hurts(self, case):
        inst, k = case
        small = hill_climb_rebalance(inst, k=k)
        large = hill_climb_rebalance(inst, k=k + 3)
        assert large.makespan <= small.makespan + 1e-9
