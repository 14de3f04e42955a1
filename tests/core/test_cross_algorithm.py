"""Cross-algorithm differential checks.

Independent implementations of the same problem bound each other: any
instance where one algorithm beats another's *guarantee* would expose a
bug in the loser, and shared invariants (budgets, conservation) must
hold for all of them simultaneously.
"""

from hypothesis import given, settings

import repro
from repro.core import certify, exact_rebalance

from ..conftest import instances_with_k

MOVE_BUDGET_ALGOS = (
    "greedy",
    "m-partition",
    "hill-climb",
    "exact",
)


class TestCrossAlgorithm:
    @settings(max_examples=30, deadline=None)
    @given(instances_with_k(max_jobs=7, max_processors=3))
    def test_all_respect_budget_and_certify(self, case):
        inst, k = case
        for name in MOVE_BUDGET_ALGOS:
            res = repro.rebalance(inst, algorithm=name, k=k)
            cert = certify(res, k=k)
            cert.require()

    @settings(max_examples=30, deadline=None)
    @given(instances_with_k(max_jobs=7, max_processors=3))
    def test_exact_dominates_everyone(self, case):
        inst, k = case
        best = exact_rebalance(inst, k=k).makespan
        for name in MOVE_BUDGET_ALGOS:
            res = repro.rebalance(inst, algorithm=name, k=k)
            assert res.makespan >= best - 1e-9, (
                f"{name} beat the exact optimum: {res.makespan} < {best}"
            )

    @settings(max_examples=25, deadline=None)
    @given(instances_with_k(max_jobs=7, max_processors=3))
    def test_budgeted_weighted_algorithms_agree_on_budgets(self, case):
        inst, k = case
        budget = float(k)  # unit costs: cost budget == move budget
        opt = exact_rebalance(inst, budget=budget).makespan
        for name in ("cost-partition", "ptas", "shmoys-tardos"):
            res = repro.rebalance(inst, algorithm=name, budget=budget)
            assert res.relocation_cost <= budget + 1e-5 * max(1.0, budget)
            assert res.makespan >= opt - 1e-9

    def test_unit_exact_dispatch(self):
        inst = repro.make_instance(
            sizes=[1.0] * 8, initial=[0] * 8, num_processors=4
        )
        res = repro.rebalance(inst, algorithm="unit-exact", k=4)
        assert res.makespan == exact_rebalance(inst, k=4).makespan
