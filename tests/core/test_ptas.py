"""Tests for the PTAS (Section 4, Theorem 4)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PTASLimits,
    exact_rebalance,
    make_instance,
    ptas_rebalance,
)
from repro.core import ptas
from repro.core.ptas import _discretize
from repro.workloads import random_instance

from ..conftest import small_instances


@st.composite
def budgeted_cases(draw):
    inst = draw(small_instances(max_jobs=6, max_processors=3, unit_costs=False))
    total = float(inst.costs.sum())
    budget = draw(st.floats(min_value=0.0, max_value=max(total, 1.0)))
    return inst, budget


class TestDiscretization:
    def test_class_count_matches_formula(self):
        import math

        inst = make_instance(sizes=[10.0], initial=[0])
        delta = 0.25
        disc = _discretize(inst, 10.0, delta)
        expected = math.ceil(math.log(1 / delta) / math.log(1 + delta))
        assert disc.num_classes == expected

    def test_rounded_sizes_cover_jobs(self):
        inst = make_instance(sizes=[10.0, 3.0, 1.0], initial=[0, 0, 0])
        disc = _discretize(inst, 10.0, 0.25)
        # size 10 and 3 are large at delta*T = 2.5; size 1 is small.
        large_total = sum(
            len(lst) for cls_lists in disc.large_by_class for lst in cls_lists
        )
        assert large_total == 2
        assert disc.small_load[0] == pytest.approx(1.0)

    def test_class_sizes_geometric(self):
        inst = make_instance(sizes=[10.0], initial=[0])
        disc = _discretize(inst, 10.0, 0.5)
        ratios = disc.class_sizes[1:] / disc.class_sizes[:-1]
        assert all(abs(r - 1.5) < 1e-9 for r in ratios)

    def test_rejects_oversized_job(self):
        inst = make_instance(sizes=[100.0], initial=[0])
        with pytest.raises(ValueError, match="exceeds"):
            _discretize(inst, 10.0, 0.25)

    def test_each_guess_discretized_once(self):
        # The accepted guess's discretization feeds both its DP and the
        # realization: one call per guess tried, none repeated.
        inst = random_instance(7, 3, np.random.default_rng(4),
                               cost_family="random", integer_sizes=True)
        guesses = []

        def counted(instance, guess, delta):
            guesses.append(guess)
            return _discretize(instance, guess, delta)

        with mock.patch.object(ptas, "_discretize", counted):
            res = ptas_rebalance(inst, float(inst.costs.sum()) / 10.0, eps=1.0)
        assert res.meta["guesses_tried"] == 4
        assert len(guesses) == res.meta["guesses_tried"]
        assert guesses[-1] == res.guessed_opt


class TestPTAS:
    def test_zero_budget_identity(self):
        inst = make_instance(
            sizes=[9, 1], initial=[0, 0], num_processors=2, costs=[5, 5]
        )
        res = ptas_rebalance(inst, 0.0, eps=1.0)
        assert res.relocation_cost == 0.0

    def test_rejects_bad_args(self):
        inst = make_instance(sizes=[1.0], initial=[0])
        with pytest.raises(ValueError):
            ptas_rebalance(inst, -1.0)
        with pytest.raises(ValueError):
            ptas_rebalance(inst, 1.0, eps=0.0)

    def test_empty_instance(self):
        inst = make_instance(sizes=[], initial=[], num_processors=2)
        assert ptas_rebalance(inst, 1.0).makespan == 0.0

    def test_state_limit_raises(self):
        inst = make_instance(
            sizes=[7, 6, 5, 4, 3, 2], initial=[0, 0, 0, 0, 0, 0],
            num_processors=3,
        )
        with pytest.raises(RuntimeError, match="state"):
            ptas_rebalance(
                inst, 6.0, eps=0.5, limits=PTASLimits(max_states=2)
            )

    def test_obvious_split(self):
        inst = make_instance(
            sizes=[5, 5], initial=[0, 0], num_processors=2, costs=[1, 1]
        )
        res = ptas_rebalance(inst, 1.0, eps=0.5)
        assert res.makespan <= 1.5 * 5.0 + 1e-9
        assert res.relocation_cost <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(budgeted_cases())
    def test_budget_always_respected(self, case):
        inst, budget = case
        res = ptas_rebalance(inst, budget, eps=1.0)
        assert res.relocation_cost <= budget + 1e-6 * max(1.0, budget)

    @settings(max_examples=25, deadline=None)
    @given(budgeted_cases())
    def test_theorem4_bound(self, case):
        """Makespan <= (1 + eps) OPT(B)."""
        inst, budget = case
        eps = 1.0
        opt = exact_rebalance(inst, budget=budget).makespan
        res = ptas_rebalance(inst, budget, eps=eps)
        assert res.makespan <= (1.0 + eps) * opt + 1e-9, (
            f"{res.makespan} > {(1 + eps) * opt} on {inst.to_dict()} B={budget}"
        )

    @settings(max_examples=8, deadline=None)
    @given(budgeted_cases())
    def test_tighter_eps_bound(self, case):
        inst, budget = case
        opt = exact_rebalance(inst, budget=budget).makespan
        res = ptas_rebalance(inst, budget, eps=0.5)
        assert res.makespan <= 1.5 * opt + 1e-9

    def test_quality_improves_with_eps_on_average(self):
        """Over a small batch, eps=0.5 is at least as good as eps=2.0."""
        import numpy as np

        from repro.workloads import random_instance

        rng = np.random.default_rng(11)
        coarse_total = fine_total = 0.0
        for _ in range(6):
            inst = random_instance(6, 3, rng, cost_family="random",
                                   integer_sizes=True)
            budget = float(inst.costs.sum()) / 2
            coarse_total += ptas_rebalance(inst, budget, eps=2.0).makespan
            fine_total += ptas_rebalance(inst, budget, eps=0.5).makespan
        assert fine_total <= coarse_total + 1e-9

    def test_meta_fields(self):
        inst = make_instance(
            sizes=[5, 5], initial=[0, 0], num_processors=2, costs=[1, 1]
        )
        res = ptas_rebalance(inst, 1.0, eps=1.0)
        assert res.meta["eps"] == 1.0
        assert res.meta["num_classes"] >= 1
        assert res.meta["guesses_tried"] >= 1
        assert res.planned_cost is not None
        assert res.relocation_cost <= res.planned_cost + 1e-9
