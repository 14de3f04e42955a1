"""Tests for the keep-max-cost knapsack solvers (Section 3.2)."""

import itertools
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    keep_max_cost,
    keep_max_cost_exact,
    keep_max_cost_fptas,
    min_removal_cost,
)

from .test_kernels import reference_knapsacks


def brute_force_best(sizes, costs, capacity):
    """Max kept cost over all feasible subsets."""
    n = len(sizes)
    best = 0.0
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            if sum(sizes[i] for i in subset) <= capacity + 1e-12:
                best = max(best, sum(costs[i] for i in subset))
    return best


small_knapsacks = st.tuples(
    st.lists(st.integers(min_value=1, max_value=15), min_size=0, max_size=8),
    st.integers(min_value=0, max_value=40),
).flatmap(
    lambda sc: st.tuples(
        st.just(sc[0]),
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=len(sc[0]), max_size=len(sc[0]),
        ),
        st.just(sc[1]),
    )
)


class TestExact:
    def test_trivial_all_fit(self):
        sol = keep_max_cost_exact([1, 2], [5, 5], 10)
        assert set(sol.keep) == {0, 1}
        assert sol.kept_cost == 10.0

    def test_must_choose(self):
        sol = keep_max_cost_exact([3, 3], [1, 9], 3)
        assert sol.keep == (1,)
        assert sol.kept_cost == 9.0

    def test_empty(self):
        sol = keep_max_cost_exact([], [], 5)
        assert sol.keep == ()

    def test_zero_capacity(self):
        sol = keep_max_cost_exact([1], [7], 0)
        assert sol.keep == ()

    def test_removed_complement(self):
        sol = keep_max_cost_exact([3, 3, 3], [1, 9, 2], 6)
        assert set(sol.keep) | set(sol.removed(3)) == {0, 1, 2}
        assert not set(sol.keep) & set(sol.removed(3))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            keep_max_cost_exact([0], [1], 5)
        with pytest.raises(ValueError):
            keep_max_cost_exact([1], [-1], 5)
        with pytest.raises(ValueError):
            keep_max_cost_exact([1, 2], [1], 5)

    @settings(max_examples=80, deadline=None)
    @given(small_knapsacks)
    def test_matches_brute_force(self, case):
        sizes, costs, capacity = case
        sol = keep_max_cost_exact(sizes, costs, capacity)
        assert sol.kept_size <= capacity + 1e-9
        assert sol.kept_cost == pytest.approx(
            brute_force_best(sizes, costs, capacity)
        )

    def test_fractional_sizes_round_up_safely(self):
        # 2.5 + 2.5 = 5.0 fits exactly; grid rounding must not overpack.
        sol = keep_max_cost_exact([2.5, 2.5, 2.5], [1, 1, 1], 5.0)
        assert sol.kept_size <= 5.0 + 1e-9
        assert len(sol.keep) <= 2


class TestFPTAS:
    @settings(max_examples=60, deadline=None)
    @given(small_knapsacks)
    def test_feasible_and_near_optimal(self, case):
        sizes, costs, capacity = case
        opt = brute_force_best(sizes, costs, capacity)
        for eps in (0.5, 0.1):
            sol = keep_max_cost_fptas(sizes, costs, capacity, eps=eps)
            assert sol.kept_size <= capacity + 1e-9
            assert sol.kept_cost >= (1.0 - eps) * opt - 1e-9

    def test_oversized_item_does_not_inflate_scale_step(self):
        # Regression: the size-3 item can never fit under capacity 2,
        # but its cost 7 used to enter c_max and widen the rounding
        # step until both keepable items scaled to cost 0 — returning
        # kept_cost 0 against an optimum of 1.
        for traces in (nullcontext, reference_knapsacks):
            with traces():
                sol = keep_max_cost_fptas([3, 2, 1], [7, 1, 0], 2, eps=0.5)
            assert sol.kept_size <= 2.0
            assert sol.kept_cost >= 0.5 * 1 - 1e-9

    def test_all_zero_costs_keeps_feasible(self):
        sol = keep_max_cost_fptas([2, 3], [0, 0], 4)
        assert sol.kept_size <= 4.0
        assert sol.kept_cost == 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            keep_max_cost_fptas([1], [1], 2, eps=0.0)
        with pytest.raises(ValueError):
            keep_max_cost_fptas([1], [1], 2, eps=1.0)


class TestDispatch:
    def test_auto_small_uses_exact(self):
        sol = keep_max_cost([3, 3], [1, 9], 3, method="auto")
        assert sol.kept_cost == 9.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            keep_max_cost([1], [1], 2, method="magic")

    def test_min_removal_cost_complement(self):
        cost, removed = min_removal_cost([3, 3], [1, 9], 3, method="exact")
        assert cost == pytest.approx(1.0)
        assert removed == (0,)

    @settings(max_examples=40, deadline=None)
    @given(small_knapsacks)
    def test_removal_plus_kept_is_total(self, case):
        sizes, costs, capacity = case
        cost, removed = min_removal_cost(sizes, costs, capacity, method="exact")
        assert cost + brute_force_best(sizes, costs, capacity) == pytest.approx(
            float(sum(costs))
        )
