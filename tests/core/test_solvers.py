"""Tests for the unified dispatch layer."""

import pytest

import repro.baselines  # noqa: F401  (registers baseline algorithms)
from repro.core import (
    available_algorithms,
    make_instance,
    rebalance,
    register_algorithm,
)


@pytest.fixture
def inst():
    return make_instance(
        sizes=[7, 3, 3, 3], initial=[0, 0, 0, 1], num_processors=2
    )


class TestDispatch:
    def test_requires_some_budget(self, inst):
        with pytest.raises(ValueError, match="k .*or budget"):
            rebalance(inst, algorithm="greedy")

    def test_rejects_negative_budgets(self, inst):
        with pytest.raises(ValueError):
            rebalance(inst, algorithm="greedy", k=-1)
        with pytest.raises(ValueError):
            rebalance(inst, algorithm="ptas", budget=-1.0)

    def test_unknown_algorithm(self, inst):
        with pytest.raises(ValueError, match="unknown algorithm"):
            rebalance(inst, algorithm="sorcery", k=1)

    @pytest.mark.parametrize(
        "name", ["greedy", "m-partition", "cost-partition", "ptas", "exact"]
    )
    def test_builtins_run(self, inst, name):
        res = rebalance(inst, algorithm=name, k=2)
        assert res.makespan <= inst.initial_makespan + 1e-9
        res.assignment.validate()

    @pytest.mark.parametrize(
        "name", ["lpt-full", "shmoys-tardos", "hill-climb", "random", "diffusion"]
    )
    def test_baselines_run(self, inst, name):
        res = rebalance(inst, algorithm=name, k=2)
        res.assignment.validate()

    def test_unit_cost_budget_translation(self, inst):
        """A cost budget on a unit-cost instance becomes a move budget."""
        res = rebalance(inst, algorithm="greedy", budget=2.0)
        assert res.num_moves <= 2

    def test_weighted_needs_cost_algorithms(self):
        weighted = make_instance(
            sizes=[5, 5], initial=[0, 0], num_processors=2, costs=[2, 3]
        )
        with pytest.raises(ValueError, match="move budget"):
            rebalance(weighted, algorithm="greedy", budget=2.0)

    def test_registry_rejects_duplicates(self):
        def dummy(instance, k=None, budget=None, **kw):
            raise NotImplementedError

        register_algorithm("test-dummy-unique", dummy)
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("test-dummy-unique", dummy)

    def test_available_lists_builtins_and_baselines(self):
        names = available_algorithms()
        assert "greedy" in names and "m-partition" in names
        assert "shmoys-tardos" in names and "unit-exact" in names
