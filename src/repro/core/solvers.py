"""Unified solver dispatch.

``rebalance(instance, ...)`` lets harness code, examples and the web
simulator select any algorithm in the library by name, with the budget
conventions normalized:

* move-count budget ``k`` (unit-cost problem), or
* relocation-cost budget ``budget`` (weighted problem).

Algorithms that only understand one budget type get the obvious
translation (a unit-cost instance with budget ``B`` is a move budget of
``floor(B)``).
"""

from __future__ import annotations

import math
from typing import Callable

from .cost_partition import cost_partition_rebalance
from .exact import exact_rebalance
from .greedy import greedy_rebalance
from .instance import Instance
from .partition import m_partition_rebalance
from .ptas import ptas_rebalance
from .result import RebalanceResult
from .unit_jobs import unit_rebalance_exact

__all__ = ["rebalance", "available_algorithms", "register_algorithm"]

_REGISTRY: dict[str, Callable[..., RebalanceResult]] = {}


def register_algorithm(name: str, fn: Callable[..., RebalanceResult]) -> None:
    """Register a solver under ``name`` for :func:`rebalance` dispatch.

    The callable must accept ``(instance, k=..., budget=..., **kwargs)``
    and return a :class:`~repro.core.result.RebalanceResult`; baseline
    packages use this hook so ``rebalance`` covers them too.
    """
    if name in _REGISTRY:
        raise ValueError(f"algorithm {name!r} already registered")
    _REGISTRY[name] = fn


def available_algorithms() -> tuple[str, ...]:
    """Names accepted by :func:`rebalance`, sorted."""
    return tuple(sorted(set(_REGISTRY) | {"greedy", "m-partition", "cost-partition",
                                          "ptas", "exact", "unit-exact"}))


def _normalize_budgets(
    instance: Instance, k: int | None, budget: float | None
) -> tuple[int | None, float | None]:
    if k is None and budget is None:
        raise ValueError("one of k (move budget) or budget (cost budget) is required")
    if k is not None and k < 0:
        raise ValueError("k must be non-negative")
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    return k, budget


def rebalance(
    instance: Instance,
    algorithm: str = "m-partition",
    k: int | None = None,
    budget: float | None = None,
    **kwargs,
) -> RebalanceResult:
    """Run ``algorithm`` on ``instance`` under the given budget.

    Built-in algorithm names: ``"greedy"``, ``"m-partition"``,
    ``"cost-partition"``, ``"ptas"``, ``"exact"``, ``"unit-exact"``;
    baseline packages register more (see :func:`register_algorithm` and
    :mod:`repro.baselines`).
    """
    k, budget = _normalize_budgets(instance, k, budget)

    if algorithm == "greedy":
        if k is None:
            if not instance.is_unit_cost:
                raise ValueError("greedy needs a move budget k (unit-cost problem)")
            k = int(math.floor(budget))  # type: ignore[arg-type]
        return greedy_rebalance(instance, k, **kwargs)

    if algorithm == "m-partition":
        if k is None:
            if not instance.is_unit_cost:
                raise ValueError(
                    "m-partition needs a move budget k; use cost-partition "
                    "or ptas for weighted costs"
                )
            k = int(math.floor(budget))  # type: ignore[arg-type]
        return m_partition_rebalance(instance, k, **kwargs)

    if algorithm == "cost-partition":
        if budget is None:
            budget = float(k)  # unit-cost: cost budget == move budget
        return cost_partition_rebalance(instance, budget, **kwargs)

    if algorithm == "ptas":
        if budget is None:
            budget = float(k)
        return ptas_rebalance(instance, budget, **kwargs)

    if algorithm == "exact":
        return exact_rebalance(instance, k=k, budget=budget, **kwargs)

    if algorithm == "unit-exact":
        if k is None:
            k = int(budget)  # type: ignore[arg-type]
        return unit_rebalance_exact(instance, k, **kwargs)

    if algorithm in _REGISTRY:
        return _REGISTRY[algorithm](instance, k=k, budget=budget, **kwargs)

    raise ValueError(
        f"unknown algorithm {algorithm!r}; available: {available_algorithms()}"
    )
