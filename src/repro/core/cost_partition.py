"""PARTITION for arbitrary relocation costs (Section 3.2).

The weighted problem replaces the move count ``k`` with a relocation
budget ``B``: moving job ``i`` costs ``c_i`` and the total cost of moved
jobs must not exceed ``B``.

The paper adapts PARTITION by merging Steps 1 and 2 into per-processor
knapsack computations (with the guess ``A`` for the target makespan):

* ``a_i`` — the minimum *cost* to remove all large jobs but the most
  costly one, plus a set of small jobs so the remaining small load is at
  most ``A/2``.  The small-job part is a keep-max-cost knapsack with
  capacity ``A/2``.
* ``b_i`` — the minimum cost to remove jobs so that the remaining total
  load is at most ``A``; a keep-max-cost knapsack over *all* the
  processor's jobs with capacity ``A`` (which automatically keeps at
  most one large job, since two would overflow).
* ``c_i = a_i - b_i``; select the ``L_T`` processors of smallest
  ``c_i`` (ties prefer processors holding large jobs) for the ``a_i``
  treatment, give the rest the ``b_i`` treatment, route displaced large
  jobs to large-free selected processors, then reinsert small jobs
  greedily.

The guess ``A`` is searched over an ascending geometric
``(1 + alpha)`` grid (the paper's binary search with multiplicative
error ``alpha``); the first guess whose planned removal cost fits ``B``
is constructed.  With exact knapsacks this yields makespan at most
``1.5 * (1 + alpha) * OPT`` at cost at most ``B``; with the FPTAS
knapsack the cost guarantee is unchanged (our FPTAS never violates the
capacity) and the quality degrades by the knapsack's ``eps`` only
through possibly stopping one grid step later.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from .assignment import Assignment
from .instance import Instance
from .knapsack import keep_max_cost
from .result import RebalanceResult

__all__ = ["cost_partition_rebalance", "CostGuessPlan"]


@dataclass(frozen=True)
class _ProcPlan:
    """Per-processor removal plans at one guess."""

    a_cost: float
    b_cost: float
    a_removed: tuple[int, ...]  # job indices removed under the a-plan
    b_removed: tuple[int, ...]  # job indices removed under the b-plan
    has_large: bool
    b_keeps_large: bool


@dataclass(frozen=True)
class CostGuessPlan:
    """Evaluation of one makespan guess for the weighted problem."""

    guess: float
    feasible: bool
    total_large: int
    planned_cost: float
    selected: np.ndarray
    plans: tuple[_ProcPlan, ...]  # one per processor; empty if infeasible


def _plan_a(
    instance: Instance,
    jobs: np.ndarray,
    guess: float,
    knapsack_method: str,
    knapsack_eps: float,
    knapsack_resolution: int,
) -> tuple[float, tuple[int, ...]]:
    """The a-plan: drop all large jobs except the most costly; knapsack
    the smalls under capacity A/2."""
    sizes = instance.sizes[jobs]
    large_mask = sizes > guess / 2.0
    large_idx = jobs[large_mask]
    small_idx = jobs[~large_mask]
    small_sizes = sizes[~large_mask]
    small_costs = instance.costs[jobs][~large_mask]

    a_removed: list[int] = []
    a_cost = 0.0
    if large_idx.size:
        large_costs = instance.costs[large_idx]
        keep_pos = int(np.lexsort((large_idx, -large_costs))[0])
        for pos, j in enumerate(large_idx):
            if pos != keep_pos:
                a_removed.append(int(j))
                a_cost += float(instance.costs[j])
    small_sol = keep_max_cost(
        small_sizes, small_costs, guess / 2.0, method=knapsack_method,
        eps=knapsack_eps, resolution=knapsack_resolution,
    )
    kept = set(small_sol.keep)
    for pos, j in enumerate(small_idx):
        if pos not in kept:
            a_removed.append(int(j))
            a_cost += float(small_costs[pos])
    return a_cost, tuple(a_removed)


def _plan_b(
    instance: Instance,
    jobs: np.ndarray,
    guess: float,
    knapsack_method: str,
    knapsack_eps: float,
    knapsack_resolution: int,
) -> tuple[float, tuple[int, ...], bool, bool]:
    """The b-plan: knapsack over all jobs under capacity A.  Returns
    ``(b_cost, b_removed, has_large, b_keeps_large)``."""
    sizes = instance.sizes[jobs]
    costs = instance.costs[jobs]
    large_mask = sizes > guess / 2.0
    all_sol = keep_max_cost(
        sizes, costs, guess, method=knapsack_method, eps=knapsack_eps,
        resolution=knapsack_resolution,
    )
    kept_all = set(all_sol.keep)
    b_removed: list[int] = []
    b_cost = 0.0
    b_keeps_large = False
    for pos, j in enumerate(jobs):
        if pos in kept_all:
            if large_mask[pos]:
                b_keeps_large = True
        else:
            b_removed.append(int(j))
            b_cost += float(costs[pos])
    return b_cost, tuple(b_removed), bool(large_mask.any()), b_keeps_large


def _plan_processor(
    instance: Instance,
    jobs: np.ndarray,
    guess: float,
    knapsack_method: str,
    knapsack_eps: float,
    knapsack_resolution: int,
) -> _ProcPlan:
    a_cost, a_removed = _plan_a(
        instance, jobs, guess, knapsack_method, knapsack_eps,
        knapsack_resolution,
    )
    b_cost, b_removed, has_large, b_keeps_large = _plan_b(
        instance, jobs, guess, knapsack_method, knapsack_eps,
        knapsack_resolution,
    )
    return _ProcPlan(
        a_cost=a_cost,
        b_cost=b_cost,
        a_removed=a_removed,
        b_removed=b_removed,
        has_large=has_large,
        b_keeps_large=b_keeps_large,
    )


def _select_and_price(
    plans: tuple[_ProcPlan, ...], m: int, total_large: int
) -> tuple[np.ndarray, float]:
    """Step-3 selection and the total planned removal cost."""
    c = np.array([pl.a_cost - pl.b_cost for pl in plans])
    has_large = np.array([pl.has_large for pl in plans])
    order = np.lexsort((np.arange(m), ~has_large, c))
    selected = np.sort(order[:total_large])
    sel_mask = np.zeros(m, dtype=bool)
    sel_mask[selected] = True
    planned = float(
        sum(plans[p].a_cost for p in range(m) if sel_mask[p])
        + sum(plans[p].b_cost for p in range(m) if not sel_mask[p])
    )
    return selected, planned


def evaluate_cost_guess(
    instance: Instance,
    guess: float,
    knapsack_method: str = "auto",
    knapsack_eps: float = 0.05,
    knapsack_resolution: int = 4096,
) -> CostGuessPlan:
    """Compute the per-processor plans, the Step-3 selection and the
    total planned removal cost for one makespan guess.

    Knapsack work that cannot influence the decision is skipped: an
    infeasible guess (more large jobs than processors) is rejected
    before any per-processor planning, with no plans, and a guess with
    no large jobs at all (common near acceptance: every guess above
    twice the maximum job size) computes only the b-plans — the Step-3
    selection is provably empty there, so the a-plans are never read.
    """
    m = instance.num_processors
    total_large = int((instance.sizes > guess / 2.0).sum())
    if total_large > m:
        return CostGuessPlan(
            guess=guess,
            feasible=False,
            total_large=total_large,
            planned_cost=float("inf"),
            selected=np.empty(0, dtype=np.int64),
            plans=(),
        )
    if total_large == 0:
        plans = []
        for p in range(m):
            b_cost, b_removed, has_large, b_keeps_large = _plan_b(
                instance, instance.jobs_on(p), guess, knapsack_method,
                knapsack_eps, knapsack_resolution,
            )
            plans.append(
                _ProcPlan(
                    a_cost=0.0,
                    b_cost=b_cost,
                    a_removed=(),
                    b_removed=b_removed,
                    has_large=has_large,
                    b_keeps_large=b_keeps_large,
                )
            )
        planned = float(sum(pl.b_cost for pl in plans))
        return CostGuessPlan(
            guess=guess,
            feasible=True,
            total_large=0,
            planned_cost=planned,
            selected=np.empty(0, dtype=np.int64),
            plans=tuple(plans),
        )
    plans = tuple(
        _plan_processor(
            instance, instance.jobs_on(p), guess, knapsack_method,
            knapsack_eps, knapsack_resolution,
        )
        for p in range(m)
    )
    selected, planned = _select_and_price(plans, m, total_large)
    return CostGuessPlan(
        guess=guess,
        feasible=True,
        total_large=total_large,
        planned_cost=planned,
        selected=selected,
        plans=plans,
    )


def _construct(instance: Instance, plan: CostGuessPlan) -> Assignment:
    m = instance.num_processors
    guess = plan.guess
    mapping = np.array(instance.initial, dtype=np.int64)
    loads = np.array(instance.initial_loads, dtype=np.float64)
    sel_mask = np.zeros(m, dtype=bool)
    sel_mask[plan.selected] = True

    floating_large: list[int] = []
    pool_small: list[int] = []
    selected_large_free: list[int] = []

    for p in range(m):
        pl = plan.plans[p]
        removed = pl.a_removed if sel_mask[p] else pl.b_removed
        for j in removed:
            loads[p] -= instance.sizes[j]
            if instance.sizes[j] > guess / 2.0:
                floating_large.append(j)
            else:
                pool_small.append(j)
        if sel_mask[p] and not pl.has_large:
            selected_large_free.append(p)

    # Route displaced large jobs to distinct large-free selected
    # processors.  The counting identity of Section 3 guarantees enough
    # slots; unselected processors whose b-plan keeps a large job only
    # free up slots.
    if len(floating_large) > len(selected_large_free):
        raise AssertionError(
            f"{len(floating_large)} floating large jobs but only "
            f"{len(selected_large_free)} large-free selected processors"
        )
    floating_large.sort(key=lambda j: (-instance.sizes[j], j))
    for j, p in zip(floating_large, selected_large_free):
        mapping[j] = p
        loads[p] += instance.sizes[j]

    # Greedy min-load reinsertion of small jobs (Step 6), largest first.
    # Versioned heap entries: staleness never rests on float identity.
    pool_small.sort(key=lambda j: (-instance.sizes[j], j))
    version = [0] * m
    heap = [(float(loads[p]), 0, p) for p in range(m)]
    heapq.heapify(heap)
    heap_pops = 0
    for j in pool_small:
        _, ver, p = heapq.heappop(heap)
        heap_pops += 1
        while ver != version[p]:
            _, ver, p = heapq.heappop(heap)  # stale entry
            heap_pops += 1
        mapping[j] = p
        loads[p] += instance.sizes[j]
        version[p] += 1
        heapq.heappush(heap, (float(loads[p]), version[p], p))
    telemetry.count("heap_pops", heap_pops)

    return Assignment(instance=instance, mapping=mapping)


def cost_partition_rebalance(
    instance: Instance,
    budget: float,
    alpha: float = 0.05,
    knapsack_method: str = "auto",
    knapsack_eps: float = 0.05,
    knapsack_resolution: int = 4096,
) -> RebalanceResult:
    """The Section-3.2 algorithm: 1.5-style approximation under a
    relocation-cost budget.

    Scans makespan guesses on a geometric ``(1 + alpha)`` grid from the
    structural lower bound up to twice the initial makespan (where the
    identity plan costs zero, so termination is guaranteed) and returns
    the construction at the first affordable guess.

    ``knapsack_resolution`` is forwarded to the exact knapsack's size
    grid (:func:`repro.core.knapsack.keep_max_cost_exact`).  When job
    sizes are not small integers, each of a processor's ``n`` kept jobs
    is charged up to one grid unit ``capacity / resolution`` of phantom
    size, so a kept set is only guaranteed to out-cost true optima that
    fit in ``capacity * (1 - n / resolution)`` — i.e. the per-knapsack
    relative size-discretization error is at most ``n / resolution``
    (≈ 1.6% for a 64-job processor at the default 4096).  Raising the
    resolution tightens the plans at ``O(n * resolution)`` cost per
    knapsack; it never affects instances with integer sizes within the
    grid, which are solved exactly at any resolution.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if instance.num_jobs == 0:
        return RebalanceResult(
            assignment=Assignment.initial(instance),
            algorithm="cost-partition",
            guessed_opt=0.0,
            planned_cost=0.0,
        )
    lb = max(instance.average_load, instance.max_size)
    ub = 2.0 * max(instance.initial_makespan, lb)
    guesses = []
    t = lb
    while t < ub:
        guesses.append(t)
        t *= 1.0 + alpha
    guesses.append(ub)

    tmark = telemetry.mark()
    tol = 1e-9 * max(1.0, budget)
    tried = 0
    for guess in guesses:
        tried += 1
        with telemetry.span("cost_partition.plan"):
            plan = evaluate_cost_guess(
                instance, guess, knapsack_method, knapsack_eps,
                knapsack_resolution,
            )
        if not plan.feasible or plan.planned_cost > budget + tol:
            continue
        telemetry.count("guesses_tried", tried)
        with telemetry.span("cost_partition.construct"):
            assignment = _construct(instance, plan)
        assignment.validate(budget=budget)
        return RebalanceResult(
            assignment=assignment,
            algorithm="cost-partition",
            guessed_opt=guess,
            planned_cost=plan.planned_cost,
            meta=telemetry.attach(
                {
                    "L_T": plan.total_large,
                    "alpha": alpha,
                    "guesses_tried": tried,
                    "knapsack_method": knapsack_method,
                    "knapsack_resolution": knapsack_resolution,
                },
                tmark,
            ),
        )
    raise RuntimeError(
        "no affordable guess found; unreachable because the top guess "
        "plans zero removals"
    )  # pragma: no cover
