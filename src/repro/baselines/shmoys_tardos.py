"""Shmoys–Tardos LP rounding for generalized assignment (GAP).

Section 2 of the paper reduces load rebalancing to GAP: assigning job
``i`` to its home machine costs 0, to any other machine costs ``c_i``,
and the goal is minimum makespan within a cost budget.  "By the results
of Shmoys and Tardos [14], we obtain a 2-approximation algorithm for
load rebalancing."  This module implements that pipeline — the known
baseline the paper's 1.5-approximation and PTAS improve on:

1. **Binary search** over the target makespan ``T``.
2. **LP** (scipy/HiGHS): fractional assignment ``x[i, j] >= 0`` with
   ``sum_j x[i, j] = 1``, machine loads at most ``T``, ``x[i, j] = 0``
   whenever ``s_i > T``, minimizing total relocation cost.  ``T`` is
   feasible when the LP optimum is within the budget.
3. **Slot rounding** [Shmoys & Tardos 1993]: machine ``j`` gets
   ``ceil(sum_i x[i, j])`` slots; its fractional jobs, sorted by
   non-increasing size, are poured into the slots one unit at a time.
   The resulting bipartite job/slot graph carries a fractional perfect
   matching of cost equal to the LP optimum, so an integral min-cost
   perfect matching (computed via ``networkx`` min-cost flow, which is
   integral on integral capacities) costs no more.  Each machine's
   slots then hold at most one job each, giving makespan at most
   ``T + max_i s_i <= 2 T``.

The end-to-end guarantee: relocation cost at most ``B`` and makespan at
most ``2 * (1 + tol)`` times the optimal makespan within budget.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from scipy.optimize import linprog

from .. import telemetry
from ..core.assignment import Assignment
from ..core.instance import Instance
from ..core.result import RebalanceResult

__all__ = ["shmoys_tardos_rebalance", "solve_fractional_lp", "round_fractional"]

_COST_SCALE = 10**6  # networkx min-cost flow wants integer weights


def solve_fractional_lp(
    instance: Instance,
    target: float,
    allowed: tuple[frozenset[int], ...] | None = None,
) -> tuple[float, np.ndarray] | None:
    """Minimum-cost fractional assignment with loads at most ``target``.

    Returns ``(cost, x)`` with ``x`` of shape ``(n, m)``, or ``None``
    when no fractional assignment fits (some job exceeds ``target`` on
    every machine, or the loads cannot fit).

    ``allowed`` restricts each job to a machine subset (the Constrained
    Load Rebalancing model of Corollary 1); forbidden pairs are priced
    out of the LP entirely.
    """
    n = instance.num_jobs
    m = instance.num_processors
    if n == 0:
        return 0.0, np.zeros((0, m))
    if instance.max_size > target + 1e-12:
        return None

    _FORBIDDEN = 1e9
    nv = n * m
    c = np.empty(nv)
    for i in range(n):
        h = int(instance.initial[i])
        for j in range(m):
            if allowed is not None and j not in allowed[i]:
                c[i * m + j] = _FORBIDDEN
            else:
                c[i * m + j] = 0.0 if j == h else float(instance.costs[i])

    a_eq = np.zeros((n, nv))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    b_eq = np.ones(n)

    a_ub = np.zeros((m, nv))
    for j in range(m):
        for i in range(n):
            a_ub[j, i * m + j] = instance.sizes[i]
    b_ub = np.full(m, target)

    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0.0, 1.0), method="highs",
    )
    if not res.success:
        return None
    return float(res.fun), res.x.reshape(n, m)


def round_fractional(instance: Instance, x: np.ndarray) -> np.ndarray:
    """Shmoys–Tardos slot rounding of a fractional assignment.

    Returns an integral job-to-machine mapping whose total relocation
    cost does not exceed the fractional cost (up to the integer weight
    scaling) and whose per-machine load exceeds the fractional load by
    less than one job.
    """
    n, m = x.shape
    graph = nx.DiGraph()
    graph.add_node("src")
    graph.add_node("sink")
    for i in range(n):
        graph.add_edge("src", ("job", i), capacity=1, weight=0)

    for j in range(m):
        jobs = [i for i in range(n) if x[i, j] > 1e-9]
        jobs.sort(key=lambda i: (-instance.sizes[i], i))
        slot = 0
        cap = 1.0
        slots_used = set()
        for i in jobs:
            frac = float(x[i, j])
            while frac > 1e-9:
                take = min(frac, cap)
                home = int(instance.initial[i])
                move_cost = 0.0 if j == home else float(instance.costs[i])
                graph.add_edge(
                    ("job", i),
                    ("slot", j, slot),
                    capacity=1,
                    weight=int(round(move_cost * _COST_SCALE)),
                )
                slots_used.add(slot)
                frac -= take
                cap -= take
                if cap <= 1e-9:
                    slot += 1
                    cap = 1.0
        for s in slots_used:
            graph.add_edge(("slot", j, s), "sink", capacity=1, weight=0)

    graph.nodes["src"]["demand"] = -n
    graph.nodes["sink"]["demand"] = n
    flow = nx.min_cost_flow(graph)

    mapping = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        for node, amount in flow[("job", i)].items():
            if amount >= 1:
                mapping[i] = node[1]
                break
    assert (mapping >= 0).all(), "rounding failed to place every job"
    return mapping


def shmoys_tardos_rebalance(
    instance: Instance,
    budget: float | None = None,
    k: int | None = None,
    tol: float = 1e-3,
    max_iterations: int = 60,
    allowed: tuple[frozenset[int], ...] | None = None,
    **_: object,
) -> RebalanceResult:
    """The full 2-approximation pipeline under a relocation budget.

    ``k`` on a unit-cost instance is interpreted as ``budget = k``
    (their optima coincide for the LP's cost objective).  Note the
    *integral* solution may then move up to ``k`` jobs' worth of cost
    but never more.

    With ``allowed`` this becomes the 2-approximation for Constrained
    Load Rebalancing the paper cites as the best known upper bound
    (Corollary 1 shows nothing below 1.5 is possible).
    """
    if budget is None:
        if k is None:
            raise ValueError("need a budget (or k on a unit-cost instance)")
        budget = float(k)
    lo = max(instance.average_load, instance.max_size)
    hi = instance.initial_makespan
    if hi <= lo:
        lo = hi  # already as balanced as structurally possible

    # Identity check: the initial assignment always costs 0.
    best_t = hi
    best_lp = (0.0, None)

    tmark = telemetry.mark()
    iterations = 0
    lp_solves = 0
    while hi - lo > tol * max(1.0, lo) and iterations < max_iterations:
        iterations += 1
        mid = 0.5 * (lo + hi)
        with telemetry.span("shmoys_tardos.lp"):
            solved = solve_fractional_lp(instance, mid, allowed=allowed)
        lp_solves += 1
        if solved is not None and solved[0] <= budget + 1e-7 * max(1.0, budget):
            best_t = mid
            best_lp = solved
            hi = mid
        else:
            lo = mid

    if best_lp[1] is None:
        with telemetry.span("shmoys_tardos.lp"):
            solved = solve_fractional_lp(instance, best_t, allowed=allowed)
        lp_solves += 1
        assert solved is not None and solved[0] <= budget + 1e-6 * max(1.0, budget)
        best_lp = solved
    telemetry.count("lp_solves", lp_solves)
    lp_cost, x = best_lp
    with telemetry.span("shmoys_tardos.round"):
        mapping = round_fractional(instance, x)
    assignment = Assignment(instance=instance, mapping=mapping)
    assignment.validate(budget=budget * (1.0 + 1e-6) + 1e-9)
    return RebalanceResult(
        assignment=assignment,
        algorithm="shmoys-tardos",
        guessed_opt=best_t,
        planned_cost=lp_cost,
        meta=telemetry.attach(
            {"lp_cost": lp_cost, "iterations": iterations}, tmark
        ),
    )
