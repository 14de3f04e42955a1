"""Knapsack subroutines for the arbitrary-cost variant (Section 3.2).

The weighted version of PARTITION needs, per processor, the *cheapest*
set of jobs to remove so that the remaining jobs fit under a capacity.
Equivalently (and how the paper phrases it): find the set of jobs to
**keep** with total size at most the capacity and total relocation cost
as **high** as possible; the removal cost is the complementary cost.

This module provides the two solvers the paper calls for:

* :func:`keep_max_cost_exact` — exact dynamic program over discretized
  sizes ("If the maximum relocation cost or the job sizes are
  polynomially bounded, then we can solve the knapsack problems
  exactly");
* :func:`keep_max_cost_fptas` — the classical cost-scaling FPTAS
  ("Otherwise, one can use a PTAS in the place of the knapsack
  routine"), which keeps a set of total size at most the capacity whose
  kept cost is at least ``(1 - eps)`` of the best.

Both return the kept index set, so callers can derive the removal plan.

Both DPs run as vectorized sweeps (:func:`_exact_keep_indices`,
:func:`_fptas_keep_trace`):

* one in-place ``np.add`` / comparison / ``np.maximum`` (or
  ``np.minimum``) sweep per item over the capacity (or scaled-cost)
  axis — no per-item allocations;
* *reach clamping*: item ``i`` can only have changed cells up to
  ``min(cap, sum of the first i weights)``, so early sweeps touch a
  fraction of the axis;
* item filtering: zero-cost items are never kept by a DP whose updates
  are strictly improving, and oversized items never fit, so both are
  dropped before the sweep;
* an all-fits short cut: when every positive-cost item fits, the trace
  provably keeps exactly the positive-cost items, so the DP is skipped
  entirely;
* decision rows are written in place by the comparison ops and read
  back during backtracking.

The traces are bitwise identical to the textbook cell-at-a-time DPs,
which the test suite keeps as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import telemetry

__all__ = [
    "KnapsackSolution",
    "keep_max_cost_exact",
    "keep_max_cost_fptas",
    "keep_max_cost",
    "min_removal_cost",
]


@dataclass(frozen=True)
class KnapsackSolution:
    """A kept-set solution of the keep-max-cost knapsack."""

    keep: tuple[int, ...]  # indices into the input arrays
    kept_cost: float
    kept_size: float

    def removed(self, n: int) -> tuple[int, ...]:
        """Complement of :attr:`keep` within ``range(n)``, ascending."""
        mask = np.ones(n, dtype=bool)
        if self.keep:
            mask[np.asarray(self.keep, dtype=np.intp)] = False
        return tuple(int(i) for i in np.flatnonzero(mask))


def _as_arrays(
    sizes: Sequence[float], costs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(sizes, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if s.shape != c.shape or s.ndim != 1:
        raise ValueError("sizes and costs must be 1-d arrays of equal length")
    if s.size and s.min() <= 0:
        raise ValueError("sizes must be positive")
    if c.size and c.min() < 0:
        raise ValueError("costs must be non-negative")
    return s, c


def _size_grid(
    s: np.ndarray, capacity: float, resolution: int
) -> tuple[np.ndarray, int]:
    """Integer size grid of the exact DP.

    If sizes are small integers, use them directly with the capacity
    floored — exact, because integer sizes fit under a real capacity iff
    they fit under its floor.  Otherwise scale up-rounded onto a grid of
    ``resolution`` units (conservative: never overpacks).  In the scaled
    regime an item's grid size overstates its true size by less than one
    unit ``capacity / resolution``, so the kept set forgoes at most the
    items of a true optimum restricted to total size
    ``capacity * (1 - n / resolution)`` — the discretization error bound
    that the ``resolution`` knob trades against the ``O(n * resolution)``
    run time.
    """
    if np.all(s == np.round(s)) and np.floor(capacity + 1e-9) <= resolution:
        ws = s.astype(np.int64)
        cap = int(np.floor(capacity + 1e-9))
    else:
        unit = capacity / resolution
        ws = np.ceil(s / unit - 1e-12).astype(np.int64)
        cap = resolution
    return np.maximum(ws, 1), cap


def _exact_keep_indices(
    s: np.ndarray, c: np.ndarray, ws: np.ndarray, cap: int
) -> tuple[int, ...]:
    """Kept-index trace of the exact keep-max-cost DP.

    ``ws``/``cap`` are the integer size grid of :func:`_size_grid`; see
    the module docstring for why the filters and the short cut leave
    the trace unchanged.
    """
    active = np.flatnonzero((c > 0) & (ws <= cap))
    if active.size == 0:
        return ()
    aw = ws[active]
    ac = c[active]
    total_w = int(aw.sum())
    if total_w <= cap:
        # Every positive-cost item fits: the DP's argmax lands on the
        # minimal-weight optimum, which is exactly this set.
        telemetry.count("knapsack_cells", active.size)
        return tuple(int(i) for i in active)

    na = active.size
    best = np.zeros(cap + 1)
    take = np.zeros((na, cap + 1), dtype=bool)
    tmp = np.empty(cap + 1)
    reach = 0
    cells = 0
    aw_list = aw.tolist()
    for t in range(na):
        w = aw_list[t]
        reach = min(cap, reach + w)
        hi = reach + 1
        np.add(best[: hi - w], ac[t], out=tmp[w:hi])
        np.greater(tmp[w:hi], best[w:hi], out=take[t, w:hi])
        np.maximum(best[w:hi], tmp[w:hi], out=best[w:hi])
        cells += hi - w
    telemetry.count("knapsack_cells", cells)

    keep: list[int] = []
    v = int(np.argmax(best))
    for t in range(na - 1, -1, -1):
        if take[t, v]:
            keep.append(int(active[t]))
            v -= aw_list[t]
    keep.reverse()
    return tuple(keep)


def keep_max_cost_exact(
    sizes: Sequence[float],
    costs: Sequence[float],
    capacity: float,
    resolution: int = 4096,
) -> KnapsackSolution:
    """Exact (up to size discretization) keep-max-cost knapsack.

    Sizes are scaled onto an integer grid of at most ``resolution``
    units; sizes are rounded **up** so the kept set always truly fits
    under ``capacity``.  When the input sizes are already integers of
    modest magnitude the grid is exact and so is the solution; otherwise
    the rounding forgoes at most the cost of items within one grid unit
    of the boundary (the same conservative direction the paper uses for
    its discretizations) — see :func:`_size_grid` for the bound.

    ``O(n * resolution)`` time and memory.
    """
    s, c = _as_arrays(sizes, costs)
    n = s.size
    if n == 0 or capacity <= 0:
        if n and capacity < 0:
            raise ValueError("capacity must be non-negative")
        return KnapsackSolution(keep=(), kept_cost=0.0, kept_size=0.0)

    ws, cap = _size_grid(s, capacity, resolution)
    keep = list(_exact_keep_indices(s, c, ws, cap))
    kept_cost = float(c[keep].sum()) if keep else 0.0
    kept_size = float(s[keep].sum()) if keep else 0.0
    return KnapsackSolution(keep=tuple(keep), kept_cost=kept_cost, kept_size=kept_size)


def _fptas_keep_trace(
    s: np.ndarray, c: np.ndarray, scaled: np.ndarray, capacity: float
) -> tuple[list[int], float]:
    """DP part of the FPTAS: traced kept indices plus their total size.

    ``scaled`` is the rounded cost grid; zero-scaled items are excluded
    from the DP (the caller reinserts them greedily).  Returns
    ``(keep, total_size)``.
    """
    pos = np.flatnonzero(scaled > 0)
    if pos.size == 0:
        return [], 0.0
    pw = scaled[pos]
    ps = s[pos]
    # All-fits short cut: the only subset whose scaled cost is the full
    # total is the whole positive set, so when its size fits, the trace
    # returns it verbatim.
    tot_size = 0.0
    for x in ps:
        tot_size += float(x)
    if tot_size <= capacity:
        telemetry.count("knapsack_cells", pos.size)
        keep = [int(i) for i in pos]
        return keep, float(s[keep].sum())

    np_ = pos.size
    max_total = int(pw.sum())
    min_size = np.full(max_total + 1, np.inf)
    min_size[0] = 0.0
    take = np.zeros((np_, max_total + 1), dtype=bool)
    tmp = np.empty(max_total + 1)
    reach = 0
    cells = 0
    pw_list = pw.tolist()
    for t in range(np_):
        v = pw_list[t]
        reach = min(max_total, reach + v)
        hi = reach + 1
        np.add(min_size[: hi - v], ps[t], out=tmp[v:hi])
        np.less(tmp[v:hi], min_size[v:hi], out=take[t, v:hi])
        np.minimum(min_size[v:hi], tmp[v:hi], out=min_size[v:hi])
        cells += hi - v
    telemetry.count("knapsack_cells", cells)

    feasible = np.flatnonzero(min_size <= capacity)
    v = int(feasible[-1]) if feasible.size else 0
    keep: list[int] = []
    for t in range(np_ - 1, -1, -1):
        if take[t, v]:
            keep.append(int(pos[t]))
            v -= pw_list[t]
    keep.reverse()
    total = float(s[keep].sum()) if keep else 0.0
    return keep, total


def keep_max_cost_fptas(
    sizes: Sequence[float],
    costs: Sequence[float],
    capacity: float,
    eps: float = 0.1,
) -> KnapsackSolution:
    """FPTAS for keep-max-cost: kept cost >= (1 - eps) * optimum.

    Classical cost scaling: round costs down to multiples of
    ``eps * c_max / n`` and run the exact DP over *cost* (O(n^2/eps)
    states), tracking the minimum size achieving each scaled cost.
    The kept set always fits under ``capacity`` exactly (sizes are not
    rounded), so feasibility is unconditional.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    s, c = _as_arrays(sizes, costs)
    n = s.size
    if n == 0 or capacity <= 0:
        return KnapsackSolution(keep=(), kept_cost=0.0, kept_size=0.0)
    feasible = np.flatnonzero(s <= capacity)
    if feasible.size < n:
        # Items larger than the capacity can never be kept, but their
        # costs would still enter ``c_max`` and inflate the scale step
        # ``mu`` — in the worst case until every keepable item rounds
        # to scaled cost 0, voiding the (1 - eps) guarantee (P_max in
        # the classical analysis ranges over feasible items only).
        sub = keep_max_cost_fptas(s[feasible], c[feasible], capacity, eps=eps)
        keep_t = tuple(sorted(int(feasible[i]) for i in sub.keep))
        return KnapsackSolution(
            keep=keep_t, kept_cost=sub.kept_cost, kept_size=sub.kept_size
        )
    c_max = float(c.max())
    if c_max == 0.0:
        # All-zero costs: keep greedily by size (any feasible set is optimal).
        order = np.argsort(s, kind="stable")
        keep: list[int] = []
        total = 0.0
        for i in order:
            if total + s[i] <= capacity:
                keep.append(int(i))
                total += float(s[i])
        return KnapsackSolution(keep=tuple(sorted(keep)), kept_cost=0.0, kept_size=total)

    mu = eps * c_max / n
    scaled = np.floor(c / mu).astype(np.int64)
    keep, total = _fptas_keep_trace(s, c, scaled, capacity)
    kept = set(keep)
    # Greedily add zero-scaled-cost items that still fit (they can only help).
    zero_items = [int(i) for i in np.flatnonzero(scaled == 0)]
    zero_items.sort(key=lambda i: (s[i], -c[i]))
    for i in zero_items:
        if i not in kept and total + s[i] <= capacity:
            kept.add(i)
            total += float(s[i])
    keep_t = tuple(sorted(kept))
    return KnapsackSolution(
        keep=keep_t,
        kept_cost=float(c[list(keep_t)].sum()) if keep_t else 0.0,
        kept_size=float(s[list(keep_t)].sum()) if keep_t else 0.0,
    )


def keep_max_cost(
    sizes: Sequence[float],
    costs: Sequence[float],
    capacity: float,
    method: str = "auto",
    eps: float = 0.05,
    resolution: int = 4096,
) -> KnapsackSolution:
    """Dispatch between the exact DP and the FPTAS.

    ``"auto"`` uses the exact DP for small inputs and the FPTAS
    otherwise, mirroring the paper's "exact when polynomially bounded,
    PTAS otherwise" guidance.
    """
    if method == "exact":
        return keep_max_cost_exact(sizes, costs, capacity, resolution=resolution)
    if method == "fptas":
        return keep_max_cost_fptas(sizes, costs, capacity, eps=eps)
    if method == "auto":
        n = len(sizes)
        if n <= 64:
            return keep_max_cost_exact(sizes, costs, capacity, resolution=resolution)
        return keep_max_cost_fptas(sizes, costs, capacity, eps=eps)
    raise ValueError(f"unknown method {method!r}")


def min_removal_cost(
    sizes: Sequence[float],
    costs: Sequence[float],
    capacity: float,
    **kwargs,
) -> tuple[float, tuple[int, ...]]:
    """Minimum cost of a removal set whose complement fits ``capacity``.

    Returns ``(removal_cost, removed_indices)``; the paper's ``a_i`` and
    ``b_i`` for the weighted problem are instances of this.
    """
    sol = keep_max_cost(sizes, costs, capacity, **kwargs)
    total = float(np.asarray(costs, dtype=np.float64).sum())
    removed = sol.removed(len(sizes))
    return total - sol.kept_cost, removed
