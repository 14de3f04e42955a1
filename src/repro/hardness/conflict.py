"""Conflict Scheduling (Section 5, Theorem 7).

The Conflict Scheduling problem adds pairwise conflicts: specified
pairs of jobs may not share a processor.  Theorem 7: no polynomial
algorithm approximates its makespan within *any* ratio unless P = NP —
because deciding whether any conflict-respecting assignment exists at
all already encodes 3-dimensional matching.

This module models conflict instances, decides feasibility (and
minimizes makespan) exactly for small instances, and builds Theorem 7's
gadget:

* one machine per triple; one *triple job* per triple, all pairwise
  conflicting (forcing exactly one per machine);
* one *element job* per element of ``A ∪ B ∪ C``; element ``u``
  conflicts with triple job ``i`` unless ``u ∈ T_i``;
* ``m - n`` *dummy jobs*, pairwise conflicting and conflicting with
  every element job.

A feasible assignment exists iff the 3DM instance has a perfect
matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .three_dim_matching import ThreeDMInstance

__all__ = [
    "ConflictInstance",
    "feasible_conflict_assignment",
    "exact_conflict_makespan",
    "conflict_gadget_from_3dm",
]


@dataclass(frozen=True)
class ConflictInstance:
    """Jobs with sizes, a machine count and a conflict relation."""

    sizes: np.ndarray
    num_machines: int
    conflicts: frozenset[tuple[int, int]]  # normalized (lo, hi) pairs

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=np.float64).copy()
        sizes.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        norm = set()
        n = sizes.shape[0]
        for a, b in self.conflicts:
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"bad conflict pair ({a}, {b})")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "conflicts", frozenset(norm))

    @property
    def num_jobs(self) -> int:
        return int(self.sizes.shape[0])

    def conflict_sets(self) -> list[set[int]]:
        """Adjacency representation of the conflict graph."""
        adj: list[set[int]] = [set() for _ in range(self.num_jobs)]
        for a, b in self.conflicts:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def _search(
    cinst: ConflictInstance,
    makespan_cap: float | None,
    node_limit: int,
) -> np.ndarray | None:
    """Backtracking assignment respecting conflicts (and an optional
    load cap); jobs in decreasing conflict degree then size."""
    n, m = cinst.num_jobs, cinst.num_machines
    adj = cinst.conflict_sets()
    order = sorted(
        range(n), key=lambda j: (-len(adj[j]), -cinst.sizes[j], j)
    )
    machine_jobs: list[set[int]] = [set() for _ in range(m)]
    loads = [0.0] * m
    mapping = np.full(n, -1, dtype=np.int64)
    nodes = 0

    def dfs(pos: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError("conflict search exceeded node limit")
        if pos == n:
            return True
        j = order[pos]
        seen_loads: set[float] = set()
        for p in sorted(range(m), key=lambda q: loads[q]):
            if adj[j] & machine_jobs[p]:
                continue
            if makespan_cap is not None and loads[p] + cinst.sizes[j] > makespan_cap + 1e-9:
                continue
            # Symmetry pruning: empty machines are interchangeable.
            if not machine_jobs[p]:
                if 0.0 in seen_loads:
                    continue
                seen_loads.add(0.0)
            machine_jobs[p].add(j)
            loads[p] += cinst.sizes[j]
            mapping[j] = p
            if dfs(pos + 1):
                return True
            machine_jobs[p].remove(j)
            loads[p] -= cinst.sizes[j]
            mapping[j] = -1
        return False

    return mapping.copy() if dfs(0) else None


def feasible_conflict_assignment(
    cinst: ConflictInstance, node_limit: int = 5_000_000
) -> np.ndarray | None:
    """A conflict-respecting assignment, or ``None`` if none exists."""
    return _search(cinst, makespan_cap=None, node_limit=node_limit)


def exact_conflict_makespan(
    cinst: ConflictInstance, node_limit: int = 5_000_000
) -> tuple[float, np.ndarray] | None:
    """Minimum makespan over conflict-respecting assignments, or
    ``None`` when the instance is infeasible.

    Binary search over the distinct achievable load values via repeated
    capped feasibility checks.
    """
    base = feasible_conflict_assignment(cinst, node_limit)
    if base is None:
        return None
    loads = np.zeros(cinst.num_machines)
    np.add.at(loads, base, cinst.sizes)
    hi = float(loads.max())
    best = (hi, base)
    lo = float(cinst.sizes.max()) if cinst.num_jobs else 0.0
    # Bisect on the cap; terminate when the window is tight.
    for _ in range(50):
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        attempt = _search(cinst, makespan_cap=mid, node_limit=node_limit)
        if attempt is None:
            lo = mid
        else:
            loads = np.zeros(cinst.num_machines)
            np.add.at(loads, attempt, cinst.sizes)
            hi = float(loads.max())
            best = (hi, attempt)
    return best


def conflict_gadget_from_3dm(
    tdm: ThreeDMInstance,
) -> ConflictInstance:
    """Theorem 7's gadget (see module docstring).

    Job layout: ``m`` triple jobs, then ``3n`` element jobs (``A`` then
    ``B`` then ``C``), then ``m - n`` dummies.  All jobs get unit size
    (the reduction "disregards job costs and sizes").
    """
    n = tdm.n
    m = tdm.num_triples
    if m < n:
        raise ValueError("need at least n triples")
    triple_ids = list(range(m))
    elem_base = m
    dummy_base = m + 3 * n
    total = m + 3 * n + (m - n)

    conflicts: set[tuple[int, int]] = set()
    # Triple jobs pairwise conflict.
    for i in range(m):
        for j in range(i + 1, m):
            conflicts.add((i, j))
    # Dummies pairwise conflict and conflict with every element job.
    for i in range(dummy_base, total):
        for j in range(i + 1, total):
            conflicts.add((i, j))
        for e in range(elem_base, dummy_base):
            conflicts.add((min(e, i), max(e, i)))

    # Element u conflicts with triple job t unless u in T_t.
    def elem_id(kind: int, idx: int) -> int:
        return elem_base + kind * n + idx

    for t, (a, b, c) in enumerate(tdm.triples):
        members = {elem_id(0, a), elem_id(1, b), elem_id(2, c)}
        for e in range(elem_base, dummy_base):
            if e not in members:
                conflicts.add((t, e))

    return ConflictInstance(
        sizes=np.ones(total),
        num_machines=m,
        conflicts=frozenset(conflicts),
    )
