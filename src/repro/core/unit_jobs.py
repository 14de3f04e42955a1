"""Exact rebalancing for unit-size jobs (the Rudolph et al. model).

Section 1 of the paper notes that prior few-moves schemes (Rudolph,
Slivkin-Allalouf & Upfal; Ghosh et al.) assume *unit-size* jobs, and
positions the paper as removing that assumption.  The unit-size special
case is in fact solvable exactly in polynomial time, which makes it a
valuable oracle: for unit instances, the approximation algorithms can
be tested against a closed-form optimum at any scale (no
branch-and-bound needed).

With all sizes 1, a final assignment is determined (up to which
interchangeable jobs move) by the final per-processor counts
``f_1..f_m`` with ``sum f = n``.  Reaching makespan at most ``T``
requires removing exactly ``max(0, n_i - T)`` jobs from each processor
``i`` — each removal is one move — and the removed jobs can always be
absorbed iff ``T * m >= n``.  Hence::

    moves(T) = sum_i max(0, n_i - T)
    OPT(k)   = min { T >= ceil(n / m) : moves(T) <= k }

``moves(T)`` is non-increasing in ``T``, so ``OPT(k)`` is found by a
binary search over ``T in [ceil(n/m), max_i n_i]``.
"""

from __future__ import annotations

import math

import numpy as np

from .assignment import Assignment
from .instance import Instance
from .result import RebalanceResult

__all__ = ["unit_rebalance_exact", "unit_opt_value"]


def _counts(instance: Instance) -> np.ndarray:
    counts = np.zeros(instance.num_processors, dtype=np.int64)
    np.add.at(counts, instance.initial, 1)
    return counts


def _require_unit(instance: Instance) -> None:
    if instance.num_jobs and not np.all(instance.sizes == instance.sizes[0]):
        raise ValueError(
            "unit_rebalance_exact requires identical job sizes "
            "(the Rudolph et al. model)"
        )


def unit_opt_value(instance: Instance, k: int) -> float:
    """The exact optimal makespan for a unit/uniform-size instance.

    Sizes may be any single common value ``s``; the answer scales to
    ``s * OPT_unit``.
    """
    _require_unit(instance)
    if k < 0:
        raise ValueError("k must be non-negative")
    if instance.num_jobs == 0:
        return 0.0
    size = float(instance.sizes[0])
    counts = _counts(instance)
    lo = math.ceil(instance.num_jobs / instance.num_processors)
    hi = int(counts.max())

    def moves(t: int) -> int:
        return int(np.maximum(counts - t, 0).sum())

    while lo < hi:
        mid = (lo + hi) // 2
        if moves(mid) <= k:
            hi = mid
        else:
            lo = mid + 1
    return size * lo


def unit_rebalance_exact(instance: Instance, k: int) -> RebalanceResult:
    """Optimal rebalancing of a unit/uniform-size instance.

    Builds an explicit optimal assignment: strip the overflow beyond
    the optimal target ``T`` from each overloaded processor (any jobs —
    they are interchangeable) and pour it into processors below ``T``.
    """
    _require_unit(instance)
    if k < 0:
        raise ValueError("k must be non-negative")
    mapping = np.array(instance.initial, dtype=np.int64)
    if instance.num_jobs == 0:
        return RebalanceResult(
            assignment=Assignment.initial(instance),
            algorithm="unit-exact",
            planned_moves=0,
            meta={"optimal": True, "target": 0},
        )
    size = float(instance.sizes[0])
    opt = unit_opt_value(instance, k)
    target = int(round(opt / size))
    counts = _counts(instance)

    surplus: list[int] = []  # job indices leaving overloaded processors
    for p in np.flatnonzero(counts > target):
        jobs = np.flatnonzero(mapping == p)
        for j in jobs[: int(counts[p]) - target]:
            surplus.append(int(j))
    deficits = [
        (int(p), int(target - counts[p]))
        for p in np.flatnonzero(counts < target)
    ]
    it = iter(surplus)
    for p, room in deficits:
        for _ in range(room):
            j = next(it, None)
            if j is None:
                break
            mapping[j] = p
    if next(it, None) is not None:
        raise AssertionError("surplus jobs left unplaced")

    assignment = Assignment(instance=instance, mapping=mapping)
    assignment.validate(max_moves=k, max_makespan=opt)
    return RebalanceResult(
        assignment=assignment,
        algorithm="unit-exact",
        planned_moves=assignment.num_moves,
        meta={"optimal": True, "target": target},
    )
