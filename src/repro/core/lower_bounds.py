"""Lower bounds on the optimal rebalanced makespan ``OPT(k)``.

The paper uses three lower bounds:

* the *average load* ``sum(sizes) / m`` (any assignment has some
  processor at least this loaded) — Section 3.1 starts M-PARTITION's
  threshold search here;
* the *maximum job size* (the job must sit somewhere);
* the *greedy removal bound* ``G1`` of Lemma 1: the smallest possible
  maximum load obtainable by removing (not reassigning!) ``k`` jobs,
  which is achieved by repeatedly deleting the largest job from the
  currently most-loaded processor.  Since reassignment only adds load,
  ``G1 <= OPT(k)``.
"""

from __future__ import annotations

import heapq

from .instance import Instance
from .thresholds import processor_view

__all__ = [
    "average_load_bound",
    "max_job_bound",
    "greedy_removal_bound",
    "combined_lower_bound",
]


def average_load_bound(instance: Instance) -> float:
    """``sum(sizes) / m``; valid for any number of moves."""
    return instance.average_load


def max_job_bound(instance: Instance) -> float:
    """``max(sizes)``; valid for any number of moves."""
    return instance.max_size


def greedy_removal_bound(instance: Instance, k: int) -> float:
    """Lemma 1's ``G1``: max load after greedily deleting ``k`` jobs.

    Repeat ``k`` times: from the maximum-load processor, remove the
    largest job.  Lemma 1 proves the resulting maximum load is the
    minimum over *all* ways of deleting ``k`` jobs, hence a lower bound
    on ``OPT(k)`` (reassigning the deleted jobs can only increase some
    processor's load).

    Runs in ``O(n log n)``: one :func:`~repro.core.thresholds.processor_view`
    sort, then ``O(k log m)`` for the max heap of processor loads.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    m = instance.num_processors
    # Processor p's remaining jobs are order[first[p]:top[p]], ascending
    # by size; deleting its largest moves top[p] down.
    order, cuts = processor_view(instance)
    first, top = cuts[:-1].tolist(), cuts[1:].tolist()
    loads = [float(x) for x in instance.initial_loads]
    # Max-heap of (-load, processor).
    heap = [(-loads[p], p) for p in range(m)]
    heapq.heapify(heap)
    removed = 0
    while removed < k:
        neg_load, p = heapq.heappop(heap)
        if -neg_load != loads[p]:
            continue  # stale entry
        if top[p] == first[p]:
            # Most-loaded processor is empty => all processors empty.
            heapq.heappush(heap, (neg_load, p))
            break
        top[p] -= 1
        loads[p] -= float(instance.sizes[order[top[p]]])
        heapq.heappush(heap, (-loads[p], p))
        removed += 1
    return max(loads) if loads else 0.0


def combined_lower_bound(instance: Instance, k: int | None = None) -> float:
    """The best of all applicable lower bounds.

    With ``k is None`` the move count is unconstrained and only the
    structural bounds (average load, max job) apply.
    """
    bound = max(average_load_bound(instance), max_job_bound(instance))
    if k is not None:
        bound = max(bound, greedy_removal_bound(instance, k))
    return bound
