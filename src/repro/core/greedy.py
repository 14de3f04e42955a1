"""The GREEDY 2-approximation (Section 2, Theorem 1).

Algorithm GREEDY:

1. Repeat ``k`` times: from the maximum-load processor, remove the
   largest job.
2. Consider the ``k`` removed jobs in an arbitrary order.  Place each of
   them on the current minimum-load processor.

Theorem 1 shows this achieves a *tight* approximation ratio of
``2 - 1/m`` in ``O(n log n)`` time: Lemma 1 proves the load after
Step 1 is at most ``OPT``, and Lemma 2 applies Graham's argument to the
reinsertion step.

This module implements GREEDY with heaps, matching the paper's
``O(n log n)`` bound (``O(n log n)`` sorting + ``O(k log m)``
reinsertion).  The reinsertion order is configurable; the paper's
analysis holds for any order, and descending order (an LPT flavour)
usually performs a little better in practice, so harness code can sweep
both.

Move accounting follows the distinction the paper draws before Lemma 3:
Step 1 performs *removals*, but a removed job that Step 2 places back on
its origin processor is not a *relocation* and consumes no real budget.
:attr:`RebalanceResult.planned_moves` therefore reports the actual
relocation count (always ``<= k``), with the removal count preserved in
``meta["removals"]``; the ``2 - 1/m`` guarantee is stated in terms of
the removals and transfers unchanged.
"""

from __future__ import annotations

import heapq
from typing import Literal

import numpy as np

from .. import telemetry
from .assignment import Assignment
from .instance import Instance
from .result import RebalanceResult
from .thresholds import processor_view

__all__ = ["greedy_rebalance"]

InsertOrder = Literal["removal", "descending", "ascending"]

_INSERT_ORDERS = ("removal", "descending", "ascending")


def greedy_rebalance(
    instance: Instance,
    k: int,
    insert_order: InsertOrder = "removal",
) -> RebalanceResult:
    """Run GREEDY with a budget of ``k`` moves.

    Parameters
    ----------
    instance:
        The problem instance (relocation costs are ignored; GREEDY is
        the unit-cost algorithm).
    k:
        Maximum number of job relocations.
    insert_order:
        Order in which Step 2 reinserts the removed jobs.  ``"removal"``
        is the order Step 1 produced (the paper's "arbitrary" order),
        ``"descending"``/``"ascending"`` sort by size first.  The
        ``2 - 1/m`` guarantee holds for every choice.

    Returns
    -------
    RebalanceResult
        With ``meta["G1"]`` set to the max load after Step 1 (Lemma 1's
        lower bound on ``OPT``), ``meta["G2"]`` to the final makespan
        and ``meta["removals"]`` to the number of Step-1 removals.
        ``planned_moves`` counts actual relocations — removals whose
        job landed away from its origin — so it always equals
        ``assignment.num_moves``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if insert_order not in _INSERT_ORDERS:
        raise ValueError(f"unknown insert_order {insert_order!r}")
    tmark = telemetry.mark()
    m = instance.num_processors
    heap_pops = 0

    # --- Step 1: k removals of the largest job on the max-load processor.
    # Heap entries carry a per-processor version counter; an entry is
    # stale iff its version lags the processor's current one, so
    # correctness never rests on float round-trip identity.
    with telemetry.span("greedy.step1"):
        # Processor p's remaining jobs are order[first[p]:top[p]],
        # ascending by (size, index); a removal moves top[p] down.
        order, cuts = processor_view(instance)
        first, top = cuts[:-1].tolist(), cuts[1:].tolist()
        loads = [float(x) for x in instance.initial_loads]
        version = [0] * m
        max_heap = [(-loads[p], 0, p) for p in range(m)]
        heapq.heapify(max_heap)

        removed: list[tuple[float, int]] = []
        while len(removed) < k and max_heap:
            neg_load, ver, p = heapq.heappop(max_heap)
            heap_pops += 1
            if ver != version[p]:
                continue  # stale heap entry
            if top[p] == first[p]:
                heapq.heappush(max_heap, (neg_load, ver, p))
                break  # max-load processor empty => nothing left to remove
            top[p] -= 1
            j = int(order[top[p]])
            size = float(instance.sizes[j])
            loads[p] -= size
            removed.append((size, j))
            version[p] += 1
            heapq.heappush(max_heap, (-loads[p], version[p], p))
        g1 = max(loads) if loads else 0.0

    # --- Step 2: reinsert each removed job on the min-load processor.
    with telemetry.span("greedy.step2"):
        if insert_order == "descending":
            removed.sort(key=lambda t: -t[0])
        elif insert_order == "ascending":
            removed.sort(key=lambda t: t[0])

        version = [0] * m
        min_heap = [(loads[p], 0, p) for p in range(m)]
        heapq.heapify(min_heap)
        mapping = np.array(instance.initial, dtype=np.int64)
        for size, j in removed:
            _, ver, p = heapq.heappop(min_heap)
            heap_pops += 1
            while ver != version[p]:
                _, ver, p = heapq.heappop(min_heap)  # stale entry
                heap_pops += 1
            mapping[j] = p
            loads[p] += size
            version[p] += 1
            heapq.heappush(min_heap, (loads[p], version[p], p))
        g2 = max(loads) if loads else 0.0

    telemetry.count("heap_pops", heap_pops)
    assignment = Assignment(instance=instance, mapping=mapping)
    assignment.validate(max_moves=k)
    meta = {
        "G1": g1,
        "G2": g2,
        "insert_order": insert_order,
        "removals": len(removed),
    }
    return RebalanceResult(
        assignment=assignment,
        algorithm="greedy",
        planned_moves=assignment.num_moves,
        meta=telemetry.attach(meta, tmark),
    )
