"""M-PARTITION with the paper's per-step incremental scan (Theorem 3).

Theorem 3's running-time claim rests on one observation: *between
consecutive thresholds, at most a constant number of the per-processor
values change*, so the scan can maintain

* the affected processors' ``a_i`` / ``b_i`` / ``c_i``,
* the running total ``sum_i b_i``,
* the multiset of ``c_i`` values with order-statistic sums
  (:class:`~repro.core.fenwick.ValueMultisetFenwick`), giving the
  Step-3 selection total ``sum of the L_T smallest c_i`` in
  ``O(log n)``

and evaluate ``k-hat = L_E + sum_i b_i + sum-smallest(L_T)`` at each
threshold in logarithmic time.  (Ties in ``c_i`` do not affect the
*sum*, so the tie-breaking rule — which matters for the final
construction — can be deferred to the single construction call at the
stopping threshold.)

The module exposes :func:`m_partition_rebalance_incremental`, which
walks the materialized threshold union one value at a time with those
aggregates.  :func:`repro.core.partition.m_partition_rebalance` reaches
the same stop with the windowed scan
(:func:`~repro.core.partition.scan_thresholds`), which evaluates whole
chunks of thresholds with numpy instead; the two produce the
*identical* result (same stopping threshold, hence the same
construction), enforced by differential property tests.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .. import telemetry
from .assignment import Assignment
from .fenwick import ValueMultisetFenwick
from .instance import Instance
from .partition import _construct, _values_at, evaluate_guess
from .result import RebalanceResult
from .thresholds import ThresholdTables, build_tables, candidate_guesses, scan_start

__all__ = ["m_partition_rebalance_incremental"]


class _IncrementalState:
    """Live ``(L_T, m_L, a, b, c)`` state advanced threshold by threshold.

    ``L_T`` (the total large-job count) is maintained incrementally too:
    it changes only when the guess crosses ``2 * size`` of some job —
    which is a threshold of that job's processor — so per-processor
    large counts patched at each refresh keep the global total exact.
    """

    def __init__(self, tables: ThresholdTables, start_guess: float) -> None:
        self.tables = tables
        a, b, large = _values_at(tables, np.asarray([start_guess]))
        self.a = a[:, 0].copy()
        self.b = b[:, 0].copy()
        self.c = self.a - self.b
        self.large_counts = large[:, 0].copy()
        self.has_large = self.large_counts > 0
        self.sum_b = int(self.b.sum())
        # c_i = a_i - b_i with a_i, b_i in [0, n_i], so a domain sized by
        # the largest bucket suffices, not [-n-1, n+1].
        max_bucket = int(tables.count.max(initial=0))
        self.fenwick = ValueMultisetFenwick(-max_bucket - 1, max_bucket + 1)
        for c in self.c.tolist():
            self.fenwick.add(c)
        self.num_large_procs = int(self.has_large.sum())
        self.total_large_jobs = int(self.large_counts.sum())

    def refresh(self, proc_index: int, guess: float) -> None:
        """Recompute one processor's values at ``guess`` and patch the
        aggregates (the paper's 'constant time incremental change')."""
        _, sizes, prefix = self.tables.row(proc_index)
        new_a, new_b, new_large_count = _evaluate_row(sizes, prefix, guess)
        new_c = new_a - new_b
        new_large = new_large_count > 0
        self.sum_b += new_b - int(self.b[proc_index])
        if new_c != self.c[proc_index]:
            self.fenwick.remove(int(self.c[proc_index]))
            self.fenwick.add(int(new_c))
        self.num_large_procs += int(new_large) - int(self.has_large[proc_index])
        self.total_large_jobs += new_large_count - int(self.large_counts[proc_index])
        self.a[proc_index] = new_a
        self.b[proc_index] = new_b
        self.c[proc_index] = new_c
        self.has_large[proc_index] = new_large
        self.large_counts[proc_index] = new_large_count

    def planned_moves(self, guess: float) -> tuple[bool, int]:
        """``(feasible, k-hat)`` at ``guess`` using the aggregates."""
        total_large = self.total_large_jobs
        if total_large > self.tables.num_processors:
            return False, -1
        extra_large = total_large - self.num_large_procs
        k_hat = (
            extra_large + self.sum_b + self.fenwick.sum_smallest(total_large)
        )
        return True, int(k_hat)


def _evaluate_row(
    sizes: np.ndarray, prefix: np.ndarray, guess: float
) -> tuple[int, int, int]:
    """``(a_i, b_i, large_count)`` of one table row at ``guess``: the
    per-row unit of a refresh, with one shared small-count lookup."""
    n_i = int(sizes.shape[0])
    s_cnt = int(np.searchsorted(sizes, guess / 2.0, side="right"))
    keep_a = int(np.searchsorted(prefix[: s_cnt + 1], guess / 2.0, side="right")) - 1
    q = n_i if s_cnt == n_i else s_cnt + 1
    keep_b = int(np.searchsorted(prefix[: q + 1], guess, side="right")) - 1
    return s_cnt - keep_a, q - keep_b, n_i - s_cnt


def _events_by_threshold(
    tables: ThresholdTables,
) -> dict[float, set[int]]:
    """Map each threshold value to the processors whose values can
    change there (Lemma 5's change points, attributed per processor)."""
    events: dict[float, set[int]] = defaultdict(set)
    for i in range(tables.num_processors):
        _, sizes, prefix = tables.row(i)
        for size in sizes:
            events[float(2.0 * size)].add(i)  # large/small flip
        for prefix_sum in prefix[1:]:
            events[float(prefix_sum)].add(i)  # b_i decrement
            events[float(2.0 * prefix_sum)].add(i)  # a_i decrement
    return dict(events)


def m_partition_rebalance_incremental(
    instance: Instance,
    k: int,
    tables: ThresholdTables | None = None,
) -> RebalanceResult:
    """Theorem 3's scan, one threshold at a time, with incremental
    aggregate maintenance.

    Semantically identical to
    :func:`repro.core.partition.m_partition_rebalance`; asymptotically
    ``O(n log n)`` regardless of how many thresholds the scan crosses,
    because each threshold touches only its own processors' values.

    ``tables`` may supply prebuilt threshold tables for ``instance``
    (same contract as :func:`~repro.core.partition.m_partition_rebalance`).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    tmark = telemetry.mark()
    if tables is None:
        with telemetry.span("m_partition_inc.build_tables"):
            tables = build_tables(instance)
    if instance.num_jobs == 0:
        return RebalanceResult(
            assignment=Assignment.initial(instance),
            algorithm="m-partition-incremental",
            guessed_opt=0.0,
            planned_moves=0,
        )
    candidates = candidate_guesses(tables)
    events = _events_by_threshold(tables)
    start = scan_start(candidates, instance.average_load)

    state = _IncrementalState(tables, float(candidates[start]))
    tried = 0
    refreshes = 0
    stop_guess: float | None = None
    stop_k_hat = -1
    with telemetry.span("m_partition_inc.scan"):
        for idx in range(start, candidates.shape[0]):
            guess = float(candidates[idx])
            if idx > start:
                for proc_index in events.get(guess, ()):
                    state.refresh(proc_index, guess)
                    refreshes += 1
            tried += 1
            feasible, k_hat = state.planned_moves(guess)
            if feasible and k_hat <= k:
                stop_guess = guess
                stop_k_hat = k_hat
                break
    telemetry.count("thresholds_tried", tried)
    telemetry.count("incremental_refreshes", refreshes)
    if stop_guess is not None:
        # Single full evaluation at the stopping threshold to apply
        # the tie-breaking selection and build the assignment.
        ev = evaluate_guess(tables, stop_guess)
        if ev.planned_moves != stop_k_hat:
            raise AssertionError(
                f"incremental k-hat {stop_k_hat} disagrees with the full "
                f"evaluation {ev.planned_moves} at guess {stop_guess}"
            )
        with telemetry.span("m_partition_inc.construct"):
            assignment = _construct(instance, tables, ev)
        assignment.validate(max_moves=k)
        return RebalanceResult(
            assignment=assignment,
            algorithm="m-partition-incremental",
            guessed_opt=stop_guess,
            planned_moves=ev.planned_moves,
            meta=telemetry.attach(
                {
                    "L_T": ev.total_large,
                    "m_L": ev.large_processors,
                    "L_E": ev.extra_large,
                    "thresholds_tried": tried,
                },
                tmark,
            ),
        )
    raise RuntimeError("no feasible threshold found")  # pragma: no cover
