"""Threshold enumeration for M-PARTITION (Section 3.1, Lemma 5).

PARTITION needs to classify jobs as large (size strictly greater than
``OPT/2``) and to compute, per processor ``i``,

* ``a_i`` — the minimum number of small jobs to remove so that the
  remaining small jobs total at most ``OPT/2``;
* ``b_i`` — the minimum number of jobs (including the kept large job,
  if any) to remove so that the remaining jobs total at most ``OPT``.

As the guess ``A`` for ``OPT`` increases, these quantities change only
when ``A`` crosses one of a discrete set of *threshold values*
(Lemma 5):

* ``2 * p_j`` for every job ``j`` — where the large/small status of
  job ``j`` flips (large iff ``p_j > A/2``, i.e. iff ``A < 2 p_j``);
* the prefix sums ``P_{i,l}`` of each processor's jobs sorted in
  increasing size order — where ``b_i`` decrements (keeping the ``l``
  smallest jobs is feasible iff ``P_{i,l} <= A``);
* twice those prefix sums — where ``a_i`` decrements (keeping the
  ``l`` smallest small jobs is feasible iff ``P_{i,l} <= A/2``).

Because the small jobs on a processor are always a *prefix* of its
ascending size order, the prefix sums of the all-jobs ascending order
cover every small-set prefix sum for every classification regime, so
the union above is a complete threshold set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance

__all__ = [
    "ProcessorTable",
    "ThresholdTables",
    "build_tables",
    "candidate_guesses",
    "patch_tables",
    "patch_tables_hint",
    "proc_candidates",
    "processor_view",
    "scan_start",
]


@dataclass(frozen=True)
class ProcessorTable:
    """Precomputed per-processor data for guess evaluation.

    Attributes
    ----------
    jobs_asc:
        Job indices on this processor, sorted ascending by
        ``(size, index)``.
    sizes_asc:
        The corresponding sizes (ascending).
    prefix:
        ``prefix[l]`` = total size of the ``l`` smallest jobs
        (``prefix[0] == 0.0``).
    """

    jobs_asc: np.ndarray
    sizes_asc: np.ndarray
    prefix: np.ndarray

    @property
    def num_jobs(self) -> int:
        return int(self.sizes_asc.shape[0])

    def small_count(self, guess: float) -> int:
        """Number of jobs of size at most ``guess / 2`` (the smalls)."""
        return int(np.searchsorted(self.sizes_asc, guess / 2.0, side="right"))

    def a_value(self, guess: float) -> int:
        """``a_i``: removals so the remaining smalls total <= guess/2.

        Removing the largest smalls first is optimal for minimizing the
        removal count, so ``a_i = s_cnt - max{l : P_l <= guess/2}``.
        """
        s_cnt = self.small_count(guess)
        keep = int(
            np.searchsorted(self.prefix[: s_cnt + 1], guess / 2.0, side="right") - 1
        )
        return s_cnt - keep

    def b_value(self, guess: float) -> int:
        """``b_i``: removals so the remaining jobs total <= guess.

        Computed on the *post-Step-1* configuration: all small jobs plus
        the smallest large job (if any) — which is exactly the first
        ``min(s_cnt + 1, n_i)`` jobs in ascending order.
        """
        s_cnt = self.small_count(guess)
        q = self.num_jobs if s_cnt == self.num_jobs else s_cnt + 1
        keep = int(np.searchsorted(self.prefix[: q + 1], guess, side="right") - 1)
        return q - keep

    def has_large(self, guess: float) -> bool:
        """True if the processor initially holds at least one large job."""
        return self.small_count(guess) < self.num_jobs

    def evaluate(self, guess: float) -> tuple[int, int, int]:
        """``(a_i, b_i, large_count)`` at ``guess`` with one shared
        small-count lookup — the per-processor unit of
        :func:`~repro.core.partition.evaluate_guess` and of the per-step
        Fenwick scan's refreshes, where the three separate accessors'
        repeated ``searchsorted`` dispatches add up."""
        s_cnt = int(np.searchsorted(self.sizes_asc, guess / 2.0, side="right"))
        keep_a = int(
            np.searchsorted(self.prefix[: s_cnt + 1], guess / 2.0, side="right") - 1
        )
        q = self.num_jobs if s_cnt == self.num_jobs else s_cnt + 1
        keep_b = int(np.searchsorted(self.prefix[: q + 1], guess, side="right") - 1)
        return s_cnt - keep_a, q - keep_b, self.num_jobs - s_cnt


@dataclass(frozen=True)
class ThresholdTables:
    """All precomputed data needed to evaluate guesses quickly."""

    instance: Instance
    processors: tuple[ProcessorTable, ...]

    def total_large(self, guess: float) -> int:
        """``L_T``: total number of large jobs at this guess, summed
        from the per-processor counts."""
        return sum(p.num_jobs - p.small_count(guess) for p in self.processors)


def processor_view(
    instance: Instance, jobs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Jobs grouped by processor, each group ascending by ``(size, index)``.

    Returns ``(order, cuts)``: ``order`` holds the job indices sorted by
    ``(processor, size, index)`` — all jobs, or only ``jobs`` (ascending
    indices) when given — and processor ``p``'s jobs are
    ``order[cuts[p]:cuts[p + 1]]``.  Whole-array sorts and no per-job
    Python: an unstable argsort of the sizes, one sort of packed
    ``(size rank, index)`` keys only when sizes tie, then a stable sort
    on processor ids, which numpy radix-sorts when they fit in 16 bits.
    """
    m = instance.num_processors
    sizes, procs = instance.sizes, instance.initial
    if jobs is not None:
        sizes, procs = sizes[jobs], procs[jobs]
    order = np.argsort(sizes)
    ranked = sizes[order]
    ties = ranked[1:] == ranked[:-1]
    if ties.any():
        bits = order.shape[0].bit_length()
        key = np.cumsum(np.concatenate(([0], ~ties))) << bits
        key |= order
        key.sort()
        order = key & ((1 << bits) - 1)
    keys = procs[order]
    if m <= 1 << 16:
        keys = keys.astype(np.uint16)
    order = order[np.argsort(keys, kind="stable")]
    if jobs is not None:
        order = jobs[order]
    cuts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(procs, minlength=m), out=cuts[1:])
    return order, cuts


def _processor_table(jobs_asc: np.ndarray, sizes_asc: np.ndarray) -> ProcessorTable:
    # Prefix sums accumulate per processor: a global cumsum minus
    # offsets would round differently.
    prefix = np.concatenate(([0.0], np.cumsum(sizes_asc)))
    return ProcessorTable(jobs_asc=jobs_asc, sizes_asc=sizes_asc, prefix=prefix)


def build_tables(instance: Instance) -> ThresholdTables:
    """Sort each processor's jobs and build prefix sums.

    ``O(n log n)`` total, matching the first-run cost in Theorem 3.
    """
    order, cuts = processor_view(instance)
    sizes = instance.sizes[order]
    bounds = cuts.tolist()
    processors = tuple(
        _processor_table(order[lo:hi], sizes[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )
    return ThresholdTables(instance=instance, processors=processors)


def patch_tables(
    tables: ThresholdTables, instance: Instance
) -> tuple[ThresholdTables, int]:
    """Tables valid for ``instance``, reusing unchanged processor buckets.

    Compares ``instance`` against ``tables.instance`` job by job; only
    the processors that gained, lost or resized a job get their
    ascending order and prefix sums rebuilt, from one
    :func:`processor_view` over those processors' jobs —
    ``O(a log a)`` for ``a`` affected jobs, plus ``O(n)`` for the diff
    masks.

    Returns ``(new_tables, buckets_patched)``.  Falls back to a full
    :func:`build_tables` (returning ``buckets_patched == -1``) when the
    job count or processor count differs, since no per-bucket diff is
    meaningful then.
    """
    old = tables.instance
    if (
        old.num_jobs != instance.num_jobs
        or old.num_processors != instance.num_processors
    ):
        return build_tables(instance), -1
    size_changed = old.sizes != instance.sizes
    moved = old.initial != instance.initial
    changed_jobs = size_changed | moved
    if not changed_jobs.any():
        if old is instance:
            return tables, 0
        return ThresholdTables(instance=instance, processors=tables.processors), 0
    affected_mask = np.zeros(instance.num_processors, dtype=bool)
    affected_mask[old.initial[changed_jobs]] = True
    affected_mask[instance.initial[changed_jobs]] = True
    changed_procs = np.flatnonzero(affected_mask)
    affected_jobs = np.flatnonzero(affected_mask[instance.initial])
    order, cuts = processor_view(instance, affected_jobs)
    sizes = instance.sizes[order]
    bounds = cuts.tolist()
    processors = list(tables.processors)
    for p in changed_procs.tolist():
        lo, hi = bounds[p], bounds[p + 1]
        processors[p] = _processor_table(order[lo:hi], sizes[lo:hi])
    return (
        ThresholdTables(instance=instance, processors=tuple(processors)),
        int(changed_procs.shape[0]),
    )


def patch_tables_hint(
    tables: ThresholdTables,
    instance: Instance,
    idx: np.ndarray,
    old_initial: np.ndarray,
) -> tuple[ThresholdTables, np.ndarray]:
    """Patch tables from an *explicit* churn set, without diffing arrays.

    The O(churn) server path mutates each shard's resident arrays in
    place, so ``tables.instance`` may alias ``instance`` and a value
    diff (:func:`patch_tables`) is meaningless.  Instead the caller
    names the changed jobs: ``idx`` (unique, ascending) are the job
    indices whose size, cost, or placement changed since the tables
    were last valid, and ``old_initial`` their placements *at that
    time*.  New values are read from ``instance``.

    Each affected bucket is rebuilt by a sorted merge — drop the
    changed jobs (O(bucket)), insert the arrivals at their
    ``(size, index)`` positions (O(arrivals · log bucket) plus one
    O(bucket) ``np.insert``), recompute the prefix sums — so the cost is
    ``O(changed_buckets · bucket_size)``, all memcpy-grade numpy passes,
    with no sort over the bucket.  The resulting buckets are
    byte-identical to a :func:`build_tables` rebuild (enforced by
    differential tests).

    Returns ``(new_tables, changed_procs)`` with the affected processor
    indices.
    """
    n = instance.num_jobs
    if idx.shape[0] == 0:
        if tables.instance is instance:
            return tables, idx
        return ThresholdTables(instance=instance, processors=tables.processors), idx
    new_initial = instance.initial[idx]
    changed_procs = np.unique(np.concatenate((old_initial, new_initial)))
    # Arrivals grouped by destination bucket in (size, index) order —
    # the exact per-bucket order build_tables produces.
    sizes_new = instance.sizes[idx]
    order = np.lexsort((idx, sizes_new, new_initial))
    arr_jobs = idx[order]
    arr_sizes = sizes_new[order]
    arr_procs = new_initial[order]
    starts = np.searchsorted(arr_procs, changed_procs, side="left")
    ends = np.searchsorted(arr_procs, changed_procs, side="right")
    changed_flags = np.zeros(n, dtype=bool)
    changed_flags[idx] = True
    processors = list(tables.processors)
    for p, lo, hi in zip(changed_procs, starts, ends):
        old_pt = processors[int(p)]
        if old_pt.num_jobs:
            drop = changed_flags[old_pt.jobs_asc]
            kept_jobs = old_pt.jobs_asc[~drop]
            kept_sizes = old_pt.sizes_asc[~drop]
        else:
            kept_jobs = old_pt.jobs_asc
            kept_sizes = old_pt.sizes_asc
        a_jobs = arr_jobs[lo:hi]
        if a_jobs.size:
            a_sizes = arr_sizes[lo:hi]
            ins = np.searchsorted(kept_sizes, a_sizes, side="left")
            kn = int(kept_jobs.shape[0])
            for t in range(int(a_jobs.shape[0])):
                # Advance within the equal-size run so ties land in
                # (size, index) order against the kept jobs.
                pos = int(ins[t])
                s = a_sizes[t]
                j = a_jobs[t]
                while pos < kn and kept_sizes[pos] == s and kept_jobs[pos] < j:
                    pos += 1
                ins[t] = pos
            jobs_asc = _scatter_insert(kept_jobs, a_jobs, ins)
            sizes_asc = _scatter_insert(kept_sizes, a_sizes, ins)
        else:
            jobs_asc = kept_jobs
            sizes_asc = kept_sizes
        prefix = np.concatenate(([0.0], np.cumsum(sizes_asc)))
        processors[int(p)] = ProcessorTable(
            jobs_asc=jobs_asc, sizes_asc=sizes_asc, prefix=prefix
        )
    return (
        ThresholdTables(instance=instance, processors=tuple(processors)),
        changed_procs,
    )


def _scatter_insert(
    a_jobs: np.ndarray, b_jobs: np.ndarray, ins: np.ndarray
) -> np.ndarray:
    """``np.insert(a, ins, b)`` for sorted position arrays, hand-rolled.

    ``np.insert`` carries enough Python-level overhead (argument
    normalization, index fixups) to dominate the per-bucket patch cost;
    this is the same scatter in four numpy passes.  ``ins`` must be
    non-decreasing positions into ``a``.
    """
    out = np.empty(a_jobs.shape[0] + b_jobs.shape[0], dtype=a_jobs.dtype)
    b_pos = ins + np.arange(b_jobs.shape[0], dtype=np.int64)
    out[b_pos] = b_jobs
    mask = np.ones(out.shape[0], dtype=bool)
    mask[b_pos] = False
    out[mask] = a_jobs
    return out


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two ascending float arrays (duplicates kept), O(|a| + |b|)."""
    if not a.shape[0]:
        return b
    if not b.shape[0]:
        return a
    return _scatter_insert(a, b, np.searchsorted(a, b, side="left"))


def proc_candidates(proc: ProcessorTable) -> np.ndarray:
    """One processor's Lemma-5 threshold values, ascending (dups kept).

    The union of these streams over all processors equals the value set
    of :func:`candidate_guesses`; M-PARTITION's windowed scan
    (:func:`repro.core.partition.scan_thresholds`) slices windows of the
    per-processor streams instead of materializing (and re-sorting) the
    global union.  Duplicate values are deduplicated at scan time, not
    here — keeping the build a pure sorted merge.
    """
    if proc.num_jobs == 0:
        return np.empty(0)
    pre = proc.prefix[1:]
    return _merge_sorted(
        _merge_sorted(pre, 2.0 * pre), 2.0 * proc.sizes_asc
    )


def scan_start(candidates: np.ndarray, average_load: float) -> int:
    """Index of the largest threshold not exceeding ``average_load``.

    This is M-PARTITION's starting guess (Section 3.1: the average load
    never exceeds ``OPT``).  The result is clamped into
    ``[0, len(candidates) - 1]`` so the scan always starts on a real
    threshold: when every candidate exceeds the average the scan starts
    at the smallest one, and when the average exceeds every candidate
    (only possible through float round-off — the heaviest processor's
    full load is itself a candidate and bounds the average from above)
    the scan starts at the largest one instead of indexing past the end.
    The windowed scan (:func:`repro.core.partition.scan_thresholds`)
    derives the same start from the per-processor streams without the
    global union; the Fenwick scan and the tests use this helper.
    """
    if candidates.shape[0] == 0:
        return 0
    start = int(np.searchsorted(candidates, average_load, side="right")) - 1
    return min(max(start, 0), int(candidates.shape[0]) - 1)


def candidate_guesses(tables: ThresholdTables) -> np.ndarray:
    """All threshold values for the guess ``A``, sorted ascending.

    Per Lemma 5 the tuple ``(L_T, a_1..a_m, b_1..b_m)`` is constant for
    ``A`` between consecutive values of this set, so M-PARTITION only
    ever needs to try these ``O(n)`` guesses.
    """
    parts: list[np.ndarray] = []
    for proc in tables.processors:
        if proc.num_jobs:
            parts.append(2.0 * proc.sizes_asc)
            parts.append(proc.prefix[1:])
            parts.append(2.0 * proc.prefix[1:])
    if not parts:
        return np.empty(0)
    return np.unique(np.concatenate(parts))
