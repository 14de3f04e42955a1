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

:class:`ThresholdTables` holds every processor's ascending jobs, sizes
and prefix sums as one row of a flat layout (CSR rows with per-row
slack), so M-PARTITION reads all ``m`` rows with whole-array numpy
operations — :meth:`ThresholdTables.count_le` answers a per-row
``searchsorted`` for every row at once — and a table patch rewrites the
affected rows in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance

__all__ = [
    "ThresholdTables",
    "build_tables",
    "patch_tables",
    "patch_tables_hint",
    "processor_view",
    "row_ranges",
]

# Free slots per row beyond its jobs and the leading zero prefix sum:
# at least _SLACK_MIN, or one sixteenth of the row, so rows grow in
# place under churn and memory stays O(n + m).
_SLACK_MIN = 8
_SLACK_SHIFT = 4


def _capacities(counts: np.ndarray) -> np.ndarray:
    """Slots per row.  When every row fits the widest one's width for at
    most an eighth more memory — balanced placements — all rows get that
    width, so the layout is one ``(m, width)`` matrix and a row-wise
    cumsum needs no padding copy (:func:`_fill_prefix`)."""
    caps = counts + 1 + np.maximum(_SLACK_MIN, counts >> _SLACK_SHIFT)
    total = int(caps.sum())
    widest = int(caps.max(initial=0))
    if widest * caps.shape[0] <= total + (total >> 3):
        caps[:] = widest
    return caps


def row_ranges(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[first[r], first[r] + lengths[r])``.

    One ``repeat`` plus one ``arange``: the gather behind every
    row-wise read of the layout, with no per-row Python.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    return np.repeat(np.asarray(first, dtype=np.int64) - ends + lengths, lengths) + (
        np.arange(total, dtype=np.int64)
    )


def _count_le(
    flat: np.ndarray, base: np.ndarray, lim: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """How many of ``flat[base : base + lim]`` are ``<= values``, per cell.

    ``base``, ``lim`` and ``values`` broadcast to one ``(R, C)`` shape
    and every addressed range is ascending, so each cell equals
    ``np.searchsorted(flat[base:base + lim], value, side="right")``.
    A branchless bisection: ``log2(max lim)`` numpy steps over the whole
    matrix.  Probes past a range's end read its last element instead —
    the predicate stays monotone, and the final clamp to ``lim`` undoes
    the over-count of ranges that hold no larger value.
    """
    base, lim, values = np.broadcast_arrays(base, lim, values)
    top = int(lim.max()) if lim.size else 0
    if top == 0:
        return np.zeros(lim.shape, dtype=np.int64)
    q = base - 1  # the last counted index: base - 1 + count
    end = q + lim
    probe = np.empty_like(q)
    step = 1 << (top.bit_length() - 1)
    while step:
        np.add(q, step, out=probe)
        np.minimum(probe, end, out=probe)
        np.add(q, step, out=q, where=flat[probe] <= values)
        step >>= 1
    count = q - base + 1
    np.minimum(count, lim, out=count)
    return count


@dataclass(eq=False)
class ThresholdTables:
    """Every processor's ascending jobs and prefix sums, as rows of one
    flat layout.

    Row ``p`` owns the slots ``[start[p], start[p + 1])``.  Its
    ``count[p]`` jobs sit at the front of the row, ascending by
    ``(size, index)``: ``jobs`` holds their indices and ``values[0]``
    their sizes.  ``values[1]`` holds the prefix sums, ``count[p] + 1``
    of them, with ``values[1][start[p]] == 0.0``.  The slots past that
    are free, so a row grows in place; a row that outgrows its slots
    makes the patch lay every row out afresh.  Prefix sums accumulate
    per row, left to right, exactly as ``np.cumsum`` over the row's
    sizes does.

    Sizes and prefix sums share the one ``(2, T)`` array so that a
    single :meth:`count_le` bisection can search both.  Solvers read the
    rows through the methods — :meth:`count_le`, :meth:`window`,
    :meth:`ranges`, :meth:`sizes_at`, :meth:`prefix_at`, :meth:`loads`,
    :meth:`max_size` and :meth:`row` — so the slot layout stays this
    module's business.  Patches rewrite rows in place: tables handed to
    :func:`patch_tables` or :func:`patch_tables_hint` describe only the
    snapshot they return.
    """

    instance: Instance
    jobs: np.ndarray
    values: np.ndarray
    start: np.ndarray
    count: np.ndarray

    @property
    def num_processors(self) -> int:
        return int(self.count.shape[0])

    def row(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of processor ``p``'s ``(jobs, sizes, prefix)``."""
        lo = int(self.start[p])
        c = int(self.count[p])
        return (
            self.jobs[lo:lo + c],
            self.values[0, lo:lo + c],
            self.values[1, lo:lo + c + 1],
        )

    def loads(self) -> np.ndarray:
        """Each processor's total load: the last prefix sum of its row."""
        return self.values[1, self.start[:-1] + self.count]

    def sizes_at(self, pos) -> np.ndarray:
        """Each row's size at position ``pos[p]`` of its row (or ``pos``
        for every row).  A position outside ``[0, count[p])`` reads an
        unrelated slot; mask it."""
        return self.values[0, self.start[:-1] + pos]

    def prefix_at(self, pos) -> np.ndarray:
        """Each row's prefix sum ``P_{pos[p]}`` (or ``P_pos`` for every
        row).  A position outside ``[0, count[p]]`` reads an unrelated
        slot; mask it."""
        return self.values[1, self.start[:-1] + pos]

    def max_size(self) -> float:
        """The largest job size; the tables must hold at least one job."""
        return float(self.sizes_at(self.count - 1)[self.count > 0].max())

    def ranges(
        self, first: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Jobs and sizes at row positions ``[first, first + lengths)``.

        ``first`` and ``lengths`` are ``(m,)`` or ``(m, r)`` arrays of
        positions within each row; the ranges are concatenated row by
        row (and, per row, column by column) in one gather.
        """
        first = np.asarray(first, dtype=np.int64)
        offset = self.start[:-1].reshape((-1,) + (1,) * (first.ndim - 1))
        slots = row_ranges((offset + first).reshape(-1), np.reshape(lengths, -1))
        return self.jobs[slots], self.values[0, slots]

    def window(
        self, lo: float, hi: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's three Lemma-5 streams sliced to ``(lo, hi]``.

        Returns ``(below, values, streams)``.  ``below`` is ``(3, m)``:
        each row's count of prefix sums at most ``lo`` (``P_0``
        included), of prefix sums at most ``lo / 2`` and of sizes at
        most ``lo / 2``.  ``values`` holds the window's stream values —
        prefix sums, then doubled prefix sums, then doubled sizes, row
        by row — and ``streams`` each value's ``stream * m + row``.
        Doubling and halving are exact in binary floats, so the doubled
        streams slice against the undoubled arrays at the halved bounds,
        and the values are bit-identical to the ones a merged
        enumeration would yield.  One :meth:`count_le` bisection and one
        gather.
        """
        m = self.num_processors
        counts = self.count_le(
            prefix=(lo, lo / 2.0, hi, hi / 2.0), sizes=(lo / 2.0, hi / 2.0)
        )
        below = counts[:, [0, 1, 4]].T
        lengths = (counts[:, [2, 3, 5]].T - below).reshape(-1)
        first = self.start[:-1]
        prefix_first = first + self.values.shape[1]
        base = np.stack((prefix_first, prefix_first, first)) + below
        values = self.values.reshape(-1)[row_ranges(base.reshape(-1), lengths)]
        values[int(lengths[:m].sum()):] *= 2.0
        streams = np.repeat(np.arange(3 * m, dtype=np.int64), lengths)
        return below, values, streams

    def count_le(self, prefix=(), sizes=()) -> np.ndarray:
        """Per-row ``searchsorted(side="right")`` for every row at once.

        Returns an ``(m, len(prefix) + len(sizes))`` matrix: column
        ``c < len(prefix)`` counts each row's prefix sums (``P_0``
        included) at most ``prefix[c]``, and the remaining columns count
        each row's sizes at most ``sizes[c']``.  A 1-D argument applies
        to every row; a 2-D ``(m, C)`` one gives each row its own values.
        """
        prefix = np.asarray(prefix, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.float64)
        first = self.start[:-1, None]
        total = self.values.shape[1]
        n_p = prefix.shape[-1] if prefix.ndim else 0
        n_s = sizes.shape[-1] if sizes.ndim else 0
        m = self.num_processors
        base = np.empty((m, n_p + n_s), dtype=np.int64)
        lim = np.empty((m, n_p + n_s), dtype=np.int64)
        base[:, :n_p] = first + total
        lim[:, :n_p] = self.count[:, None] + 1
        base[:, n_p:] = first
        lim[:, n_p:] = self.count[:, None]
        values = np.empty((m, n_p + n_s), dtype=np.float64)
        values[:, :n_p] = prefix
        values[:, n_p:] = sizes
        return _count_le(self.values.reshape(-1), base, lim, values)

    def total_large(self, guess: float) -> int:
        """``L_T``: total number of large jobs at this guess, summed
        from the per-processor counts."""
        small = self.count_le(sizes=[guess / 2.0])
        return int(self.count.sum() - small.sum())


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


def _uniform_width(tables: ThresholdTables) -> int:
    """The common row width when every row has one, else 0."""
    caps = np.diff(tables.start)
    if caps.shape[0] and bool(np.all(caps == caps[0])):
        return int(caps[0])
    return 0


def _write_rows(
    tables: ThresholdTables, rows: np.ndarray, order: np.ndarray, sizes: np.ndarray
) -> None:
    """Write ``order`` (grouped by row, ``rows`` ascending) and its
    sizes to the front slots of ``rows``, per ``tables.count``."""
    counts = tables.count[rows]
    width = _uniform_width(tables)
    if width:
        # Boolean-mask assignment fills the matrix row by row in order.
        used = np.zeros((tables.num_processors, width), dtype=bool)
        used[rows] = np.arange(width) < counts[:, None]
        tables.jobs.reshape(used.shape)[used] = order
        tables.values[0].reshape(used.shape)[used] = sizes
    else:
        slots = row_ranges(tables.start[rows], counts)
        tables.jobs[slots] = order
        tables.values[0][slots] = sizes


def _fill_prefix(tables: ThresholdTables, rows: np.ndarray) -> None:
    """Recompute the prefix sums of ``rows`` from their sizes.

    A row-wise ``np.cumsum`` accumulates each row left to right like a
    per-row ``cumsum`` (a global cumsum minus offsets would round
    differently).  With one row width the layout is that matrix; else
    rows of one length class (equal bit length) share a zero-padded
    matrix, which bounds the padding by the rows' own lengths, so one
    long row on a skewed placement costs no ``m`` × longest-row matrix.
    """
    sizes, prefix = tables.values
    m = tables.num_processors
    width = _uniform_width(tables)
    if width:
        # The rows are a matrix, accumulated in place.  The free slots
        # sum along too, past the counted prefix sums.
        sizes, prefix = sizes.reshape(m, width), prefix.reshape(m, width)
        if rows.shape[0] == m:
            prefix[:, 0] = 0.0
            np.cumsum(sizes[:, :-1], axis=1, out=prefix[:, 1:])
        else:
            prefix[rows, 0] = 0.0
            prefix[rows, 1:] = np.cumsum(sizes[rows, :-1], axis=1)
        return
    first = tables.start[rows]
    counts = tables.count[rows]
    prefix[first] = 0.0
    busy = counts > 0
    first, counts = first[busy], counts[busy]
    classes = np.frexp(counts.astype(np.float64))[1]
    for cls in np.unique(classes).tolist():
        member = classes == cls
        f, c = first[member], counts[member]
        width = int(c.max())
        src = row_ranges(f, c)
        dst = row_ranges(np.arange(f.shape[0], dtype=np.int64) * width, c)
        pad = np.zeros(f.shape[0] * width)
        pad[dst] = sizes[src]
        prefix[src + 1] = np.cumsum(pad.reshape(-1, width), axis=1).reshape(-1)[dst]


def _lay_out(
    instance: Instance, order: np.ndarray, counts: np.ndarray
) -> ThresholdTables:
    """Fresh tables whose rows hold ``order`` cut by ``counts``."""
    start = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(_capacities(counts), out=start[1:])
    jobs = np.zeros(int(start[-1]), dtype=np.int64)
    values = np.zeros((2, int(start[-1])), dtype=np.float64)
    tables = ThresholdTables(instance, jobs, values, start, counts.copy())
    rows = np.arange(counts.shape[0])
    _write_rows(tables, rows, order, instance.sizes[order])
    _fill_prefix(tables, rows)
    return tables


def _relayout(tables: ThresholdTables, need: np.ndarray) -> None:
    """Give every row room for ``need[p]`` jobs, keeping its contents."""
    start = np.zeros(need.shape[0] + 1, dtype=np.int64)
    np.cumsum(_capacities(np.maximum(need, tables.count)), out=start[1:])
    src = row_ranges(tables.start[:-1], tables.count + 1)
    dst = row_ranges(start[:-1], tables.count + 1)
    jobs = np.zeros(int(start[-1]), dtype=np.int64)
    values = np.zeros((2, int(start[-1])), dtype=np.float64)
    jobs[dst] = tables.jobs[src]
    values[:, dst] = tables.values[:, src]
    tables.jobs, tables.values, tables.start = jobs, values, start


def _fits(tables: ThresholdTables, rows: np.ndarray, need: np.ndarray) -> bool:
    return bool(np.all(need < tables.start[rows + 1] - tables.start[rows]))


def build_tables(instance: Instance) -> ThresholdTables:
    """Sort each processor's jobs and build prefix sums.

    ``O(n log n)`` total, matching the first-run cost in Theorem 3: one
    :func:`processor_view`, one scatter into the rows and one row-wise
    ``cumsum`` per length class.
    """
    order, cuts = processor_view(instance)
    return _lay_out(instance, order, np.diff(cuts))


def patch_tables(
    tables: ThresholdTables, instance: Instance
) -> tuple[ThresholdTables, int]:
    """Tables valid for ``instance``, rewriting only the changed rows.

    Compares ``instance`` against ``tables.instance`` job by job; only
    the processors that gained, lost or resized a job get their rows
    rewritten, in place, from one :func:`processor_view` over those
    processors' jobs — ``O(a log a)`` for ``a`` affected jobs, plus
    ``O(n)`` for the diff masks.

    Returns ``(tables, rows_patched)``.  Falls back to a full
    :func:`build_tables` (returning ``rows_patched == -1``) when the
    job count or processor count differs, since no per-row diff is
    meaningful then.
    """
    old = tables.instance
    if (
        old.num_jobs != instance.num_jobs
        or old.num_processors != instance.num_processors
    ):
        return build_tables(instance), -1
    changed_jobs = (old.sizes != instance.sizes) | (old.initial != instance.initial)
    tables.instance = instance
    if not changed_jobs.any():
        return tables, 0
    affected_mask = np.zeros(instance.num_processors, dtype=bool)
    affected_mask[old.initial[changed_jobs]] = True
    affected_mask[instance.initial[changed_jobs]] = True
    rows = np.flatnonzero(affected_mask)
    order, cuts = processor_view(instance, np.flatnonzero(affected_mask[instance.initial]))
    counts = np.diff(cuts)
    if not _fits(tables, rows, counts[rows]):
        need = tables.count.copy()
        need[rows] = counts[rows]
        _relayout(tables, need)
    tables.count[rows] = counts[rows]
    _write_rows(tables, rows, order, instance.sizes[order])
    _fill_prefix(tables, rows)
    return tables, int(rows.shape[0])


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

    Each affected row is edited in place by a sorted merge: drop the
    changed jobs, insert the arrivals at their ``(size, index)``
    positions, and re-accumulate the prefix sums from the first slot
    that changed — ``O(row)`` memcpy-grade numpy passes per affected
    row, with no sort over the row.  A row that would outgrow its slots
    first makes every row move to a fresh layout (``O(n)``, rare).  The
    rows are byte-identical to a :func:`build_tables` rebuild (enforced
    by differential tests).

    Returns ``(tables, changed_procs)`` with the affected processor
    indices.
    """
    tables.instance = instance
    if idx.shape[0] == 0:
        return tables, idx
    new_initial = instance.initial[idx]
    changed_procs = np.unique(np.concatenate((old_initial, new_initial)))
    # Arrivals grouped by destination row in (size, index) order — the
    # exact per-row order build_tables produces.
    sizes_new = instance.sizes[idx]
    order = np.lexsort((idx, sizes_new, new_initial))
    arr_jobs = idx[order]
    arr_sizes = sizes_new[order]
    arr_procs = new_initial[order]
    starts = np.searchsorted(arr_procs, changed_procs, side="left")
    ends = np.searchsorted(arr_procs, changed_procs, side="right")
    need = tables.count[changed_procs] + (ends - starts)
    if not _fits(tables, changed_procs, need):
        grown = tables.count.copy()
        grown[changed_procs] = need
        _relayout(tables, grown)
    changed_flags = np.zeros(instance.num_jobs, dtype=bool)
    changed_flags[idx] = True
    jobs, (sizes, prefix) = tables.jobs, tables.values
    first_slots = tables.start[changed_procs].tolist()
    counts = tables.count
    for p, s, lo, hi in zip(
        changed_procs.tolist(), first_slots, starts.tolist(), ends.tolist()
    ):
        c = int(counts[p])
        row_jobs = jobs[s:s + c]
        row_sizes = sizes[s:s + c]
        # Edits in the old row's slots: the changed jobs' entries go,
        # and each arrival goes before the first old entry larger in
        # (size, index) order — before its own old entry on a tie.
        dropped = np.flatnonzero(changed_flags[row_jobs]).tolist()
        at = []
        if hi > lo:
            a_sizes = arr_sizes[lo:hi]
            ins = np.searchsorted(row_sizes, a_sizes, side="left")
            run_ends = np.searchsorted(row_sizes, a_sizes, side="right")
            at = ins.tolist()
            for t in np.flatnonzero(run_ends > ins).tolist():
                pos, end, j = at[t], int(run_ends[t]), arr_jobs[lo + t]
                while pos < end and row_jobs[pos] < j:
                    pos += 1
                at[t] = pos
        # Everything before slot q is unchanged; splice the tail.
        q = min(dropped[:1] + at[:1] + [c])
        cursor = q
        cuts: list[tuple[int, int]] = []  # old slices and arrivals, in order
        d = t = 0
        while d < len(dropped) or t < len(at):
            if t < len(at) and (d == len(dropped) or at[t] <= dropped[d]):
                cuts.append((cursor, at[t]))
                cuts.append((-1, lo + t))
                cursor = at[t]
                t += 1
            else:
                cuts.append((cursor, dropped[d]))
                cursor = dropped[d] + 1
                d += 1
        cuts.append((cursor, c))
        tail_jobs = np.concatenate([
            row_jobs[a:b] if a >= 0 else arr_jobs[b:b + 1] for a, b in cuts
        ])
        tail_sizes = np.concatenate([
            row_sizes[a:b] if a >= 0 else arr_sizes[b:b + 1] for a, b in cuts
        ])
        new_count = q + tail_jobs.shape[0]
        jobs[s + q:s + new_count] = tail_jobs
        sizes[s + q:s + new_count] = tail_sizes
        counts[p] = new_count
        if q < new_count:
            # Re-accumulate from P_q on: the same left-to-right
            # additions a fresh cumsum over the row performs.
            tail_sizes[0] += prefix[s + q]
            np.cumsum(tail_sizes, out=prefix[s + q + 1:s + new_count + 1])
    return tables, changed_procs
