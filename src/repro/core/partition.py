"""PARTITION and M-PARTITION — the 1.5-approximation (Section 3).

``PARTITION`` (Theorem 2) takes the value of ``OPT`` as input and
produces an assignment with makespan at most ``1.5 * OPT`` using no more
job removals than any optimal algorithm uses relocations.

``M-PARTITION`` (Section 3.1, Theorem 3) removes the ``OPT``-oracle
assumption: the tuple ``(L_T, a_i, b_i)`` changes only at the ``O(n)``
threshold values enumerated by :mod:`repro.core.thresholds`, so it scans
those guesses in increasing order and stops at the first guess whose
planned move count is within the budget ``k``.  Lemma 6 shows the
stopping guess never exceeds the true ``OPT``, which preserves the
``1.5``-approximation.  The scan (:func:`scan_thresholds`) slices every
table row's threshold streams in guess-space windows and evaluates
whole chunks of guesses as ``(m, G)`` matrices, with no per-processor
Python loop and without materializing the global threshold union;
every M-PARTITION decide — a cold :func:`m_partition_rebalance` and
every :class:`~repro.core.engine.RebalanceEngine` decide — runs it.

Terminology (Definition 1 of Section 3, with guess ``A``):

* a job is *large* iff its size is strictly greater than ``A / 2``;
* ``L_T`` = total number of large jobs, ``m_L`` = number of processors
  initially holding at least one large job, ``L_E = L_T - m_L``;
* a processor is *large-free* if it currently holds no large job.

The algorithm's phases:

1. On every processor with several large jobs, keep only the smallest
   large job (``L_E`` removals).
2. Compute ``a_i``, ``b_i``, ``c_i = a_i - b_i`` per processor.
3. Select the ``L_T`` processors of smallest ``c_i`` (ties prefer
   processors holding a large job) and remove their ``a_i`` largest
   small jobs, leaving small load at most ``A / 2``.
4. On every unselected processor remove the ``b_i`` largest jobs
   (largest-first removal takes the kept large job first), leaving load
   at most ``A`` and no large jobs; route the removed large jobs to
   distinct large-free selected processors.
5. Route the Step-1 large jobs to the remaining large-free selected
   processors.
6. Greedily place the removed small jobs, each on the current
   minimum-load processor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from .assignment import Assignment
from .instance import Instance
from .result import RebalanceResult
from .thresholds import ThresholdTables, build_tables

__all__ = [
    "GuessEvaluation",
    "evaluate_guess",
    "partition_rebalance",
    "m_partition_rebalance",
    "scan_thresholds",
]


@dataclass(frozen=True)
class GuessEvaluation:
    """Everything PARTITION derives from a guess ``A`` before moving jobs."""

    guess: float
    feasible: bool
    total_large: int  # L_T
    large_processors: int  # m_L
    extra_large: int  # L_E
    a_values: np.ndarray
    b_values: np.ndarray
    c_values: np.ndarray
    planned_moves: int  # \hat{k} = L_E + sum(selected a) + sum(unselected b)
    selected: np.ndarray  # processor indices chosen in Step 3


def _finalize_evaluation(
    guess: float,
    total_large: int,
    a: np.ndarray,
    b: np.ndarray,
    has_large: np.ndarray,
) -> GuessEvaluation:
    """Turn per-processor ``(a, b, has_large)`` values into the Step-3
    selection and planned move count.

    Shared by the single-guess path (:func:`evaluate_guess`) and the
    windowed scan (:func:`scan_thresholds`), so both apply the identical
    tie-breaking rule and produce byte-identical evaluations.
    """
    m = int(a.shape[0])
    c = a - b
    large_processors = int(has_large.sum())
    extra_large = total_large - large_processors

    if total_large > m:
        return GuessEvaluation(
            guess=guess,
            feasible=False,
            total_large=total_large,
            large_processors=large_processors,
            extra_large=extra_large,
            a_values=a,
            b_values=b,
            c_values=c,
            planned_moves=np.iinfo(np.int64).max,
            selected=np.empty(0, dtype=np.int64),
        )

    # Step 3 selection: L_T smallest c_i, ties prefer large processors,
    # then lowest index (determinism).
    order = np.lexsort((np.arange(m), ~has_large, c))
    selected = np.sort(order[:total_large])
    sel_mask = np.zeros(m, dtype=bool)
    sel_mask[selected] = True
    planned = extra_large + int(a[sel_mask].sum()) + int(b[~sel_mask].sum())
    return GuessEvaluation(
        guess=guess,
        feasible=True,
        total_large=total_large,
        large_processors=large_processors,
        extra_large=extra_large,
        a_values=a,
        b_values=b,
        c_values=c,
        planned_moves=planned,
        selected=selected,
    )


def _row_values(
    njobs: np.ndarray, keep_a: np.ndarray, keep_b: np.ndarray, s_cnt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, large)`` per row and guess from per-row counts.

    ``keep_a`` and ``keep_b`` count a row's prefix sums (``P_0``
    included) at most ``guess / 2`` and ``guess``; ``s_cnt`` counts its
    sizes at most ``guess / 2`` — the smalls.  Removing the largest
    smalls first minimizes removals, so ``a_i = s_cnt - max{l <= s_cnt
    : P_l <= guess / 2}``.  ``b_i`` is taken on the post-Step-1
    configuration, all smalls plus the smallest large job — the first
    ``q = min(s_cnt + 1, n_i)`` jobs — so ``b_i = q - max{l <= q : P_l
    <= guess}``.  The caps are ``np.minimum``s because prefix sums
    ascend.
    """
    a = s_cnt - np.minimum(keep_a - 1, s_cnt)
    q = np.where(s_cnt == njobs, njobs, s_cnt + 1)
    b = q - np.minimum(keep_b - 1, q)
    return a, b, njobs - s_cnt


def _values_at(
    tables: ThresholdTables, guesses: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, large)`` as ``(m, G)`` matrices at any guesses, from one
    batched bisection over every row (or from its precomputed
    ``counts``)."""
    half = guesses / 2.0
    g = guesses.shape[0]
    if counts is None:
        counts = tables.count_le(prefix=np.concatenate((half, guesses)), sizes=half)
    return _row_values(
        tables.count[:, None], counts[:, :g], counts[:, g:2 * g], counts[:, 2 * g:]
    )


def evaluate_guess(tables: ThresholdTables, guess: float) -> GuessEvaluation:
    """Compute ``(L_T, a, b, c)``, the Step-3 selection and the planned
    move count for one guess, without constructing the assignment.

    A guess is infeasible when ``L_T > m`` (more large jobs than
    processors; no half-optimal configuration exists at this guess).
    ``L_T`` is the sum of the per-processor large-job counts.
    """
    a, b, large = _values_at(tables, np.asarray([float(guess)]))
    return _finalize_evaluation(
        guess, int(large.sum()), a[:, 0], b[:, 0], large[:, 0] > 0
    )


_CHUNK_START = 256     # candidates evaluated in the first chunk
_CHUNK_GROWTH = 4      # geometric chunk growth on a miss


def _window_candidates(tables: ThresholdTables, lo: float, hi: float) -> np.ndarray:
    """Distinct candidate values in ``(lo, hi]`` across every row's
    three streams, ascending."""
    return np.unique(tables.window(lo, hi)[1])


def _values_in_window(
    tables: ThresholdTables,
    guesses: np.ndarray,
    below: np.ndarray,
    values: np.ndarray,
    streams: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, large)`` at ascending ``guesses`` inside a
    :meth:`~repro.core.thresholds.ThresholdTables.window`.

    A row's count at a guess is its count at the window's ``lo`` plus
    its window values up to the guess, so one ``searchsorted`` of the
    window's values into the guesses, a ``bincount`` and a cumsum along
    the guesses replace a per-row search at every guess.
    """
    m = tables.num_processors
    g = guesses.shape[0]
    at = np.searchsorted(guesses, values, side="left")
    inside = at < g
    hist = np.bincount(streams[inside] * g + at[inside], minlength=3 * m * g)
    counts = np.cumsum(hist.reshape(3, m, g), axis=2)
    counts += below[:, :, None]
    return _row_values(tables.count[:, None], counts[1], counts[0], counts[2])


def _planned_moves(
    a: np.ndarray, b: np.ndarray, large: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(feasible, k_hat)`` for each guess column of ``(m, G)`` values.

    The per-guess math is :func:`_finalize_evaluation`'s: the Step-3
    selection total (sum of the ``L_T`` smallest ``c_i``) comes from one
    axis-sort + cumsum over the ``(guesses, m)`` cost matrix.  With no
    large job at any guess (``L_T = 0``) every guess is feasible and
    ``k_hat`` reduces to ``sum_i b_i``, with no sort.
    """
    m, count = a.shape
    total_large = large.sum(axis=0)
    if not total_large.any():
        return np.ones(count, dtype=bool), b.sum(axis=0)
    large_procs = (large > 0).sum(axis=0)
    feasible = total_large <= m
    c_sorted = np.sort(np.ascontiguousarray((a - b).T), axis=1)
    csum = np.cumsum(c_sorted, axis=1)
    lt = np.minimum(total_large, m)
    smallest = np.where(
        lt > 0, csum[np.arange(count), np.maximum(lt, 1) - 1], 0
    )
    k_hat = (total_large - large_procs) + b.sum(axis=0) + smallest
    return feasible, k_hat


def _start_guess(
    tables: ThresholdTables, average_load: float
) -> tuple[float, np.ndarray | None]:
    """The largest threshold not exceeding ``average_load``, or the
    smallest threshold when all exceed it (Section 3.1: the average load
    never exceeds ``OPT``), from one bisection over every row.

    ``2 x <= g`` iff ``x <= g / 2`` (doubling is exact), so the doubled
    streams position at ``average_load / 2`` against the undoubled
    arrays.  Returns ``(start, counts)``: when the start is the largest
    threshold at most ``average_load``, no threshold lies in between, so
    the per-row counts there are the counts at the start too
    (``counts`` as :func:`_values_at` reads them); otherwise ``None``.
    """
    half = average_load / 2.0
    counts = tables.count_le(prefix=(half, average_load), sizes=(half,))
    # P_0 == 0 is not a candidate: a prefix count of 1 (or 0, for loads
    # below zero) means no value of that stream qualifies.
    last_half = counts[:, 0] - 1
    last_full = counts[:, 1] - 1
    small = counts[:, 2]
    best = np.concatenate((
        tables.prefix_at(last_full)[last_full > 0],
        2.0 * tables.prefix_at(last_half)[last_half > 0],
        2.0 * tables.sizes_at(small - 1)[small > 0],
    ))
    if best.shape[0]:
        return float(best.max()), counts
    # Every threshold exceeds the average: the smallest is a busy row's
    # P_1 or its doubled smallest size.
    busy = tables.count > 0
    return float(min(
        tables.prefix_at(1)[busy].min(), (2.0 * tables.sizes_at(0)[busy]).min()
    )), None


def _chunks(
    tables: ThresholdTables,
    start: float,
    counts: np.ndarray | None,
    width: float,
    small: bool,
):
    """Ascending candidate chunks with their ``(a, b, large)`` matrices:
    the start guess alone (from ``counts`` when given), then successive
    windows ``(lo, lo + width]``, each cut into geometrically growing
    chunks, with the width quadrupling per window up to the largest
    threshold.  In the all-small regime only the prefix stream supplies
    candidates."""
    guesses = np.asarray([start])
    yield guesses, _values_at(tables, guesses, counts)
    # 2 * (full prefix sum) bounds every stream of a processor.
    hi_cap = 2.0 * float(tables.loads().max())
    m = tables.num_processors
    lo = start
    while lo < hi_cap:
        hi = max(min(lo + width, hi_cap), np.nextafter(lo, np.inf))
        below, values, streams = tables.window(lo, hi)
        window = np.unique(values[streams < m] if small else values)
        chunk = _CHUNK_START
        offset = 0
        while offset < window.shape[0]:
            guesses = window[offset:offset + chunk]
            yield guesses, _values_in_window(tables, guesses, below, values, streams)
            offset += chunk
            chunk *= _CHUNK_GROWTH
        lo = hi
        width *= 4.0


def scan_thresholds(
    tables: ThresholdTables, k: int, average_load: float
) -> tuple[GuessEvaluation, int]:
    """Theorem 3's scan: the evaluation at the first feasible threshold
    planning at most ``k`` moves, and the number of thresholds tried.

    Visits exactly the distinct threshold values ``>=`` the
    :func:`_start_guess` guess, in ascending order, and stops where a
    scan over the materialized union of every row's thresholds stops —
    without ever building that union (an ``np.unique`` over ``3n``
    values).
    Candidates are pulled in guess-space *windows* (sized from
    ``k * mean_size / m``, the load span a ``k``-move budget can
    flatten; a miss re-slices 4x wider) and evaluated in geometrically
    growing chunks as ``(m, G)`` matrices, with no per-processor Python
    (:func:`_values_in_window`).  A processor's values change only at
    its own thresholds, so the evaluated column at the stop guess is
    exactly every processor's ``(a_i, b_i, has_large_i)`` there, and the
    Step-3 selection finalizes from it.

    ``tried`` counts the distinct thresholds evaluated from the start
    guess through the stop guess.  ``tables`` must hold at least one
    job.
    """
    m = tables.num_processors
    start, counts = _start_guess(tables, average_load)
    mean_size = average_load * m / tables.instance.num_jobs
    width = max(4.0 * k * mean_size / m, 16.0 * mean_size)
    # All-small regime: every job is small at the start guess and stays
    # small at every larger guess, so k_hat == sum_i b_i changes only at
    # prefix-stream thresholds — values from the doubled streams can
    # never be the first feasible one.  Walk just the prefix stream.
    small = start >= 2.0 * tables.max_size()
    tried = 0
    for cands, (a, b, large) in _chunks(tables, start, counts, width, small):
        feasible, k_hats = _planned_moves(a, b, large)
        hits = np.flatnonzero(feasible & (k_hats <= k))
        if not hits.shape[0]:
            tried += int(cands.shape[0])
            continue
        j = int(hits[0])
        guess = float(cands[j])
        k_hat = int(k_hats[j])
        if small:
            # The walk skipped the doubled streams' values; count them
            # back in with one slice.
            tried = 1
            if guess > start:
                tried += int(_window_candidates(tables, start, guess).shape[0])
        else:
            tried += j + 1
        ev = _finalize_evaluation(
            guess, int(large[:, j].sum()), a[:, j], b[:, j], large[:, j] > 0
        )
        if ev.planned_moves != k_hat:
            raise AssertionError(
                f"windowed k-hat {k_hat} disagrees with the Step-3 selection "
                f"{ev.planned_moves} at guess {guess}"
            )
        return ev, tried
    # Unreachable for well-formed instances: the full load of the
    # heaviest processor is a threshold, and no moves are planned there.
    # Kept as a safeguard.
    raise RuntimeError("no feasible threshold found")  # pragma: no cover


def _construct(
    instance: Instance, tables: ThresholdTables, ev: GuessEvaluation
) -> Assignment:
    """Execute Steps 1 and 3–6 for an evaluated (feasible) guess.

    Steps 1, 3 and 4 are row ranges of the tables: each processor sheds
    Step 1's extra large jobs (all but its smallest large one), then —
    if unselected — its kept large job, then its largest smalls (``a_i``
    of them when selected, the rest of ``b_i`` otherwise).  The loads
    replay each row's subtractions in that order, one
    ``np.subtract.reduceat`` segment per row, so they round exactly as
    subtracting job by job does.
    """
    if not ev.feasible:
        raise ValueError(f"guess {ev.guess} is infeasible (L_T > m)")
    m = instance.num_processors
    sizes = instance.sizes
    mapping = np.array(instance.initial, dtype=np.int64)
    count = tables.count
    s_cnt = tables.count_le(sizes=(ev.guess / 2.0,))[:, 0]
    has_large = s_cnt < count
    sel_mask = np.zeros(m, dtype=bool)
    sel_mask[ev.selected] = True
    # Step 4 removes largest-first, so an unselected processor's kept
    # large job goes first.  A large processor with b_i == 0 is always
    # selected (it has a_i == 0 hence c_i == 0, and the tie-break
    # prefers large processors), so here b_i >= 1.
    floats = has_large & ~sel_mask
    if np.any(floats & (ev.b_values == 0)):
        raise AssertionError("unselected large processor with b_i == 0")
    shed = np.where(sel_mask, ev.a_values, ev.b_values - floats)
    # Per row: Step 1's extra large jobs, the kept (smallest) large job
    # when it floats, then the largest smalls — in shedding order.
    firsts = np.stack((s_cnt + 1, s_cnt, s_cnt - shed), axis=1)
    lengths = np.stack(
        (np.maximum(count - s_cnt - 1, 0), floats.astype(np.int64), shed), axis=1
    )
    shed_jobs, shed_sizes = tables.ranges(firsts, lengths)
    is_small = np.repeat(np.tile([False, False, True], m), lengths.reshape(-1))
    floating_large = shed_jobs[~is_small]
    removed_small = shed_jobs[is_small]
    # One reduceat segment per row: its load, then the sizes it sheds.
    per_row = lengths.sum(axis=1)
    heads = np.arange(m, dtype=np.int64) + np.cumsum(per_row) - per_row
    replay = np.empty(m + int(per_row.sum()))
    shed_slot = np.ones(replay.shape[0], dtype=bool)
    shed_slot[heads] = False
    replay[heads] = tables.loads()
    replay[shed_slot] = shed_sizes
    loads = np.subtract.reduceat(replay, heads)

    # Steps 4b/5: route floating large jobs to distinct large-free
    # selected processors.  The counting identity L_E + (m_L - s_L) ==
    # L_T - s_L guarantees an exact fit.
    large_free_selected = ev.selected[~has_large[ev.selected]]
    if floating_large.shape[0] != large_free_selected.shape[0]:
        raise AssertionError(
            f"{floating_large.shape[0]} floating large jobs vs "
            f"{large_free_selected.shape[0]} large-free selected processors"
        )
    mapping[floating_large] = large_free_selected
    loads[large_free_selected] += sizes[floating_large]

    # Step 6: greedy min-load placement of removed small jobs.  The
    # paper allows any order; descending size (Graham/LPT style) is the
    # strongest in practice and satisfies the same bound.  Heap entries
    # carry a per-processor version counter so staleness detection does
    # not depend on float round-trip identity.
    # Python floats add exactly as float64 scalars do.
    removed_small = removed_small[np.lexsort((removed_small, -sizes[removed_small]))]
    load_list = loads.tolist()
    version = [0] * m
    heap = [(load, 0, i) for i, load in enumerate(load_list)]
    heapq.heapify(heap)
    heap_pops = 0
    homes = []
    for size in sizes[removed_small].tolist():
        _, ver, i = heapq.heappop(heap)
        heap_pops += 1
        while ver != version[i]:
            _, ver, i = heapq.heappop(heap)  # stale entry
            heap_pops += 1
        homes.append(i)
        load_list[i] += size
        version[i] += 1
        heapq.heappush(heap, (load_list[i], version[i], i))
    telemetry.count("heap_pops", heap_pops)
    mapping[removed_small] = homes
    loads = np.asarray(load_list, dtype=np.float64)

    # Only jobs touched above can differ from the initial assignment (a
    # removed job may be placed back on its origin at zero real cost),
    # so the actual-relocation set — and the exact loads maintained all
    # along — are known here in O(moves): hand both to ``Assignment``
    # to skip its O(n) copy/scatter-add accounting.
    touched = np.concatenate((floating_large, removed_small))
    if touched.shape[0]:
        cand = np.unique(touched)
        moved = cand[mapping[cand] != np.asarray(instance.initial)[cand]]
    else:
        moved = np.empty(0, dtype=np.int64)
    return Assignment(
        instance=instance, mapping=mapping, _loads=loads, _moved=moved
    )


def partition_rebalance(
    instance: Instance,
    opt: float,
    k: int | None = None,
    tables: ThresholdTables | None = None,
) -> RebalanceResult:
    """PARTITION with a known (or guessed) value ``opt`` for the optimum.

    Theorem 2: if ``opt`` is the true optimal makespan for budget ``k``,
    the result has makespan at most ``1.5 * opt`` and uses at most as
    many moves as the optimal solution (hence at most ``k``).

    Passing a guess ``opt`` *below* the true optimum is allowed as long
    as it is feasible (``L_T <= m``); the makespan bound then degrades
    gracefully to ``1.5 *`` the true optimum (Section 3.1's analysis),
    while a guess above the optimum weakens the bound to
    ``1.5 * opt``.

    Raises ``ValueError`` on an infeasible guess; raises
    ``ValueError`` when ``k`` is given and the plan needs more moves.
    """
    tmark = telemetry.mark()
    if tables is None:
        with telemetry.span("partition.build_tables"):
            tables = build_tables(instance)
    with telemetry.span("partition.evaluate"):
        ev = evaluate_guess(tables, opt)
    if not ev.feasible:
        raise ValueError(
            f"guess {opt} admits {ev.total_large} large jobs on "
            f"{instance.num_processors} processors; no half-optimal "
            "configuration exists"
        )
    if k is not None and ev.planned_moves > k:
        raise ValueError(
            f"PARTITION at guess {opt} plans {ev.planned_moves} moves, "
            f"exceeding the budget k={k}; raise the guess"
        )
    with telemetry.span("partition.construct"):
        assignment = _construct(instance, tables, ev)
    assignment.validate(max_moves=k)
    return RebalanceResult(
        assignment=assignment,
        algorithm="partition",
        guessed_opt=opt,
        planned_moves=ev.planned_moves,
        meta=telemetry.attach(
            {
                "L_T": ev.total_large,
                "m_L": ev.large_processors,
                "L_E": ev.extra_large,
            },
            tmark,
        ),
    )


def m_partition_rebalance(
    instance: Instance,
    k: int,
    tables: ThresholdTables | None = None,
) -> RebalanceResult:
    """M-PARTITION (Theorem 3): the 1.5-approximation without the oracle.

    Scans the Lemma-5 threshold values in increasing order, starting
    from the largest threshold not exceeding the average load (the
    paper's starting guess — the average load never exceeds ``OPT``),
    and returns the construction at the first feasible guess whose
    planned move count is at most ``k`` (:func:`scan_thresholds`).

    Lemma 6 guarantees the scan stops no later than the largest
    threshold below the true ``OPT`` (which plans no more moves than the
    optimal solution), so the final guess is at most ``OPT`` and the
    resulting makespan is at most ``1.5 * OPT``.

    ``tables`` may supply prebuilt threshold tables for ``instance``
    (e.g. tables patched across epochs by
    :class:`repro.core.engine.RebalanceEngine`); they must describe the
    same sizes and initial assignment.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    tmark = telemetry.mark()
    if tables is None:
        with telemetry.span("m_partition.build_tables"):
            tables = build_tables(instance)
    if instance.num_jobs == 0:
        return RebalanceResult(
            assignment=Assignment.initial(instance),
            algorithm="m-partition",
            guessed_opt=0.0,
            planned_moves=0,
        )
    with telemetry.span("m_partition.scan"):
        ev, tried = scan_thresholds(tables, k, instance.average_load)
    telemetry.count("thresholds_tried", tried)
    with telemetry.span("m_partition.construct"):
        assignment = _construct(instance, tables, ev)
    assignment.validate(max_moves=k)
    return RebalanceResult(
        assignment=assignment,
        algorithm="m-partition",
        guessed_opt=ev.guess,
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
