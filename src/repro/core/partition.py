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
``1.5``-approximation.  The scan (:func:`scan_thresholds`) slices the
per-processor threshold streams in guess-space windows and evaluates
whole chunks of guesses with numpy, never materializing the global
threshold union; every M-PARTITION decide — a cold
:func:`m_partition_rebalance` and every
:class:`~repro.core.engine.RebalanceEngine` decide — runs it.

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

    Shared by the per-processor path (:func:`evaluate_guess`) and the
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


def evaluate_guess(tables: ThresholdTables, guess: float) -> GuessEvaluation:
    """Compute ``(L_T, a, b, c)``, the Step-3 selection and the planned
    move count for one guess, without constructing the assignment.

    A guess is infeasible when ``L_T > m`` (more large jobs than
    processors; no half-optimal configuration exists at this guess).
    ``L_T`` is the sum of the per-processor large-job counts.
    """
    m = len(tables.processors)
    a = np.empty(m, dtype=np.int64)
    b = np.empty(m, dtype=np.int64)
    large = np.empty(m, dtype=np.int64)
    for i, proc in enumerate(tables.processors):
        a[i], b[i], large[i] = proc.evaluate(guess)
    return _finalize_evaluation(guess, int(large.sum()), a, b, large > 0)


_CHUNK_START = 256     # candidates evaluated in the first chunk
_CHUNK_GROWTH = 4      # geometric chunk growth on a miss


def _window_candidates(procs, indices, lo: float, hi: float) -> np.ndarray:
    """Distinct candidate values in ``(lo, hi]`` across the named
    processors' three Lemma-5 streams, ascending.

    Doubling and halving are exact in binary floats, so the doubled
    streams slice against the undoubled arrays at the halved bounds —
    the values returned are bit-identical to the ones a merged
    enumeration would yield.  Two ``searchsorted`` dispatches per
    processor plus one ``unique`` over the window.
    """
    parts = []
    bounds = (lo, hi, lo / 2.0, hi / 2.0)
    half_bounds = bounds[2:]
    for i in indices:
        proc = procs[i]
        pre = proc.prefix
        sa = proc.sizes_asc
        l1, h1, l2, h2 = np.searchsorted(pre, bounds, side="right")
        if h1 > l1:
            parts.append(pre[l1:h1])
        if h2 > l2:
            parts.append(2.0 * pre[l2:h2])
        l3, h3 = np.searchsorted(sa, half_bounds, side="right")
        if h3 > l3:
            parts.append(2.0 * sa[l3:h3])
    if not parts:
        return np.empty(0)
    return np.unique(np.concatenate(parts))


def _prefix_candidates(procs, indices, lo: float, hi: float) -> np.ndarray:
    """Distinct prefix-stream candidates in ``(lo, hi]``, ascending.

    In the all-small regime (``guess >= 2 * max_size``) these are the
    only thresholds where ``k_hat`` can change, so the walk slices just
    this stream — one ``searchsorted`` dispatch per processor.
    """
    parts = []
    bounds = (lo, hi)
    for i in indices:
        pre = procs[i].prefix
        l1, h1 = np.searchsorted(pre, bounds, side="right")
        if h1 > l1:
            parts.append(pre[l1:h1])
    if not parts:
        return np.empty(0)
    return np.unique(np.concatenate(parts))


def _window_planned_moves_small(
    tables: ThresholdTables, guesses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(k_hat, a, b)`` for a chunk of guesses in the all-small regime.

    With every job small at every guess (``guesses[0] >= 2 *
    max_size``): ``L_T = 0``, so the Step-3 selection total vanishes,
    ``s_cnt = q = n_i``, and ``k_hat`` reduces to ``sum_i b_i`` — one
    ``searchsorted`` dispatch per processor (at the halved and the full
    guesses) and a few matrix ops, no sort.  Every guess is feasible
    (``L_T = 0 <= m``).  ``a`` and ``b`` are the ``(m, G)``
    per-processor value matrices.
    """
    procs = tables.processors
    m = len(procs)
    count = guesses.shape[0]
    half_and_full = np.concatenate((guesses / 2.0, guesses))
    # keeps rows default to 1 (-> 0 after the global -1): the correct
    # "keep nothing past P_0" value for empty processors.
    keeps = np.ones((m, 2 * count), dtype=np.int64)
    njobs = np.zeros((m, 1), dtype=np.int64)
    for i, proc in enumerate(procs):
        if not proc.num_jobs:
            continue
        njobs[i, 0] = proc.num_jobs
        keeps[i] = np.searchsorted(proc.prefix, half_and_full, side="right")
    keeps -= 1
    removed = njobs - np.minimum(keeps, njobs)
    a, b = removed[:, :count], removed[:, count:]
    return b.sum(axis=0), a, b


def _window_planned_moves(
    tables: ThresholdTables, guesses: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``(feasible, k_hat)`` arrays for a whole chunk of guesses.

    The per-guess math is :meth:`ProcessorTable.evaluate` verbatim —
    the prefix-slice caps become ``np.minimum`` against the full-array
    ``searchsorted``, which is equivalent because the prefixes are
    ascending — and the Step-3 selection total (sum of the ``L_T``
    smallest ``c_i``) comes from one axis-sort + cumsum over the
    ``(guesses, m)`` cost matrix.  Cost: two vectorized
    ``searchsorted`` dispatches per processor (everything else is
    whole-matrix arithmetic) plus an ``O(G m log m)`` sort — no Python
    work proportional to ``G``.

    Returns ``(feasible, k_hat, a, b, large)``; the last three are the
    ``(m, G)`` per-processor value matrices, whose column at the stop
    guess finalizes the Step-3 selection.
    """
    procs = tables.processors
    m = len(procs)
    count = guesses.shape[0]
    half = guesses / 2.0
    half_and_full = np.concatenate((half, guesses))
    # keeps rows default to 1 (-> 0 after the global -1): the correct
    # "keep nothing past P_0" value for empty processors.
    keeps = np.ones((m, 2 * count), dtype=np.int64)
    s_cnt = np.zeros((m, count), dtype=np.int64)
    njobs = np.zeros((m, 1), dtype=np.int64)
    for i, proc in enumerate(procs):
        if not proc.num_jobs:
            continue
        njobs[i, 0] = proc.num_jobs
        keeps[i] = np.searchsorted(proc.prefix, half_and_full, side="right")
        s_cnt[i] = np.searchsorted(proc.sizes_asc, half, side="right")
    keeps -= 1
    a = s_cnt - np.minimum(keeps[:, :count], s_cnt)
    q = np.where(s_cnt == njobs, njobs, s_cnt + 1)
    b = q - np.minimum(keeps[:, count:], q)
    large = njobs - s_cnt
    total_large = large.sum(axis=0)
    large_procs = (large > 0).sum(axis=0)
    feasible = total_large <= m
    c_sorted = np.sort(np.ascontiguousarray((a - b).T), axis=1)
    csum = np.cumsum(c_sorted, axis=1)
    lt = np.minimum(total_large, m)
    smallest = np.where(
        lt > 0, csum[np.arange(count), np.maximum(lt, 1) - 1], 0
    )
    k_hat = (total_large - large_procs) + b.sum(axis=0) + smallest
    return feasible, k_hat, a, b, large


def _start_guess(procs, indices, average_load: float) -> float:
    """The largest threshold not exceeding ``average_load``, or the
    smallest threshold when all exceed it —
    :func:`~repro.core.thresholds.scan_start`'s clamp on the global
    union, from three ``searchsorted`` calls per processor.

    ``2 x <= g`` iff ``x <= g / 2`` (doubling is exact), so the doubled
    streams position at ``average_load / 2`` against the undoubled
    arrays.
    """
    half = average_load / 2.0
    best = -np.inf
    smallest = np.inf
    for i in indices:
        pre = procs[i].prefix
        sa = procs[i].sizes_asc
        # P_0 == 0 is not a candidate: an index of 0 (or -1, for loads
        # below zero) means no value of that stream qualifies.
        i1 = int(np.searchsorted(pre, average_load, side="right")) - 1
        i2 = int(np.searchsorted(pre, half, side="right")) - 1
        i3 = int(np.searchsorted(sa, half, side="right"))
        if i1 > 0:
            best = max(best, float(pre[i1]))
        if i2 > 0:
            best = max(best, 2.0 * float(pre[i2]))
        if i3 > 0:
            best = max(best, 2.0 * float(sa[i3 - 1]))
        smallest = min(smallest, float(pre[1]), 2.0 * float(sa[0]))
    return best if best > -np.inf else smallest


def _chunks(window_fn, procs, indices, start: float, width: float):
    """Ascending candidate chunks: the start guess alone, then
    successive windows ``(lo, lo + width]`` sliced by ``window_fn``,
    each cut into geometrically growing chunks, with the width
    quadrupling per window up to the largest threshold."""
    yield np.asarray([start])
    # 2 * (full prefix sum) bounds every stream of a processor.
    hi_cap = max(2.0 * float(procs[i].prefix[-1]) for i in indices)
    lo = start
    while lo < hi_cap:
        hi = max(min(lo + width, hi_cap), np.nextafter(lo, np.inf))
        window = window_fn(procs, indices, lo, hi)
        chunk = _CHUNK_START
        offset = 0
        while offset < window.shape[0]:
            yield window[offset:offset + chunk]
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
    :func:`~repro.core.thresholds.scan_start` guess, in ascending order,
    and stops where a scan over the materialized union
    (:func:`~repro.core.thresholds.candidate_guesses`) stops — without
    ever building that union (an ``np.unique`` over ``3n`` values).
    Candidates are pulled in guess-space *windows* (sized from
    ``k * mean_size / m``, the load span a ``k``-move budget can
    flatten; a miss re-slices 4x wider) and evaluated in geometrically
    growing chunks by :func:`_window_planned_moves`, so the
    per-candidate cost is a numpy inner loop.  A processor's values
    change only at its own thresholds, so the evaluated column at the
    stop guess is exactly every processor's ``(a_i, b_i, has_large_i)``
    there, and the Step-3 selection finalizes from it.

    ``tried`` counts the distinct thresholds evaluated from the start
    guess through the stop guess.  ``tables`` must hold at least one
    job.
    """
    procs = tables.processors
    nonempty = [i for i, proc in enumerate(procs) if proc.num_jobs]
    start = _start_guess(procs, nonempty, average_load)
    max_size = max(float(procs[i].sizes_asc[-1]) for i in nonempty)
    mean_size = average_load * len(procs) / tables.instance.num_jobs
    width = max(4.0 * k * mean_size / len(procs), 16.0 * mean_size)
    # All-small regime: every job is small at the start guess and stays
    # small at every larger guess, so k_hat == sum_i b_i changes only at
    # prefix-stream thresholds — values from the doubled streams can
    # never be the first feasible one.  Walk just the prefix stream.
    small = start >= 2.0 * max_size
    window_fn = _prefix_candidates if small else _window_candidates
    tried = 0
    for cands in _chunks(window_fn, procs, nonempty, start, width):
        if small:
            k_hats, a, b = _window_planned_moves_small(tables, cands)
            large = np.zeros_like(a)
            hits = np.flatnonzero(k_hats <= k)
        else:
            feasible, k_hats, a, b, large = _window_planned_moves(tables, cands)
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
                tried += int(
                    _window_candidates(procs, nonempty, start, guess).shape[0]
                )
        else:
            tried += j + 1
        ev = _finalize_evaluation(
            guess, int(large[:, j].sum()), a[:, j], b[:, j], large[:, j] > 0
        )
        assert ev.planned_moves == k_hat, (
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
    """Execute Steps 1 and 3–6 for an evaluated (feasible) guess."""
    if not ev.feasible:
        raise ValueError(f"guess {ev.guess} is infeasible (L_T > m)")
    guess = ev.guess
    m = instance.num_processors
    mapping = np.array(instance.initial, dtype=np.int64)
    # Per-processor totals already exist as the bucket prefix sums'
    # last entries — O(m), versus the O(n) scatter-add behind
    # ``instance.initial_loads``.
    loads = np.fromiter(
        (float(proc.prefix[-1]) for proc in tables.processors),
        dtype=np.float64, count=m,
    )
    sel_mask = np.zeros(m, dtype=bool)
    sel_mask[ev.selected] = True

    floating_large: list[int] = []  # removed large jobs awaiting a home
    removed_small: list[int] = []  # removed small jobs for Step 6
    selected_has_large = np.zeros(m, dtype=bool)

    for i, proc in enumerate(tables.processors):
        s_cnt = proc.small_count(guess)
        smalls = proc.jobs_asc[:s_cnt]
        larges = proc.jobs_asc[s_cnt:]
        # Step 1: keep only the smallest large job.
        for j in larges[1:]:
            floating_large.append(int(j))
            loads[i] -= instance.sizes[j]
        kept_large = int(larges[0]) if larges.size else None

        if sel_mask[i]:
            # Step 3: shed the a_i largest smalls; the large job stays.
            a_i = int(ev.a_values[i])
            for j in smalls[s_cnt - a_i :]:
                removed_small.append(int(j))
                loads[i] -= instance.sizes[j]
            selected_has_large[i] = kept_large is not None
        else:
            # Step 4: shed the b_i largest jobs of the current
            # configuration (smalls + kept large).  Largest-first
            # removal takes the kept large job first when b_i >= 1.
            b_i = int(ev.b_values[i])
            if kept_large is not None:
                # A large processor with b_i == 0 is always selected
                # (it has a_i == 0 hence c_i == 0, and the tie-break
                # prefers large processors), so here b_i >= 1.
                assert b_i >= 1, "unselected large processor with b_i == 0"
                floating_large.append(kept_large)
                loads[i] -= instance.sizes[kept_large]
                b_i -= 1
            for j in smalls[s_cnt - b_i :] if b_i else smalls[:0]:
                removed_small.append(int(j))
                loads[i] -= instance.sizes[j]

    # Steps 4b/5: route floating large jobs to distinct large-free
    # selected processors.  The counting identity L_E + (m_L - s_L) ==
    # L_T - s_L guarantees an exact fit.
    large_free_selected = [int(i) for i in ev.selected if not selected_has_large[i]]
    assert len(floating_large) == len(large_free_selected), (
        f"{len(floating_large)} floating large jobs vs "
        f"{len(large_free_selected)} large-free selected processors"
    )
    for j, i in zip(floating_large, large_free_selected):
        mapping[j] = i
        loads[i] += instance.sizes[j]
    touched = list(floating_large)

    # Step 6: greedy min-load placement of removed small jobs.  The
    # paper allows any order; descending size (Graham/LPT style) is the
    # strongest in practice and satisfies the same bound.  Heap entries
    # carry a per-processor version counter so staleness detection does
    # not depend on float round-trip identity.
    removed_small.sort(key=lambda j: (-instance.sizes[j], j))
    version = [0] * m
    heap = [(float(loads[i]), 0, i) for i in range(m)]
    heapq.heapify(heap)
    heap_pops = 0
    for j in removed_small:
        _, ver, i = heapq.heappop(heap)
        heap_pops += 1
        while ver != version[i]:
            _, ver, i = heapq.heappop(heap)  # stale entry
            heap_pops += 1
        mapping[j] = i
        loads[i] += instance.sizes[j]
        version[i] += 1
        heapq.heappush(heap, (float(loads[i]), version[i], i))
    telemetry.count("heap_pops", heap_pops)

    # Only jobs touched above can differ from the initial assignment (a
    # removed job may be placed back on its origin at zero real cost),
    # so the actual-relocation set — and the exact loads maintained all
    # along — are known here in O(moves): hand both to ``Assignment``
    # to skip its O(n) copy/scatter-add accounting.
    touched.extend(removed_small)
    if touched:
        cand = np.unique(np.asarray(touched, dtype=np.int64))
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
