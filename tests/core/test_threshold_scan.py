"""M-PARTITION's windowed threshold scan against the rescan it replaced.

``m_partition_rebalance`` and the engine's unhinted decide used to
materialize the global threshold union (:func:`candidate_guesses`), start
at :func:`scan_start` and re-evaluate every processor at each threshold
until the first feasible one planning at most ``k`` moves.  That
per-guess rescan is kept here as the oracle, and both callers of the
windowed scan must match it exactly: stop guess, planned moves,
``thresholds_tried`` and the constructed mapping.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Instance,
    RebalanceEngine,
    ThresholdTables,
    build_tables,
    m_partition_rebalance,
)
from repro.core import partition
from repro.core.partition import _construct, _finalize_evaluation, scan_thresholds
from repro.core.thresholds import row_ranges

# Integers tie often; tenths and thousandths make per-processor prefix
# sums depend on their summation order.
SIZES = st.one_of(
    st.integers(min_value=1, max_value=6).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 1e-3]),
)


def _instance(sizes, initial, m: int) -> Instance:
    return Instance(
        sizes=np.array(sizes, dtype=np.float64),
        costs=np.ones(len(sizes)),
        num_processors=m,
        initial=np.array(initial, dtype=np.int64),
    )


@st.composite
def scan_cases(draw, max_jobs: int = 30, max_processors: int = 6):
    """Tie-heavy instances, possibly with empty processors, and a budget
    anywhere in ``[0, n]``."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    m = draw(st.integers(min_value=1, max_value=max_processors))
    used = draw(st.integers(min_value=1, max_value=m))
    sizes = draw(st.lists(SIZES, min_size=n, max_size=n))
    initial = draw(
        st.lists(st.integers(min_value=0, max_value=used - 1), min_size=n, max_size=n)
    )
    k = draw(st.integers(min_value=0, max_value=n))
    return _instance(sizes, initial, m), k


# --- Oracle: the per-guess rescan the windowed scan replaced. --------------


def candidate_guesses(tables: ThresholdTables) -> np.ndarray:
    """All threshold values for the guess ``A``, sorted ascending.

    Per Lemma 5 the tuple ``(L_T, a_1..a_m, b_1..b_m)`` is constant for
    ``A`` between consecutive values of this set, so M-PARTITION only
    ever needs to try these ``O(n)`` guesses.
    """
    first = tables.start[:-1]
    sizes = tables.values[0, row_ranges(first, tables.count)]
    prefix = tables.values[1, row_ranges(first + 1, tables.count)]
    return np.unique(np.concatenate((2.0 * sizes, prefix, 2.0 * prefix)))


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
    """
    if candidates.shape[0] == 0:
        return 0
    start = int(np.searchsorted(candidates, average_load, side="right")) - 1
    return min(max(start, 0), int(candidates.shape[0]) - 1)


def small_count(sizes: np.ndarray, guess: float) -> int:
    """Jobs of one table row of size at most ``guess / 2`` (the smalls)."""
    return int(np.searchsorted(sizes, guess / 2.0, side="right"))


def a_value(sizes: np.ndarray, prefix: np.ndarray, guess: float) -> int:
    """``a_i`` of one table row: removals so its smalls total <= guess/2."""
    s_cnt = small_count(sizes, guess)
    keep = int(np.searchsorted(prefix[: s_cnt + 1], guess / 2.0, side="right") - 1)
    return s_cnt - keep


def b_value(sizes: np.ndarray, prefix: np.ndarray, guess: float) -> int:
    """``b_i`` of one table row: removals so all smalls plus the smallest
    large job — the first ``min(s_cnt + 1, n_i)`` jobs — total <= guess."""
    s_cnt = small_count(sizes, guess)
    n_i = int(sizes.shape[0])
    q = n_i if s_cnt == n_i else s_cnt + 1
    keep = int(np.searchsorted(prefix[: q + 1], guess, side="right") - 1)
    return q - keep


def rescan(instance: Instance, k: int):
    """``(evaluation, thresholds_tried, mapping)`` of the rescan: every
    processor evaluated at every threshold from the start guess on, with
    ``L_T`` read off the globally sorted sizes."""
    tables = build_tables(instance)
    sizes_asc = np.sort(instance.sizes)
    candidates = candidate_guesses(tables)
    tried = 0
    for idx in range(scan_start(candidates, instance.average_load), candidates.shape[0]):
        guess = float(candidates[idx])
        tried += 1
        m = instance.num_processors
        a = np.empty(m, dtype=np.int64)
        b = np.empty(m, dtype=np.int64)
        has_large = np.empty(m, dtype=bool)
        for i in range(m):
            _, sizes, prefix = tables.row(i)
            a[i] = a_value(sizes, prefix, guess)
            b[i] = b_value(sizes, prefix, guess)
            has_large[i] = small_count(sizes, guess) < sizes.shape[0]
        total_large = instance.num_jobs - int(
            np.searchsorted(sizes_asc, guess / 2.0, side="right")
        )
        ev = _finalize_evaluation(guess, total_large, a, b, has_large)
        if ev.feasible and ev.planned_moves <= k:
            return ev, tried, _construct(instance, tables, ev).mapping
    raise AssertionError("the rescan found no feasible threshold")


def assert_matches_rescan(instance: Instance, k: int, result) -> None:
    ev, tried, mapping = rescan(instance, k)
    assert result.guessed_opt == ev.guess
    assert result.planned_moves == ev.planned_moves
    assert result.meta["thresholds_tried"] == tried
    assert result.meta["L_T"] == ev.total_large
    assert np.array_equal(result.assignment.mapping, mapping)


# Start guess >= 2 * the largest job: every job small on the whole scan,
# which walks only the prefix stream; doubled-stream values (0.602, 0.8,
# 1.0, 1.002) lie between its start and its stop and must be counted.
ALL_SMALL = (
    _instance(
        [0.2, 0.2, 1e-3, 0.3, 0.2, 0.1, 0.2, 0.2, 0.2, 0.3, 0.1],
        [0, 2, 0, 0, 1, 0, 2, 0, 1, 0, 1],
        3,
    ),
    0,
)
ONE_PROC = (_instance([2.0, 2.0, 0.1, 0.2, 0.1], [0] * 5, 1), 0)
EMPTY_PROCS = (_instance([3.0, 1.0, 0.3, 0.3, 2.0, 1e-3], [0, 0, 1, 1, 1, 0], 5), 1)


class TestScanMatchesRescan:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    @example(ALL_SMALL)
    @example(ONE_PROC)
    @example(EMPTY_PROCS)
    @example((EMPTY_PROCS[0], 0))
    @example((EMPTY_PROCS[0], 6))
    def test_m_partition_rebalance(self, case):
        instance, k = case
        assert_matches_rescan(instance, k, m_partition_rebalance(instance, k))

    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    @example(ALL_SMALL)
    @example(ONE_PROC)
    @example(EMPTY_PROCS)
    def test_unhinted_engine_decide(self, case):
        instance, k = case
        assert_matches_rescan(instance, k, RebalanceEngine(k).rebalance(instance))

    @pytest.mark.parametrize("integer", [False, True])
    def test_chunk_and_window_boundaries(self, integer):
        # One-candidate first chunks that double make every few
        # thresholds a chunk boundary; a skewed placement and a small
        # budget push the scan across several guess-space windows.
        rng = np.random.default_rng(7 + integer)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CHUNK_START", 1)
            mp.setattr(partition, "_CHUNK_GROWTH", 2)
            for _ in range(40):
                n = int(rng.integers(20, 200))
                m = int(rng.integers(1, 9))
                sizes = (
                    rng.integers(1, 8, n).astype(np.float64)
                    if integer
                    else rng.lognormal(0.0, 1.0, n)
                )
                initial = np.minimum(rng.geometric(0.5, n) - 1, m - 1)
                instance = _instance(sizes, initial, m)
                for k in (0, int(rng.integers(0, n + 1)), n):
                    assert_matches_rescan(
                        instance, k, m_partition_rebalance(instance, k)
                    )


class TestScanEdges:
    def test_all_small_regime(self):
        instance, k = ALL_SMALL
        tables = build_tables(instance)
        candidates = candidate_guesses(tables)
        start = candidates[scan_start(candidates, instance.average_load)]
        assert start >= 2.0 * instance.sizes.max()
        result = m_partition_rebalance(instance, k)
        assert_matches_rescan(instance, k, result)
        assert result.meta["L_T"] == 0
        assert result.meta["thresholds_tried"] == 6
        # With L_T = 0 no processor is selected, so a_i moves neither the
        # stop nor the mapping; the evaluation must still carry exact
        # a_i and c_i.
        ev, _ = scan_thresholds(tables, k, instance.average_load)
        ref, _, _ = rescan(instance, k)
        for got, want in ((ev.a_values, ref.a_values), (ev.b_values, ref.b_values),
                          (ev.c_values, ref.c_values)):
            assert np.array_equal(got, want)

    def test_stop_at_the_heaviest_load(self):
        # The latest possible stop: below the heaviest processor's full
        # load some b_i > 0, and k = 0 forbids every move.
        instance = _instance([1.0] * 10, [0] * 10, 2)
        result = m_partition_rebalance(instance, 0)
        assert result.guessed_opt == 10.0
        assert result.meta["thresholds_tried"] == 6  # 5, 6, ..., 10
        assert_matches_rescan(instance, 0, result)

    @pytest.mark.parametrize("k", [0, 1, 3, 12])
    def test_single_processor(self, k):
        rng = np.random.default_rng(k)
        instance = _instance(rng.integers(1, 5, 12).astype(float), [0] * 12, 1)
        assert_matches_rescan(instance, k, m_partition_rebalance(instance, k))
        assert_matches_rescan(instance, k, RebalanceEngine(k).rebalance(instance))

    def test_budget_covers_every_job(self):
        rng = np.random.default_rng(3)
        n = 25
        instance = _instance(rng.uniform(0.5, 9.5, n), rng.integers(0, 3, n), 4)
        assert_matches_rescan(instance, n, m_partition_rebalance(instance, n))
