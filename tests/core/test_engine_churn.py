"""Tests for the engine's O(churn) decide path and the rolling hash.

The O(churn) path (churn hints, hint-based table patching, the
windowed threshold scan over the patched tables) carries the same
transparent-acceleration contract as the rest of the engine: every
decision must be byte-identical to a from-scratch
``m_partition_rebalance`` call, including the ``thresholds_tried``
count (the scans must stop at the same threshold for the same reason).  The rolling fingerprint carries a
contract of its own: rolling a churn of any size lands on the exact
digest a fresh O(n) recompute produces.
"""

import numpy as np
import pytest

from repro.core import RebalanceEngine, build_tables, m_partition_rebalance
from repro.core import rollhash
from repro.core.engine import _merge_hints, _normalize_hint, snapshot_fingerprint
from repro.core.instance import Instance
from repro.core.partition import _window_candidates, scan_thresholds
from repro.core.thresholds import patch_tables_hint

from .test_threshold_scan import candidate_guesses, rescan


def _random_state(rng, n, m, integer=False):
    if integer:
        sizes = rng.integers(1, 12, size=n).astype(np.float64)
    else:
        sizes = rng.uniform(0.5, 9.5, size=n)
    costs = np.ones(n)
    initial = rng.integers(0, m, size=n).astype(np.int64)
    return sizes, costs, initial


def _reference(sizes, costs, m, initial, k):
    return m_partition_rebalance(
        Instance(
            sizes=sizes.copy(),
            costs=costs.copy(),
            num_processors=m,
            initial=initial.copy(),
        ),
        k,
    )


def assert_same_decision(a, b):
    assert a.guessed_opt == b.guessed_opt
    assert a.planned_moves == b.planned_moves
    assert np.array_equal(a.assignment.mapping, b.assignment.mapping)


class TestRollingFingerprint:
    """roll() must land on the byte-identical fresh digest."""

    def test_roll_matches_fresh_recompute(self):
        rng = np.random.default_rng(11)
        n, m = 200, 8
        sizes, costs, initial = _random_state(rng, n, m)
        fp = rollhash.fingerprint_state(sizes, costs, initial, m)
        for _ in range(25):
            idx = np.sort(rng.choice(n, size=7, replace=False)).astype(np.int64)
            old = (sizes[idx].copy(), costs[idx].copy(), initial[idx].copy())
            sizes[idx] = rng.uniform(0.5, 9.5, 7)
            costs[idx] = rng.uniform(0.5, 2.0, 7)
            initial[idx] = rng.integers(0, m, 7)
            fp.roll(idx, *old, sizes[idx], costs[idx], initial[idx])
            fresh = rollhash.fingerprint_state(sizes, costs, initial, m)
            assert fp.digest() == fresh.digest()

    def test_each_field_changes_the_digest(self):
        rng = np.random.default_rng(12)
        n, m = 50, 4
        sizes, costs, initial = _random_state(rng, n, m)
        base = rollhash.fingerprint_state(sizes, costs, initial, m).digest()
        s2 = sizes.copy()
        s2[3] += 1.0
        assert rollhash.fingerprint_state(s2, costs, initial, m).digest() != base
        c2 = costs.copy()
        c2[3] += 1.0
        assert rollhash.fingerprint_state(sizes, c2, initial, m).digest() != base
        i2 = initial.copy()
        i2[3] = (i2[3] + 1) % m
        assert rollhash.fingerprint_state(sizes, costs, i2, m).digest() != base
        assert rollhash.fingerprint_state(sizes, costs, initial, m + 1).digest() != base

    def test_site_identity_matters(self):
        # Swapping the sizes of two sites with equal other fields must
        # change the digest: the per-site term mixes the index.
        sizes = np.array([1.0, 2.0, 3.0])
        costs = np.ones(3)
        initial = np.array([0, 0, 0], dtype=np.int64)
        base = rollhash.fingerprint_state(sizes, costs, initial, 2).digest()
        swapped = sizes[[1, 0, 2]]
        assert rollhash.fingerprint_state(swapped, costs, initial, 2).digest() != base

    def test_instance_fingerprint_matches_state(self):
        rng = np.random.default_rng(13)
        sizes, costs, initial = _random_state(rng, 80, 5)
        inst = Instance(sizes=sizes, costs=costs, num_processors=5, initial=initial)
        state = rollhash.fingerprint_state(sizes, costs, initial, 5)
        assert rollhash.instance_fingerprint(inst) == state.digest()
        assert snapshot_fingerprint(inst) == state.digest()
        assert len(state.digest()) == 16

    def test_digest_is_memoized_on_instance(self):
        rng = np.random.default_rng(14)
        sizes, costs, initial = _random_state(rng, 30, 3)
        inst = Instance(sizes=sizes, costs=costs, num_processors=3, initial=initial)
        assert snapshot_fingerprint(inst) is snapshot_fingerprint(inst)


class TestHintNormalization:
    def test_first_occurrence_wins(self):
        hint = _normalize_hint(
            (
                np.array([5, 2, 5], dtype=np.int64),
                np.array([1.0, 2.0, 9.0]),
                np.array([1.0, 1.0, 1.0]),
                np.array([0, 1, 3], dtype=np.int64),
            )
        )
        assert np.array_equal(hint[0], [2, 5])
        assert np.array_equal(hint[1], [2.0, 1.0])
        assert np.array_equal(hint[3], [1, 0])

    def test_merge_keeps_oldest_old_values(self):
        pending = _normalize_hint(
            (
                np.array([4], dtype=np.int64),
                np.array([7.0]),
                np.array([1.0]),
                np.array([2], dtype=np.int64),
            )
        )
        fresh = _normalize_hint(
            (
                np.array([4, 9], dtype=np.int64),
                np.array([8.0, 3.0]),
                np.array([1.0, 1.0]),
                np.array([5, 1], dtype=np.int64),
            )
        )
        merged = _merge_hints(pending, fresh)
        assert np.array_equal(merged[0], [4, 9])
        # Job 4's old size must come from the *pending* (older) record.
        assert merged[1][0] == 7.0
        assert merged[3][0] == 2

    def test_merge_with_none(self):
        h = _normalize_hint(
            (
                np.array([1], dtype=np.int64),
                np.array([1.0]),
                np.array([1.0]),
                np.array([0], dtype=np.int64),
            )
        )
        assert _merge_hints(None, h) is h
        assert _merge_hints(h, None) is h


class TestPatchTablesHint:
    """Hint-based bucket patching must reproduce build_tables buckets
    byte-for-byte."""

    @pytest.mark.parametrize("integer", [False, True])
    def test_patched_buckets_match_full_build(self, integer):
        rng = np.random.default_rng(21)
        n, m = 300, 7
        sizes, costs, initial = _random_state(rng, n, m, integer)
        inst0 = Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy())
        tables = build_tables(inst0)
        for _ in range(10):
            idx = np.sort(rng.choice(n, size=15, replace=False)).astype(np.int64)
            old_initial = initial[idx].copy()
            sizes[idx] = (
                rng.integers(1, 12, 15).astype(np.float64)
                if integer
                else rng.uniform(0.5, 9.5, 15)
            )
            moved = rng.random(15) < 0.4
            initial[idx[moved]] = rng.integers(0, m, int(moved.sum()))
            inst = Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy())
            tables, changed_procs = patch_tables_hint(tables, inst, idx, old_initial)
            expected = build_tables(inst)
            for p in range(m):
                for got, want in zip(tables.row(p), expected.row(p)):
                    assert np.array_equal(got, want)
            touched = set(np.concatenate((old_initial, initial[idx])).tolist())
            assert set(changed_procs.tolist()) == touched

    def test_empty_hint_is_free(self):
        rng = np.random.default_rng(22)
        sizes, costs, initial = _random_state(rng, 40, 3)
        inst = Instance.trusted(sizes, costs, 3, initial)
        tables = build_tables(inst)
        same, changed = patch_tables_hint(
            tables, inst, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert same is tables
        assert changed.shape[0] == 0


class TestScanIncremental:
    """The windowed scan must stop exactly where the per-guess rescan
    stops."""

    def test_matches_full_scan_stop(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(10, 120))
            m = int(rng.integers(2, 9))
            k = int(rng.integers(0, 20))
            sizes, costs, initial = _random_state(
                rng, n, m, integer=bool(trial % 2)
            )
            inst = Instance.trusted(sizes, costs, m, initial)
            ref, ref_tried, _ = rescan(inst, k)
            ev, tried = scan_thresholds(build_tables(inst), k, inst.average_load)
            assert ev.guess == ref.guess
            assert ev.planned_moves == ref.planned_moves
            assert tried == ref_tried
            assert ev.total_large == ref.total_large
            assert np.array_equal(ev.selected, ref.selected)
            assert np.array_equal(ev.a_values, ref.a_values)
            assert np.array_equal(ev.b_values, ref.b_values)

    def test_lazy_streams_enumerate_proc_candidates(self):
        # Slicing one processor's streams over the whole guess range
        # must yield exactly its distinct materialized candidates.
        rng = np.random.default_rng(32)
        sizes, costs, initial = _random_state(rng, 60, 4, integer=True)
        inst = Instance.trusted(sizes, costs, 4, initial)
        tables = build_tables(inst)
        for i in range(4):
            jobs, row_sizes, prefix = tables.row(i)
            expected = np.unique(
                np.concatenate((prefix[1:], 2.0 * prefix[1:], 2.0 * row_sizes))
            )
            alone = build_tables(
                Instance.trusted(sizes[jobs], costs[jobs], 1, np.zeros(jobs.size, np.int64))
            )
            got = _window_candidates(alone, 0.0, np.inf)
            assert np.array_equal(got, expected)
        everything = _window_candidates(tables, 0.0, np.inf)
        assert np.array_equal(everything, candidate_guesses(tables))


class TestChurnHintDecides:
    """End-to-end differential: hinted decides vs from-scratch rescans."""

    def _closed_loop(self, seed, n, m, k, epochs, churn, integer=False):
        rng = np.random.default_rng(seed)
        sizes, costs, initial = _random_state(rng, n, m, integer)
        eng = RebalanceEngine(k=k)
        hint = None
        bursts = 0  # burst-hinted decides checked byte-identical
        for e in range(epochs):
            inst = Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy())
            r = eng.rebalance(inst, changed=hint)
            ref = _reference(sizes, costs, m, initial, k)
            assert_same_decision(r, ref)
            assert r.meta["thresholds_tried"] == ref.meta["thresholds_tried"]
            bursts += e > 0 and (e - 1) % 5 == 0
            # Closed loop: apply the moves; the moved jobs enter the
            # hint with their pre-move placement, exactly like the
            # server's delta frames.
            mapping = np.asarray(r.assignment.mapping, dtype=np.int64)
            mv = np.flatnonzero(mapping != initial).astype(np.int64)
            parts = [
                (mv, sizes[mv].copy(), costs[mv].copy(), initial[mv].copy())
            ]
            initial = mapping.copy()
            c = churn if e % 5 else churn * 20  # periodic burst
            idx = np.sort(
                rng.choice(n, size=min(c, n), replace=False)
            ).astype(np.int64)
            parts.append(
                (idx, sizes[idx].copy(), costs[idx].copy(), initial[idx].copy())
            )
            sizes[idx] = (
                rng.integers(1, 12, idx.shape[0]).astype(np.float64)
                if integer
                else rng.uniform(0.5, 9.5, idx.shape[0])
            )
            moved = rng.random(idx.shape[0]) < 0.3
            initial[idx[moved]] = rng.integers(0, m, int(moved.sum()))
            hint = tuple(
                np.concatenate([p[f] for p in parts]) for f in range(4)
            )
        return eng.stats, bursts

    def test_float_sizes_stream(self):
        stats, _ = self._closed_loop(41, 800, 8, 48, 30, 10)
        assert stats.incremental_decides > 0

    def test_integer_ties_cross_fallback_threshold(self):
        # Integer sizes maximize threshold-value ties; every fifth hint
        # churns 160 of the 500 jobs (past the 25% line where hinted
        # decides used to fall back to a full rescan).  Those burst
        # epochs decide from the hint like any other and stay
        # byte-identical, thresholds_tried included.
        stats, bursts = self._closed_loop(42, 500, 6, 32, 30, 8, integer=True)
        assert bursts == 6
        assert stats.incremental_decides == stats.decisions - 1

    def test_arrival_departure_forces_full_rebuild(self):
        rng = np.random.default_rng(43)
        n, m, k = 200, 5, 16
        sizes, costs, initial = _random_state(rng, n, m)
        eng = RebalanceEngine(k=k)
        hint = None
        for e in range(15):
            inst = Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy())
            r = eng.rebalance(inst, changed=hint)
            ref = _reference(sizes, costs, m, initial, k)
            assert_same_decision(r, ref)
            mapping = np.asarray(r.assignment.mapping, dtype=np.int64)
            mv = np.flatnonzero(mapping != initial).astype(np.int64)
            mv_old = (mv, sizes[mv].copy(), costs[mv].copy(), initial[mv].copy())
            initial = mapping.copy()
            if e % 3 == 0:
                # Site arrival/departure: the job count changes, so no
                # hint is possible and the engine must rebuild.
                grow = rng.random() < 0.5
                if grow:
                    extra = int(rng.integers(1, 15))
                    sizes = np.concatenate(
                        [sizes, rng.uniform(0.5, 9.5, extra)]
                    )
                    costs = np.concatenate([costs, np.ones(extra)])
                    initial = np.concatenate(
                        [initial, rng.integers(0, m, extra).astype(np.int64)]
                    )
                else:
                    keep = sizes.shape[0] - int(rng.integers(1, 15))
                    sizes = sizes[:keep].copy()
                    costs = costs[:keep].copy()
                    initial = initial[:keep].copy()
                hint = None
            else:
                nn = sizes.shape[0]
                idx = np.sort(
                    rng.choice(nn, size=min(6, nn), replace=False)
                ).astype(np.int64)
                old = (idx, sizes[idx].copy(), costs[idx].copy(),
                       initial[idx].copy())
                sizes[idx] = rng.uniform(0.5, 9.5, idx.shape[0])
                hint = tuple(
                    np.concatenate([mv_old[f], old[f]]) for f in range(4)
                )
        assert eng.stats.full_builds >= 5
        assert eng.stats.incremental_decides > 0

    def test_note_churn_accumulates_into_next_decide(self):
        rng = np.random.default_rng(44)
        n, m, k = 150, 4, 12
        sizes, costs, initial = _random_state(rng, n, m)
        eng = RebalanceEngine(k=k)
        eng.rebalance(Instance.trusted(sizes.copy(), costs.copy(), m,
                                       initial.copy()))
        # Two apply-only advances recorded out of band.
        for _ in range(2):
            idx = np.sort(rng.choice(n, size=5, replace=False)).astype(np.int64)
            eng.note_churn(idx, sizes[idx].copy(), costs[idx].copy(),
                           initial[idx].copy())
            sizes[idx] = rng.uniform(0.5, 9.5, 5)
        idx = np.sort(rng.choice(n, size=5, replace=False)).astype(np.int64)
        old = (idx, sizes[idx].copy(), costs[idx].copy(), initial[idx].copy())
        sizes[idx] = rng.uniform(0.5, 9.5, 5)
        r = eng.rebalance(
            Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy()),
            changed=old,
        )
        assert_same_decision(r, _reference(sizes, costs, m, initial, k))

    def test_cache_hit_with_churn_keeps_pending(self):
        # A decide that hits the decision cache must still record the
        # churn so the *next* miss patches the tables correctly.
        rng = np.random.default_rng(45)
        n, m, k = 120, 4, 10
        sizes, costs, initial = _random_state(rng, n, m)
        eng = RebalanceEngine(k=k)
        eng.rebalance(Instance.trusted(sizes.copy(), costs.copy(), m,
                                       initial.copy()))
        # Flip one job away and back: the second decide hits the cache
        # (same fingerprint) while the arrays went A -> B -> A.
        idx = np.array([7], dtype=np.int64)
        old_size = sizes[idx].copy()
        sizes[idx] = old_size + 1.0
        eng.rebalance(
            Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy()),
            changed=(idx, old_size, costs[idx].copy(), initial[idx].copy()),
        )
        back_old = sizes[idx].copy()
        sizes[idx] = old_size
        r = eng.rebalance(
            Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy()),
            changed=(idx, back_old, costs[idx].copy(), initial[idx].copy()),
        )
        assert r.guessed_opt == _reference(sizes, costs, m, initial, k).guessed_opt
        # Now a real change decides incrementally off the pending hints.
        idx2 = np.array([3, 9], dtype=np.int64)
        old2 = (idx2, sizes[idx2].copy(), costs[idx2].copy(),
                initial[idx2].copy())
        sizes[idx2] += 0.25
        r2 = eng.rebalance(
            Instance.trusted(sizes.copy(), costs.copy(), m, initial.copy()),
            changed=old2,
        )
        assert_same_decision(r2, _reference(sizes, costs, m, initial, k))

    def test_stats_count_incremental_decides(self):
        stats, _ = self._closed_loop(46, 300, 4, 24, 10, 4)
        d = stats.as_dict()
        # Every decide after the first carries a churn hint.
        assert d["decisions"] == 10
        assert d["incremental_decides"] == 9
