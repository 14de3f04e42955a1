"""Tests for the warm-start rebalancing engine.

The engine's contract is *transparent acceleration*: every decision must
be byte-identical to a from-scratch ``m_partition_rebalance`` call on
the same snapshot, no matter what the caches contain.  The differential
tests here drive randomized multi-epoch streams through both paths; the
unit tests pin down the bucket-patch and fingerprint-cache machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RebalanceEngine,
    build_tables,
    m_partition_rebalance,
    make_instance,
    patch_tables,
)

from ..conftest import instances_with_k, small_instances
from .test_threshold_scan import assert_matches_rescan, scan_start


def assert_tables_equal(actual, expected):
    """Row-by-row equality of two ThresholdTables."""
    assert actual.num_processors == expected.num_processors
    for p in range(actual.num_processors):
        for got, want in zip(actual.row(p), expected.row(p)):
            assert np.array_equal(got, want)


def assert_same_decision(a, b):
    assert a.guessed_opt == b.guessed_opt
    assert a.planned_moves == b.planned_moves
    assert np.array_equal(a.assignment.mapping, b.assignment.mapping)


class TestScanStart:
    """Regression for the threshold-scan start index guard: the start
    must always land on a real threshold, clamped at both ends."""

    def test_average_inside_range(self):
        candidates = np.array([1.0, 2.0, 4.0, 8.0])
        assert scan_start(candidates, 3.0) == 1
        assert scan_start(candidates, 4.0) == 2  # exact hit

    def test_average_below_every_candidate(self):
        candidates = np.array([1.0, 2.0, 4.0])
        assert scan_start(candidates, 0.5) == 0

    def test_average_above_every_candidate_clamped(self):
        # Reachable only through float round-off, but the scan must
        # start at the last real threshold, not index past the end.
        candidates = np.array([1.0, 2.0, 4.0])
        assert scan_start(candidates, 100.0) == 2
        assert scan_start(candidates, 4.0 + 1e-12) == 2

    def test_empty_candidates(self):
        assert scan_start(np.empty(0), 1.0) == 0

    @settings(max_examples=40, deadline=None)
    @given(instances_with_k(max_jobs=8, max_processors=4))
    def test_rescan_and_incremental_share_the_start(self, case):
        """The windowed scan derives its start from the per-processor
        rows and the naive rescan oracle from ``scan_start`` over the
        global union: instances whose average load sits at a threshold
        boundary must not diverge."""
        inst, k = case
        assert_matches_rescan(inst, k, m_partition_rebalance(inst, k))


class TestPatchTables:
    def base_instance(self):
        return make_instance(
            sizes=[5.0, 3.0, 8.0, 1.0, 2.0, 7.0],
            initial=[0, 0, 1, 1, 2, 2],
            num_processors=3,
        )

    def test_job_grows(self):
        inst = self.base_instance()
        tables = build_tables(inst)
        sizes = inst.sizes.copy()
        sizes[1] = 9.0  # grows past its bucket neighbours
        new = make_instance(sizes=sizes, initial=inst.initial, num_processors=3)
        patched, count = patch_tables(tables, new)
        assert count == 1  # only processor 0 changed
        assert_tables_equal(patched, build_tables(new))

    def test_job_shrinks(self):
        inst = self.base_instance()
        tables = build_tables(inst)
        sizes = inst.sizes.copy()
        sizes[2] = 0.5
        new = make_instance(sizes=sizes, initial=inst.initial, num_processors=3)
        patched, count = patch_tables(tables, new)
        assert count == 1  # only processor 1 changed
        assert_tables_equal(patched, build_tables(new))

    def test_job_migrates_between_processors(self):
        inst = self.base_instance()
        tables = build_tables(inst)
        initial = np.array(inst.initial)
        initial[0] = 2  # leaves processor 0, joins processor 2
        new = make_instance(sizes=inst.sizes, initial=initial, num_processors=3)
        patched, count = patch_tables(tables, new)
        assert count == 2  # both endpoints of the migration
        assert_tables_equal(patched, build_tables(new))

    def test_bucket_emptied(self):
        inst = make_instance(sizes=[4.0, 2.0], initial=[0, 1], num_processors=2)
        tables = build_tables(inst)
        new = make_instance(sizes=[4.0, 2.0], initial=[0, 0], num_processors=2)
        patched, count = patch_tables(tables, new)
        assert count == 2
        assert patched.count[1] == 0
        assert_tables_equal(patched, build_tables(new))

    def test_unchanged_instance_is_free(self):
        inst = self.base_instance()
        tables = build_tables(inst)
        patched, count = patch_tables(tables, inst)
        assert count == 0
        assert patched is tables

    def test_shape_change_falls_back_to_full_build(self):
        inst = self.base_instance()
        tables = build_tables(inst)
        new = make_instance(
            sizes=[1.0, 2.0], initial=[0, 1], num_processors=3
        )
        patched, count = patch_tables(tables, new)
        assert count == -1
        assert_tables_equal(patched, build_tables(new))

    @settings(max_examples=60, deadline=None)
    @given(small_instances(max_jobs=10, max_processors=4), st.data())
    def test_random_perturbations_match_full_build(self, inst, data):
        tables = build_tables(inst)
        n = inst.num_jobs
        sizes = inst.sizes.copy()
        initial = np.array(inst.initial)
        touched = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1, max_size=n, unique=True,
            )
        )
        for j in touched:
            if data.draw(st.booleans()):
                sizes[j] = data.draw(
                    st.integers(min_value=1, max_value=30)
                )
            else:
                initial[j] = data.draw(
                    st.integers(min_value=0, max_value=inst.num_processors - 1)
                )
        new = make_instance(
            sizes=sizes, initial=initial, num_processors=inst.num_processors
        )
        patched, count = patch_tables(tables, new)
        assert count >= 0
        assert_tables_equal(patched, build_tables(new))


class TestRebalanceEngine:
    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            RebalanceEngine(k=-1)

    def test_empty_instance(self):
        engine = RebalanceEngine(k=2)
        inst = make_instance(sizes=[], initial=[], num_processors=3)
        result = engine.rebalance(inst)
        assert result.makespan == 0.0
        assert result.planned_moves == 0

    def test_single_decision_matches_scratch(self):
        inst = make_instance(
            sizes=[8, 7, 2, 2, 1], initial=[0, 0, 0, 1, 1], num_processors=2
        )
        assert_same_decision(
            m_partition_rebalance(inst, 2), RebalanceEngine(k=2).rebalance(inst)
        )

    def test_fingerprint_cache_hit(self):
        inst = make_instance(
            sizes=[5, 4, 3, 2], initial=[0, 0, 1, 1], num_processors=2
        )
        engine = RebalanceEngine(k=1)
        first = engine.rebalance(inst)
        again = engine.rebalance(
            make_instance(sizes=[5, 4, 3, 2], initial=[0, 0, 1, 1],
                          num_processors=2)
        )
        assert engine.stats.cache_hits == 1
        assert again is first  # the cached decision object itself

    def test_cost_change_invalidates_fingerprint(self):
        # Costs don't influence m-partition, but a "byte-identical
        # snapshot" promise must cover the whole instance.
        sizes, initial = [5.0, 4.0, 3.0], [0, 0, 1]
        engine = RebalanceEngine(k=1)
        engine.rebalance(make_instance(sizes=sizes, initial=initial,
                                       num_processors=2))
        engine.rebalance(make_instance(sizes=sizes, initial=initial,
                                       num_processors=2, costs=[2.0, 1.0, 1.0]))
        assert engine.stats.cache_hits == 0

    def test_cache_eviction(self):
        engine = RebalanceEngine(k=1, cache_size=2)
        insts = [
            make_instance(sizes=[float(s)], initial=[0], num_processors=2)
            for s in (1, 2, 3)
        ]
        for inst in insts:
            engine.rebalance(inst)
        engine.rebalance(insts[0])  # evicted: recomputed, no hit
        assert engine.stats.cache_hits == 0
        engine.rebalance(insts[2])  # still resident
        assert engine.stats.cache_hits == 1

    def test_reset_drops_state(self):
        engine = RebalanceEngine(k=1)
        inst = make_instance(sizes=[3.0, 1.0], initial=[0, 1], num_processors=2)
        engine.rebalance(inst)
        engine.reset()
        assert engine.stats.decisions == 0
        engine.rebalance(inst)
        assert engine.stats.cache_hits == 0
        assert engine.stats.full_builds == 1

    def test_shape_change_triggers_full_rebuild(self):
        engine = RebalanceEngine(k=1)
        engine.rebalance(
            make_instance(sizes=[3.0, 1.0], initial=[0, 1], num_processors=2)
        )
        engine.rebalance(
            make_instance(sizes=[3.0, 1.0, 2.0], initial=[0, 1, 0],
                          num_processors=2)
        )
        assert engine.stats.full_builds == 2
        assert engine.stats.tables_reused == 0

    def test_counters_flow_to_telemetry(self):
        from repro import telemetry

        inst = make_instance(
            sizes=[5.0, 4.0, 3.0, 2.0], initial=[0, 0, 1, 1], num_processors=2
        )
        engine = RebalanceEngine(k=1)
        with telemetry.collect() as collector:
            engine.rebalance(inst)
            engine.rebalance(inst)  # cache hit
            sizes = inst.sizes.copy()
            sizes[0] = 6.0
            engine.rebalance(
                make_instance(sizes=sizes, initial=inst.initial,
                              num_processors=2)
            )
        counters = collector.as_dict()["counters"]
        assert counters["full_builds"] == 1
        assert counters["cache_hits"] == 1
        assert counters["tables_reused"] == 1
        assert counters["buckets_patched"] == 1
        assert counters["thresholds_tried"] >= 2

    def test_decision_meta_carries_engine_stats(self):
        engine = RebalanceEngine(k=1)
        inst = make_instance(sizes=[3.0, 1.0], initial=[0, 1], num_processors=2)
        result = engine.rebalance(inst)
        assert result.meta["engine"]["decisions"] == 1
        assert result.meta["engine"]["full_builds"] == 1

    @settings(max_examples=60, deadline=None)
    @given(instances_with_k(max_jobs=8, max_processors=4))
    def test_differential_single_shot(self, case):
        inst, k = case
        assert_same_decision(
            m_partition_rebalance(inst, k), RebalanceEngine(k=k).rebalance(inst)
        )

    @settings(max_examples=25, deadline=None)
    @given(instances_with_k(max_jobs=10, max_processors=4), st.data())
    def test_differential_epoch_stream(self, case, data):
        """A warm engine must keep matching from-scratch decisions over
        an evolving stream: sizes drift, jobs migrate, and the cluster
        adopts each decision before the next epoch."""
        inst, k = case
        engine = RebalanceEngine(k=k)
        sizes = inst.sizes.copy()
        initial = np.array(inst.initial)
        for _ in range(data.draw(st.integers(min_value=2, max_value=5))):
            snapshot = make_instance(
                sizes=sizes, initial=initial,
                num_processors=inst.num_processors,
            )
            assert_same_decision(
                m_partition_rebalance(snapshot, k), engine.rebalance(snapshot)
            )
            initial = np.array(engine.rebalance(snapshot).assignment.mapping)
            for j in data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=inst.num_jobs - 1),
                    max_size=inst.num_jobs, unique=True,
                )
            ):
                sizes[j] = data.draw(st.integers(min_value=1, max_value=30))

    def test_differential_random_walk_stream(self):
        """Denser seeded stream: 40 epochs, partial drift, occasional
        exact repeats to exercise the decision cache mid-stream."""
        rng = np.random.default_rng(7)
        n, m, k = 150, 6, 4
        sizes = rng.uniform(0.5, 20.0, n)
        initial = rng.integers(0, m, n)
        engine = RebalanceEngine(k=k)
        previous = None
        for epoch in range(40):
            if previous is not None and epoch % 7 == 3:
                inst = previous  # byte-identical snapshot
            else:
                sizes = sizes.copy()
                idx = rng.choice(n, size=int(rng.integers(1, 25)), replace=False)
                sizes[idx] *= np.exp(0.15 * rng.standard_normal(idx.size))
                inst = make_instance(sizes=sizes, initial=initial,
                                     num_processors=m)
            scratch = m_partition_rebalance(inst, k)
            warm = engine.rebalance(inst)
            assert_same_decision(scratch, warm)
            initial = warm.assignment.mapping
            previous = inst
        assert engine.stats.cache_hits > 0
        assert engine.stats.tables_reused > 0
        assert engine.stats.full_builds == 1

    def test_reset_mid_stream_keeps_decisions_identical(self):
        """Differential through a reset: warm -> reset -> warm again,
        every decision byte-identical to from-scratch throughout."""
        rng = np.random.default_rng(17)
        n, m, k = 60, 4, 3
        sizes = rng.uniform(0.5, 20.0, n)
        initial = rng.integers(0, m, n)
        engine = RebalanceEngine(k=k)
        for epoch in range(12):
            if epoch == 6:
                engine.reset()
                assert engine.stats.decisions == 0
            inst = make_instance(sizes=sizes, initial=initial,
                                 num_processors=m)
            warm = engine.rebalance(inst)
            assert_same_decision(m_partition_rebalance(inst, k), warm)
            initial = warm.assignment.mapping
            sizes = sizes.copy()
            idx = rng.choice(n, size=8, replace=False)
            sizes[idx] *= np.exp(0.1 * rng.standard_normal(idx.size))
        # the post-reset half really did rebuild from scratch
        assert engine.stats.full_builds == 1

    def test_interleaved_engines_match_isolated_streams(self):
        """Two engines fed interleaved, independent streams (the
        service's shard layout) decide exactly as two engines fed the
        same streams in isolation."""
        rng = np.random.default_rng(23)
        n, m, k = 50, 4, 2

        def stream(seed, epochs=10):
            srng = np.random.default_rng(seed)
            sizes = srng.uniform(0.5, 20.0, n)
            initial = srng.integers(0, m, n)
            snapshots = []
            for _ in range(epochs):
                snapshots.append((sizes.copy(), initial.copy()))
                idx = srng.choice(n, size=6, replace=False)
                sizes = sizes.copy()
                sizes[idx] *= np.exp(0.1 * srng.standard_normal(idx.size))
                initial = srng.integers(0, m, n)
            return snapshots

        streams = {"a": stream(1), "b": stream(2)}
        isolated = {}
        for name, snaps in streams.items():
            engine = RebalanceEngine(k=k)
            isolated[name] = [
                engine.rebalance(make_instance(
                    sizes=s, initial=i, num_processors=m
                )) for s, i in snaps
            ]
        shards = {name: RebalanceEngine(k=k) for name in streams}
        interleaved = {name: [] for name in streams}
        order = list(rng.permutation(
            [name for name in streams for _ in streams[name]]
        ))
        cursor = {name: 0 for name in streams}
        for name in order:
            s, i = streams[name][cursor[name]]
            cursor[name] += 1
            interleaved[name].append(shards[name].rebalance(make_instance(
                sizes=s, initial=i, num_processors=m
            )))
        for name in streams:
            for a, b in zip(isolated[name], interleaved[name]):
                assert_same_decision(a, b)

    def test_prebuilt_tables_accepted_by_scanners(self):
        inst = make_instance(
            sizes=[8, 7, 2, 2, 1], initial=[0, 0, 0, 1, 1], num_processors=2
        )
        tables = build_tables(inst)
        assert_same_decision(
            m_partition_rebalance(inst, 2),
            m_partition_rebalance(inst, 2, tables=tables),
        )
