"""The flat threshold-table layout against per-processor oracles.

``ThresholdTables`` keeps every processor's ascending jobs, sizes and
prefix sums as one row of a flat layout with per-row free slots, and
both table patches rewrite rows in place.  Whatever the placement —
skewed onto one processor, rows that empty, rows that outgrow their
free slots and force a fresh layout, one processor, no jobs, tied
sizes — every row must stay byte-identical to the per-job bucketing
oracle, ``count_le`` must answer ``np.searchsorted`` row by row, and a
hinted engine stream in the server's delta-churn shape must match a
from-scratch ``m_partition_rebalance`` on every epoch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Instance,
    build_tables,
    m_partition_rebalance,
    patch_tables,
)
from repro.core.thresholds import patch_tables_hint
from repro.service.loadgen import ChurnStreamConfig, LocalChurnStream

from .test_processor_view import (
    SIZES,
    _instance,
    assert_same_arrays,
    oracle_tables,
    table_arrays,
)


@st.composite
def skewed_instances(draw, max_jobs: int = 40, max_processors: int = 6):
    """Tie-heavy instances, possibly with no jobs, where one processor
    may hold most of the jobs."""
    n = draw(st.integers(min_value=0, max_value=max_jobs))
    m = draw(st.integers(min_value=1, max_value=max_processors))
    heavy = draw(st.integers(min_value=0, max_value=m - 1))
    share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    sizes = draw(st.lists(SIZES, min_size=n, max_size=n))
    initial = [
        heavy if draw(st.floats(0.0, 1.0)) < share
        else draw(st.integers(min_value=0, max_value=m - 1))
        for _ in range(n)
    ]
    return _instance(sizes, initial, m)


@st.composite
def churn_steps(draw, inst: Instance, steps: int):
    """Snapshots after ``steps`` churns of ``inst``: each changes the
    sizes of some jobs and moves some jobs, often all onto one
    processor (growing its row past its free slots, emptying others)."""
    n, m = inst.num_jobs, inst.num_processors
    sizes, initial = inst.sizes.copy(), inst.initial.copy()
    out = []
    for _ in range(steps):
        resized = draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
        for j in resized:
            sizes[j] = draw(SIZES)
        moved = draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
        target = draw(st.one_of(st.none(), st.integers(0, m - 1)))
        for j in moved:
            initial[j] = target if target is not None else draw(st.integers(0, m - 1))
        out.append(_instance(sizes.tolist(), initial.tolist(), m))
    return out


def hinted(tables, old: Instance, new: Instance):
    """``patch_tables_hint`` with the exact churn set between snapshots."""
    idx = np.flatnonzero(
        (old.sizes != new.sizes) | (old.initial != new.initial)
    ).astype(np.int64)
    return patch_tables_hint(tables, new, idx, old.initial[idx])


EMPTY = _instance([], [], 2)
ONE_PROC = _instance([2.0, 2.0, 0.1, 0.2, 0.1], [0] * 5, 1)
# Every job onto processor 0 at once: its row outgrows its free slots.
PILE_UP = (
    _instance([1.0] * 30, [j % 3 for j in range(30)], 3),
    [_instance([1.0] * 30, [0] * 30, 3)],
)


class TestRowsMatchOracle:
    @given(skewed_instances())
    @example(EMPTY)
    @example(ONE_PROC)
    @settings(max_examples=100, deadline=None)
    def test_build_on_skewed_placements(self, inst):
        tables = build_tables(inst)
        assert_same_arrays(table_arrays(tables), oracle_tables(inst))
        assert tables.count.sum() == inst.num_jobs

    @given(skewed_instances(), st.data())
    @example(EMPTY, None)
    @example(ONE_PROC, None)
    @settings(max_examples=100, deadline=None)
    def test_patches_through_churn(self, inst, data):
        steps = [] if data is None else data.draw(churn_steps(inst, 4))
        by_hint = build_tables(inst)
        by_diff = build_tables(inst)
        previous = inst
        for snapshot in steps:
            by_hint, _ = hinted(by_hint, previous, snapshot)
            by_diff, _ = patch_tables(by_diff, snapshot)
            want = oracle_tables(snapshot)
            assert_same_arrays(table_arrays(by_hint), want)
            assert_same_arrays(table_arrays(by_diff), want)
            for k in (0, snapshot.num_jobs // 3):
                if snapshot.num_jobs:
                    got = m_partition_rebalance(snapshot, k, tables=by_hint)
                    ref = m_partition_rebalance(snapshot, k)
                    assert got.guessed_opt == ref.guessed_opt
                    assert np.array_equal(got.assignment.mapping, ref.assignment.mapping)
                    assert got.assignment.loads.tobytes() == ref.assignment.loads.tobytes()
            previous = snapshot

    def test_row_outgrows_its_slots(self):
        inst, (piled,) = PILE_UP
        for patch in (lambda t: hinted(t, inst, piled), lambda t: patch_tables(t, piled)):
            tables = build_tables(inst)
            capacity = int(tables.start[1] - tables.start[0])
            assert capacity < 31  # thirty jobs plus P_0 cannot fit in place
            tables, _ = patch(tables)
            assert int(tables.start[1] - tables.start[0]) >= 31
            assert tables.count.tolist() == [30, 0, 0]
            assert_same_arrays(table_arrays(tables), oracle_tables(piled))


class TestCountLe:
    @given(skewed_instances(), st.lists(SIZES, min_size=1, max_size=5))
    @example(EMPTY, [1.0])
    @settings(max_examples=100, deadline=None)
    def test_matches_searchsorted_row_by_row(self, inst, probes):
        tables = build_tables(inst)
        probes = np.asarray(probes + [0.0, 1e9])
        got = tables.count_le(prefix=probes, sizes=probes / 2.0)
        for p in range(inst.num_processors):
            _, sizes, prefix = tables.row(p)
            want = np.concatenate((
                np.searchsorted(prefix, probes, side="right"),
                np.searchsorted(sizes, probes / 2.0, side="right"),
            ))
            assert got[p].tolist() == want.tolist()


def test_hinted_delta_churn_stream_matches_scratch():
    """300 hinted epochs at 20k sites: every decision, its loads and its
    thresholds_tried equal a from-scratch solve of the same snapshot."""
    def check(result, tip):
        ref = m_partition_rebalance(
            Instance(
                sizes=tip.sizes.copy(), costs=tip.costs.copy(),
                num_processors=tip.num_processors, initial=tip.initial.copy(),
            ),
            512,
        )
        assert result.guessed_opt == ref.guessed_opt
        assert result.planned_moves == ref.planned_moves
        assert result.meta["thresholds_tried"] == ref.meta["thresholds_tried"]
        assert np.array_equal(result.assignment.mapping, ref.assignment.mapping)
        assert result.assignment.loads.tobytes() == ref.assignment.loads.tobytes()

    stream = LocalChurnStream(
        ChurnStreamConfig(num_sites=20_000, num_servers=64, k=512, seed=7)
    )
    check(stream.result, stream.tip)
    for _ in range(300):
        check(stream.decide(*stream.next_epoch()), stream.tip)
    assert stream.engine.stats.incremental_decides == 300
    assert stream.engine.stats.full_builds == 1
