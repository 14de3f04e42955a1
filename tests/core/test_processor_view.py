"""The vectorized per-processor view against the per-job loops it replaced.

``build_tables``, GREEDY step 1 and Lemma 1's ``greedy_removal_bound``
used to bucket jobs by processor one job at a time in Python.  Those
loops are kept here as oracles, and every output that reads the view
must match them exactly: table arrays byte for byte, GREEDY's mapping,
``G1``/``G2``/``removals`` and ``heap_pops``, and the Lemma 1 bound.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import (
    Instance,
    build_tables,
    greedy_rebalance,
    greedy_removal_bound,
    patch_tables,
)
from repro.core.thresholds import processor_view

# Integers tie often; tenths and thousandths make per-processor prefix
# sums depend on their summation order.
SIZES = st.one_of(
    st.integers(min_value=1, max_value=4).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 1e-3, 7.25]),
)


@st.composite
def view_instances(draw, max_jobs: int = 40, max_processors: int = 6):
    """Tie-heavy instances, possibly with no jobs or empty processors."""
    n = draw(st.integers(min_value=0, max_value=max_jobs))
    m = draw(st.integers(min_value=1, max_value=max_processors))
    used = draw(st.integers(min_value=1, max_value=m))
    sizes = draw(st.lists(SIZES, min_size=n, max_size=n))
    initial = draw(
        st.lists(st.integers(min_value=0, max_value=used - 1), min_size=n, max_size=n)
    )
    return _instance(sizes, initial, m)


def _instance(sizes, initial, m: int) -> Instance:
    return Instance(
        sizes=np.array(sizes, dtype=np.float64),
        costs=np.ones(len(sizes)),
        num_processors=m,
        initial=np.array(initial, dtype=np.int64),
    )


EMPTY = _instance([], [], 3)
ONE_PROC = _instance([2.0, 2.0, 0.1, 0.2, 0.1], [0] * 5, 1)


# --- Oracles: the per-job bucketing loops the view replaced. ---------------


def oracle_buckets(instance: Instance) -> list[list[int]]:
    """Each processor's job indices, ascending by ``(size, index)``."""
    order = np.lexsort((np.arange(instance.num_jobs), instance.sizes))
    buckets: list[list[int]] = [[] for _ in range(instance.num_processors)]
    for j in order:
        buckets[int(instance.initial[j])].append(int(j))
    return buckets


def oracle_tables(instance: Instance) -> list[tuple[np.ndarray, ...]]:
    """``table_arrays`` of the tables the per-job bucketing built."""
    out = []
    for bucket in oracle_buckets(instance):
        jobs_asc = np.asarray(bucket, dtype=np.int64)
        sizes_asc = instance.sizes[jobs_asc] if bucket else np.empty(0)
        prefix = np.concatenate(([0.0], np.cumsum(sizes_asc)))
        out.append((jobs_asc, sizes_asc, prefix))
    return out


def oracle_greedy(instance: Instance, k: int, insert_order: str) -> dict:
    """GREEDY with per-processor Python stacks of ``(size, index)``."""
    m = instance.num_processors
    heap_pops = 0
    stacks: list[list[tuple[float, int]]] = [[] for _ in range(m)]
    for j in range(instance.num_jobs):
        stacks[int(instance.initial[j])].append((float(instance.sizes[j]), j))
    for stack in stacks:
        stack.sort()
    loads = [float(x) for x in instance.initial_loads]
    version = [0] * m
    max_heap = [(-loads[p], 0, p) for p in range(m)]
    heapq.heapify(max_heap)
    removed: list[tuple[float, int]] = []
    while len(removed) < k and max_heap:
        neg_load, ver, p = heapq.heappop(max_heap)
        heap_pops += 1
        if ver != version[p]:
            continue
        if not stacks[p]:
            heapq.heappush(max_heap, (neg_load, ver, p))
            break
        size, j = stacks[p].pop()
        loads[p] -= size
        removed.append((size, j))
        version[p] += 1
        heapq.heappush(max_heap, (-loads[p], version[p], p))
    g1 = max(loads)
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
            _, ver, p = heapq.heappop(min_heap)
            heap_pops += 1
        mapping[j] = p
        loads[p] += size
        version[p] += 1
        heapq.heappush(min_heap, (loads[p], version[p], p))
    return {
        "mapping": mapping,
        "G1": g1,
        "G2": max(loads),
        "removals": len(removed),
        "heap_pops": heap_pops,
    }


def oracle_removal_bound(instance: Instance, k: int) -> float:
    """Lemma 1's ``G1`` with per-processor Python stacks of sizes."""
    m = instance.num_processors
    stacks: list[list[float]] = [[] for _ in range(m)]
    for j in range(instance.num_jobs):
        stacks[int(instance.initial[j])].append(float(instance.sizes[j]))
    for stack in stacks:
        stack.sort()
    loads = [float(x) for x in instance.initial_loads]
    heap = [(-loads[p], p) for p in range(m)]
    heapq.heapify(heap)
    removed = 0
    while removed < k:
        neg_load, p = heapq.heappop(heap)
        if -neg_load != loads[p]:
            continue
        if not stacks[p]:
            heapq.heappush(heap, (neg_load, p))
            break
        loads[p] -= stacks[p].pop()
        heapq.heappush(heap, (-loads[p], p))
        removed += 1
    return max(loads)


# --- Helpers. ---------------------------------------------------------------


def table_arrays(tables) -> list[tuple[np.ndarray, ...]]:
    """Every array of ``tables``, processor by processor (row views)."""
    return [tables.row(p) for p in range(tables.num_processors)]


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_arrays(got: list[tuple], want: list[tuple]) -> None:
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            assert_same_array(g, w)


# --- Properties. ------------------------------------------------------------


class TestProcessorView:
    @given(view_instances(), st.data())
    @example(EMPTY, None)
    @example(ONE_PROC, None)
    @settings(max_examples=200, deadline=None)
    def test_order_and_cuts_match_lexsort(self, inst, data):
        n, m = inst.num_jobs, inst.num_processors
        jobs = None
        if data is not None and n:
            mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            jobs = np.flatnonzero(mask)
        subset = np.arange(n) if jobs is None else jobs
        order, cuts = processor_view(inst, jobs)
        want = subset[
            np.lexsort((subset, inst.sizes[subset], inst.initial[subset]))
        ]
        assert_same_array(order, want)
        counts = np.bincount(inst.initial[subset], minlength=m)
        assert_same_array(cuts, np.concatenate(([0], np.cumsum(counts))))

    def test_processor_ids_wider_than_16_bits(self):
        m = (1 << 16) + 3
        inst = _instance([2.0, 1.0, 2.0, 1.0], [m - 1, 5, m - 1, m - 1], m)
        order, cuts = processor_view(inst)
        assert order.tolist() == [1, 3, 0, 2]
        assert cuts[5:7].tolist() == [0, 1] and cuts[-2:].tolist() == [1, 4]


class TestAgainstOracles:
    @given(view_instances())
    @example(EMPTY)
    @example(ONE_PROC)
    @settings(max_examples=200, deadline=None)
    def test_build_tables_byte_identical(self, inst):
        assert_same_arrays(table_arrays(build_tables(inst)), oracle_tables(inst))

    @pytest.mark.parametrize("insert_order", ["removal", "descending", "ascending"])
    @given(inst=view_instances(), k=st.integers(min_value=0, max_value=45))
    @example(inst=EMPTY, k=3)
    @example(inst=ONE_PROC, k=4)
    @settings(max_examples=150, deadline=None)
    def test_greedy_identical(self, insert_order, inst, k):
        want = oracle_greedy(inst, k, insert_order)
        with telemetry.collect() as col:
            res = greedy_rebalance(inst, k, insert_order=insert_order)
        assert_same_array(res.assignment.mapping, want["mapping"])
        assert res.meta["G1"] == want["G1"]
        assert res.meta["G2"] == want["G2"]
        assert res.meta["removals"] == want["removals"]
        assert col.counters["heap_pops"] == want["heap_pops"]

    @given(inst=view_instances(), k=st.integers(min_value=0, max_value=45))
    @example(inst=EMPTY, k=2)
    @example(inst=ONE_PROC, k=3)
    @settings(max_examples=200, deadline=None)
    def test_removal_bound_equal(self, inst, k):
        assert greedy_removal_bound(inst, k) == oracle_removal_bound(inst, k)

    @given(view_instances(), st.data())
    @example(EMPTY, None)
    @settings(max_examples=150, deadline=None)
    def test_patch_every_bucket_equals_build(self, inst, data):
        """Every size changes, so every non-empty bucket is rebuilt."""
        n, m = inst.num_jobs, inst.num_processors
        if data is None:
            sizes, initial = [], []
        else:
            sizes = [
                s + data.draw(st.sampled_from([0.5, 1.0, 0.1]))
                for s in inst.sizes.tolist()
            ]
            initial = data.draw(
                st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
            )
        new = _instance(sizes, initial, m)
        patched, count = patch_tables(build_tables(inst), new)
        assert count == len(set(inst.initial.tolist()) | set(initial))
        assert_same_arrays(table_arrays(patched), table_arrays(build_tables(new)))
