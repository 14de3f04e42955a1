"""Differential tests: the per-step Fenwick M-PARTITION scan vs the
windowed one behind ``m_partition_rebalance``, and the Fenwick
order-statistic structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_instance, m_partition_rebalance
from repro.core.fenwick import ValueMultisetFenwick
from repro.core.partition_incremental import m_partition_rebalance_incremental

from ..conftest import instances_with_k


class TestFenwick:
    def test_basic_sum_smallest(self):
        f = ValueMultisetFenwick(-5, 5)
        for v in (3, -2, 0, 3, 1):
            f.add(v)
        assert f.sum_smallest(0) == 0
        assert f.sum_smallest(1) == -2
        assert f.sum_smallest(2) == -2
        assert f.sum_smallest(3) == -1
        assert f.sum_smallest(5) == 5
        assert len(f) == 5

    def test_remove(self):
        f = ValueMultisetFenwick(0, 10)
        f.add(4)
        f.add(7)
        f.remove(4)
        assert f.sum_smallest(1) == 7

    def test_domain_checks(self):
        f = ValueMultisetFenwick(0, 3)
        with pytest.raises(ValueError):
            f.add(9)
        with pytest.raises(ValueError):
            f.sum_smallest(1)  # empty
        with pytest.raises(ValueError):
            f.sum_smallest(-1)
        with pytest.raises(ValueError):
            ValueMultisetFenwick(3, 1)

    def test_over_remove(self):
        f = ValueMultisetFenwick(0, 3)
        f.add(1)
        f.remove(1)
        with pytest.raises(ValueError):
            f.remove(1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-20, max_value=20),
                 min_size=1, max_size=30),
        st.data(),
    )
    def test_matches_sorted_reference(self, values, data):
        f = ValueMultisetFenwick(-20, 20)
        for v in values:
            f.add(v)
        count = data.draw(st.integers(min_value=0, max_value=len(values)))
        assert f.sum_smallest(count) == sum(sorted(values)[:count])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=-10, max_value=10),
                 min_size=2, max_size=20)
    )
    def test_interleaved_add_remove(self, values):
        f = ValueMultisetFenwick(-10, 10)
        live: list[int] = []
        for i, v in enumerate(values):
            f.add(v)
            live.append(v)
            if i % 3 == 2:
                gone = live.pop(0)
                f.remove(gone)
            assert f.sum_smallest(len(live)) == sum(live)


class TestIncrementalEquivalence:
    def test_simple_instance(self):
        inst = make_instance(
            sizes=[8, 7, 2, 2, 1], initial=[0, 0, 0, 1, 1], num_processors=2
        )
        a = m_partition_rebalance(inst, 2)
        b = m_partition_rebalance_incremental(inst, 2)
        assert a.guessed_opt == b.guessed_opt
        assert a.makespan == b.makespan
        assert np.array_equal(a.assignment.mapping, b.assignment.mapping)

    def test_empty(self):
        inst = make_instance(sizes=[], initial=[], num_processors=3)
        assert m_partition_rebalance_incremental(inst, 2).makespan == 0.0

    def test_rejects_negative_k(self):
        inst = make_instance(sizes=[1.0], initial=[0])
        with pytest.raises(ValueError):
            m_partition_rebalance_incremental(inst, -1)

    @settings(max_examples=80, deadline=None)
    @given(instances_with_k(max_jobs=8, max_processors=4))
    def test_identical_results(self, case):
        """The incremental scan must stop at the same threshold and
        produce the identical assignment."""
        inst, k = case
        rescan = m_partition_rebalance(inst, k)
        incremental = m_partition_rebalance_incremental(inst, k)
        assert incremental.guessed_opt == pytest.approx(rescan.guessed_opt)
        assert incremental.planned_moves == rescan.planned_moves
        assert np.array_equal(
            incremental.assignment.mapping, rescan.assignment.mapping
        )

    @settings(max_examples=20, deadline=None)
    @given(instances_with_k(max_jobs=10, max_processors=5, max_size=50))
    def test_identical_on_larger_instances(self, case):
        inst, k = case
        rescan = m_partition_rebalance(inst, k)
        incremental = m_partition_rebalance_incremental(inst, k)
        assert incremental.makespan == rescan.makespan
        assert incremental.num_moves == rescan.num_moves
