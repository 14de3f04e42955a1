"""Tests for the Graham list-scheduling / LPT substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import list_schedule, lpt_rebalance, lpt_schedule
from repro.core import exact_rebalance, make_instance

sizes_lists = st.lists(
    st.integers(min_value=1, max_value=30), min_size=1, max_size=9
)


class TestListSchedule:
    def test_simple(self):
        mapping = list_schedule([4, 3, 2], 2)
        loads = np.zeros(2)
        np.add.at(loads, mapping, [4, 3, 2])
        assert loads.max() == 5.0

    def test_every_job_placed(self):
        mapping = list_schedule([1] * 7, 3)
        assert mapping.shape == (7,)
        assert set(mapping.tolist()) <= {0, 1, 2}

    @settings(max_examples=40, deadline=None)
    @given(sizes_lists, st.integers(min_value=1, max_value=4))
    def test_graham_bound(self, sizes, m):
        """List scheduling <= (2 - 1/m) OPT [Graham 1966]."""
        mapping = list_schedule(sizes, m)
        loads = np.zeros(m)
        np.add.at(loads, mapping, sizes)
        inst = make_instance(sizes=sizes, initial=[0] * len(sizes),
                             num_processors=m)
        opt = exact_rebalance(inst, k=len(sizes)).makespan
        assert loads.max() <= (2.0 - 1.0 / m) * opt + 1e-9


class TestLPT:
    @settings(max_examples=40, deadline=None)
    @given(sizes_lists, st.integers(min_value=1, max_value=4))
    def test_lpt_bound(self, sizes, m):
        """LPT <= (4/3 - 1/(3m)) OPT [Graham 1969]."""
        mapping = lpt_schedule(sizes, m)
        loads = np.zeros(m)
        np.add.at(loads, mapping, sizes)
        inst = make_instance(sizes=sizes, initial=[0] * len(sizes),
                             num_processors=m)
        opt = exact_rebalance(inst, k=len(sizes)).makespan
        assert loads.max() <= (4.0 / 3.0 - 1.0 / (3 * m)) * opt + 1e-9

    def test_classic_seven_sixths_example(self):
        # Classic: LPT gives 7 on {3,3,2,2,2} with 2 machines (OPT = 6),
        # exactly the 7/6 = 4/3 - 1/(3*2) worst case.
        mapping = lpt_schedule([3, 3, 2, 2, 2], 2)
        loads = np.zeros(2)
        np.add.at(loads, mapping, [3, 3, 2, 2, 2])
        assert loads.max() == 7.0


class TestLPTRebalance:
    def test_ignores_budget_but_reports_it(self):
        inst = make_instance(
            sizes=[5, 5, 5, 5], initial=[0, 0, 0, 0], num_processors=2
        )
        res = lpt_rebalance(inst, k=0)
        assert res.meta["ignores_budget"]
        assert res.meta["move_budget_violated"] == (res.num_moves > 0)

    def test_makespan_quality(self):
        inst = make_instance(
            sizes=[5, 5, 5, 5], initial=[0, 0, 0, 0], num_processors=2
        )
        res = lpt_rebalance(inst)
        assert res.makespan == 10.0
