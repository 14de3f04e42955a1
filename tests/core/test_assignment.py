"""Unit tests for Assignment accounting."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Assignment, make_instance
from repro.core.assignment import apply_sequence

from ..conftest import small_instances


@pytest.fixture
def inst():
    return make_instance(
        sizes=[4, 3, 2, 1], initial=[0, 0, 1, 1], num_processors=3,
        costs=[10, 5, 2, 1],
    )


class TestBasics:
    def test_initial_identity(self, inst):
        a = Assignment.initial(inst)
        assert a.num_moves == 0
        assert a.relocation_cost == 0.0
        assert a.makespan == inst.initial_makespan

    def test_loads(self, inst):
        a = Assignment(instance=inst, mapping=[2, 0, 1, 1])
        assert a.loads.tolist() == [3.0, 3.0, 4.0]
        assert a.makespan == 4.0
        assert a.min_load == 3.0
        assert a.load_of(2) == 4.0

    def test_jobs_on(self, inst):
        a = Assignment(instance=inst, mapping=[2, 0, 1, 1])
        assert a.jobs_on(1).tolist() == [2, 3]

    def test_moves_and_cost(self, inst):
        a = Assignment(instance=inst, mapping=[0, 2, 1, 0])
        assert a.num_moves == 2
        assert set(a.moved_jobs.tolist()) == {1, 3}
        assert a.relocation_cost == 6.0
        assert a.moves_as_dict() == {1: 2, 3: 0}

    def test_from_moves(self, inst):
        a = Assignment.from_moves(inst, {0: 2})
        assert a.mapping.tolist() == [2, 0, 1, 1]
        assert a.num_moves == 1

    def test_with_move(self, inst):
        a = Assignment.initial(inst).with_move(3, 2)
        assert a.num_moves == 1
        assert a.mapping[3] == 2

    def test_apply_sequence_override(self, inst):
        a = apply_sequence(inst, [(0, 1), (0, 2)])
        assert a.mapping[0] == 2
        assert a.num_moves == 1


class TestValidation:
    def test_rejects_wrong_shape(self, inst):
        with pytest.raises(ValueError):
            Assignment(instance=inst, mapping=[0, 1])

    def test_rejects_unknown_processor(self, inst):
        with pytest.raises(ValueError):
            Assignment(instance=inst, mapping=[0, 0, 0, 7])

    def test_validate_move_budget(self, inst):
        a = Assignment(instance=inst, mapping=[2, 2, 1, 1])
        a.validate(max_moves=2)
        with pytest.raises(AssertionError):
            a.validate(max_moves=1)

    def test_validate_cost_budget(self, inst):
        a = Assignment(instance=inst, mapping=[0, 0, 1, 0])  # moves job 3, cost 1
        a.validate(budget=1.0)
        with pytest.raises(AssertionError):
            a.validate(budget=0.5)

    def test_validate_makespan(self, inst):
        a = Assignment.initial(inst)  # makespan 7
        a.validate(max_makespan=7.0)
        with pytest.raises(AssertionError):
            a.validate(max_makespan=6.0)

    def test_post_conditions_hold_under_optimize(self):
        # ``python -O`` strips assert statements; the solver
        # post-conditions and invariants must still raise there.
        script = textwrap.dedent("""
            import dataclasses
            import numpy as np
            from repro.core import (Assignment, Certificate, build_tables,
                                    evaluate_guess, make_instance)
            from repro.core.partition import _construct
            inst = make_instance(sizes=[4, 3, 2, 1], initial=[0, 0, 1, 1],
                                 num_processors=3)
            over = Assignment(instance=inst, mapping=[2, 2, 1, 1])  # 2 moves
            bad = Certificate(valid=False, makespan=4.0, moves=2,
                              relocation_cost=2.0, opt_lower_bound=4.0,
                              proven_ratio=1.0, violations=("x",))
            # At guess 6 processor 0's job is large with b_0 == 0, so
            # Step 3 must select it; selecting processor 1 instead
            # breaks PARTITION's construction invariant.
            pair = make_instance(sizes=[5, 1], initial=[0, 1], num_processors=2)
            tables = build_tables(pair)
            wrong = dataclasses.replace(
                evaluate_guess(tables, 6.0), selected=np.array([1])
            )
            for check in (lambda: over.validate(max_moves=0), bad.require,
                          lambda: _construct(pair, tables, wrong)):
                try:
                    check()
                except AssertionError as exc:
                    print("raised:", exc)
                else:
                    print("passed silently")
        """)
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == [
            "raised: 2 moves exceeds budget 0",
            "raised: certificate violations: ('x',)",
            "raised: unselected large processor with b_i == 0",
        ]


class TestProperties:
    @settings(max_examples=40)
    @given(small_instances(), st.randoms(use_true_random=False))
    def test_load_conservation(self, inst, rnd):
        mapping = [
            rnd.randrange(inst.num_processors) for _ in range(inst.num_jobs)
        ]
        a = Assignment(instance=inst, mapping=np.array(mapping))
        assert a.loads.sum() == pytest.approx(inst.total_size)
        a.validate()

    @settings(max_examples=40)
    @given(small_instances(unit_costs=True))
    def test_unit_cost_moves_equals_cost(self, inst):
        mapping = (np.array(inst.initial) + 1) % inst.num_processors
        a = Assignment(instance=inst, mapping=mapping)
        assert a.relocation_cost == pytest.approx(float(a.num_moves))

    @settings(max_examples=40)
    @given(small_instances())
    def test_makespan_bounds(self, inst):
        a = Assignment.initial(inst)
        assert a.makespan >= inst.average_load - 1e-9
        assert a.makespan >= inst.max_size - 1e-9
