"""Tests for threshold enumeration (Section 3.1, Lemma 5)."""

import numpy as np
from hypothesis import given, settings

from repro.core import build_tables, evaluate_guess, make_instance

from ..conftest import small_instances
from .test_threshold_scan import a_value, b_value, candidate_guesses, small_count


def brute_a_value(inst, proc, guess):
    """a_i from its Definition: min #smalls removed so remaining <= guess/2."""
    jobs = inst.jobs_on(proc)
    smalls = sorted(
        (float(inst.sizes[j]) for j in jobs if inst.sizes[j] <= guess / 2),
        reverse=True,
    )
    total = sum(smalls)
    removed = 0
    while total > guess / 2 + 1e-12:
        total -= smalls[removed]
        removed += 1
    return removed


def brute_b_value(inst, proc, guess):
    """b_i: after Step 1 (keep smallest large), min removals so total <= guess."""
    jobs = inst.jobs_on(proc)
    smalls = [float(inst.sizes[j]) for j in jobs if inst.sizes[j] <= guess / 2]
    larges = sorted(
        float(inst.sizes[j]) for j in jobs if inst.sizes[j] > guess / 2
    )
    current = sorted(smalls + larges[:1], reverse=True)
    total = sum(current)
    removed = 0
    while total > guess + 1e-12:
        total -= current[removed]
        removed += 1
    return removed


class TestProcessorTables:
    def test_ascending_order(self):
        inst = make_instance(sizes=[5, 1, 3], initial=[0, 0, 0], num_processors=1)
        jobs, sizes, prefix = build_tables(inst).row(0)
        assert jobs.tolist() == [1, 2, 0]
        assert sizes.tolist() == [1.0, 3.0, 5.0]
        assert prefix.tolist() == [0.0, 1.0, 4.0, 9.0]

    def test_small_count(self):
        inst = make_instance(sizes=[5, 1, 3], initial=[0, 0, 0], num_processors=1)
        tables = build_tables(inst)
        _, sizes, _ = tables.row(0)
        for guess, smalls in ((10.0, 3), (6.0, 2), (2.0, 1)):
            # threshold 5: all small; 3: 5 is large; 1: only job 1 small
            assert small_count(sizes, guess) == smalls
            assert tables.count_le(sizes=[guess / 2.0]).tolist() == [[smalls]]

    def test_empty_processor(self):
        inst = make_instance(sizes=[1.0], initial=[0], num_processors=3)
        tables = build_tables(inst)
        _, sizes, prefix = tables.row(2)
        assert tables.count[2] == 0 and prefix.tolist() == [0.0]
        assert a_value(sizes, prefix, 1.0) == 0
        assert b_value(sizes, prefix, 1.0) == 0
        ev = evaluate_guess(tables, 1.0)
        assert ev.a_values[2] == 0 and ev.b_values[2] == 0

    def test_total_large(self):
        inst = make_instance(sizes=[5, 1, 3], initial=[0, 0, 0], num_processors=1)
        tables = build_tables(inst)
        assert tables.total_large(10.0) == 0
        assert tables.total_large(6.0) == 1
        assert tables.total_large(1.0) == 3

    @settings(max_examples=50, deadline=None)
    @given(small_instances(max_jobs=8, max_processors=3))
    def test_a_b_match_definitions(self, inst):
        tables = build_tables(inst)
        for guess in candidate_guesses(tables):
            ev = evaluate_guess(tables, guess)
            for p in range(inst.num_processors):
                _, sizes, prefix = tables.row(p)
                assert a_value(sizes, prefix, guess) == brute_a_value(inst, p, guess)
                assert b_value(sizes, prefix, guess) == brute_b_value(inst, p, guess)
                assert ev.a_values[p] == brute_a_value(inst, p, guess)
                assert ev.b_values[p] == brute_b_value(inst, p, guess)


class TestCandidateGuesses:
    def test_sorted_unique(self):
        inst = make_instance(
            sizes=[2, 2, 4], initial=[0, 0, 1], num_processors=2
        )
        cands = candidate_guesses(build_tables(inst))
        assert np.all(np.diff(cands) > 0)

    def test_includes_doubled_sizes(self):
        inst = make_instance(sizes=[3, 7], initial=[0, 1], num_processors=2)
        cands = set(candidate_guesses(build_tables(inst)).tolist())
        assert {6.0, 14.0} <= cands

    def test_includes_prefix_sums(self):
        inst = make_instance(sizes=[3, 7], initial=[0, 0], num_processors=1)
        cands = set(candidate_guesses(build_tables(inst)).tolist())
        assert {3.0, 10.0, 20.0} <= cands

    @settings(max_examples=30, deadline=None)
    @given(small_instances(max_jobs=6, max_processors=3))
    def test_piecewise_constant_between_thresholds(self, inst):
        """Lemma 5: (L_T, a_i, b_i) is constant strictly between
        consecutive threshold values."""
        tables = build_tables(inst)
        cands = candidate_guesses(tables)
        for lo, hi in zip(cands, cands[1:]):
            if hi - lo < 1e-9 * max(1.0, hi):
                continue  # interval too thin for distinct float probes
            probes = np.linspace(lo, hi, 5)[1:-1]  # interior points
            signatures = set()
            for guess in [float(lo)] + [float(x) for x in probes]:
                ev = evaluate_guess(tables, guess)
                sig = (
                    tables.total_large(guess),
                    tuple(ev.a_values.tolist()),
                    tuple(ev.b_values.tolist()),
                )
                signatures.add(sig)
            assert len(signatures) == 1, (
                f"values changed inside ({lo}, {hi}): {signatures}"
            )
