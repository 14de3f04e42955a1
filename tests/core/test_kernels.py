"""Differential tests: the vectorized DPs vs the textbook ones they replaced.

The knapsack sweeps (:mod:`repro.core.knapsack`), the layered PTAS DP
(:mod:`repro.core.ptas`) and the work-skipping cost-guess evaluation
(:mod:`repro.core.cost_partition`) claim *byte-identical* traces, not
just equal objective values — same kept sets, same chosen guesses, same
assignments.  The straightforward versions they replaced live on here as
oracles: the cell-at-a-time knapsack DPs, the top-down memoized PTAS
recursion and the eager evaluation that plans every processor at every
guess.  Each oracle is swapped in for the code it replaced, so the rest
of the solver is shared and the comparison isolates the replaced part.
These tests hold the solvers to that on adversarial inputs (ties, zero
costs, fractional grids, overloaded and underloaded shapes), and check
the knapsack against brute force over all subsets for n <= 12.
"""

import itertools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    cost_partition_rebalance,
    keep_max_cost_exact,
    keep_max_cost_fptas,
    make_instance,
    ptas_rebalance,
)
from repro.core import cost_partition, knapsack, ptas
from repro.core.cost_partition import CostGuessPlan
from repro.core.ptas import _normalized_vectors

from ..conftest import small_instances

# --- Oracles: the cell-at-a-time knapsack DPs. ------------------------------


def reference_exact_trace(s, c, ws, cap):
    """Exact keep-max-cost DP over every capacity cell of every item, in
    the signature of ``knapsack._exact_keep_indices``."""
    n = c.size
    # best[v] = max kept cost using the first i items at total grid size
    # <= v; take[i][v] = keep item i at v?
    best = np.full(cap + 1, 0.0)
    take = np.zeros((n, cap + 1), dtype=bool)
    for i in range(n):
        w = int(ws[i])
        if w > cap:
            continue
        cand = np.full(cap + 1, -np.inf)
        cand[w:] = best[: cap + 1 - w] + c[i]
        better = cand > best
        take[i] = better
        best = np.where(better, cand, best)

    keep: list[int] = []
    v = int(np.argmax(best))
    for i in range(n - 1, -1, -1):
        if take[i, v]:
            keep.append(i)
            v -= int(ws[i])
    keep.reverse()
    return tuple(keep)


def reference_fptas_trace(s, c, scaled, capacity):
    """The FPTAS's DP over every scaled-cost cell of every item, in the
    signature of ``knapsack._fptas_keep_trace``."""
    n = s.size
    max_total = int(scaled.sum())
    # min_size[v] = smallest total size achieving scaled cost exactly v.
    min_size = np.full(max_total + 1, np.inf)
    min_size[0] = 0.0
    take = np.zeros((n, max_total + 1), dtype=bool)
    for i in range(n):
        v = int(scaled[i])
        if v == 0:
            continue  # the caller reinserts zero-scaled items greedily
        cand = np.full(max_total + 1, np.inf)
        cand[v:] = min_size[: max_total + 1 - v] + s[i]
        better = cand < min_size
        take[i] = better
        min_size = np.where(better, cand, min_size)

    feasible = np.flatnonzero(min_size <= capacity)
    v = int(feasible[-1]) if feasible.size else 0
    keep: list[int] = []
    for i in range(n - 1, -1, -1):
        if take[i, v]:
            keep.append(i)
            v -= int(scaled[i])
    keep.reverse()
    return keep, float(s[keep].sum()) if keep else 0.0


@contextmanager
def reference_knapsacks():
    """Run every knapsack entry point on the cell-at-a-time oracles."""
    with mock.patch.object(knapsack, "_exact_keep_indices", reference_exact_trace), \
            mock.patch.object(knapsack, "_fptas_keep_trace", reference_fptas_trace):
        yield


# --- Oracle: the top-down memoized PTAS recursion. --------------------------


def enumerate_large_vectors(disc, limit):
    """All large-class count vectors ``x`` with ``sum x_i l_i <= W`` and
    ``x_i <= N_i``, as ``(x, rounded_large_load)`` pairs, in job-size
    units with an absolute tolerance."""
    out = []
    sizes = disc.class_sizes
    counts = disc.class_counts

    def rec(cls, current, load):
        if len(out) > limit:
            raise RuntimeError(
                "PTAS configuration enumeration exceeded "
                f"{limit} entries; reduce instance size or increase eps"
            )
        if cls == disc.num_classes:
            out.append((tuple(current), load))
            return
        x = 0
        while x <= int(counts[cls]) and load + x * sizes[cls] <= disc.w_cap + 1e-9:
            current.append(x)
            rec(cls + 1, current, load + x * sizes[cls])
            current.pop()
            x += 1

    rec(0, [], 0.0)
    return out


def small_removal_cost(disc, proc, target):
    """Greedy small-removal cost so the remaining small load on ``proc``
    is at most ``target + unit``."""
    v = disc.small_load[proc]
    slack = target + disc.unit
    if v <= slack + 1e-12:
        return 0.0
    prefix = disc.small_size_prefix[proc]
    r = int(np.searchsorted(prefix, v - slack - 1e-12, side="left"))
    r = min(r, prefix.shape[0] - 1)
    return float(disc.small_cost_prefix[proc][r])


def memo_dp(disc, m, limits):
    """``f(proc, n_vector, v_units)`` top down with a tuple-keyed memo,
    in the signature of ``ptas._layered_dp``."""
    large_vectors = enumerate_large_vectors(disc, limits.max_configs_per_processor)
    unit = disc.unit

    def large_cost(proc, x):
        total = 0.0
        for cls in range(disc.num_classes):
            have = len(disc.large_by_class[proc][cls])
            keep = min(x[cls], have)
            total += float(disc.large_cost_prefix[proc][cls][have - keep])
        return total

    memo = {}
    choice = {}

    def f(proc, n, v_units):
        if proc == m:
            return 0.0 if (all(c == 0 for c in n) and v_units == 0) else math.inf
        key = (proc, n, v_units)
        if key in memo:
            return memo[key]
        best = math.inf
        best_choice = None
        for x, load in large_vectors:
            if any(x[i] > n[i] for i in range(disc.num_classes)):
                continue
            lc = large_cost(proc, x)
            if lc >= best:
                continue
            v_max = min(int((disc.w_cap - load + 1e-9) // unit), v_units)
            # The remaining processors must be able to absorb what is
            # left of V: each can take at most floor(W / unit).
            per_proc_cap = int((disc.w_cap + 1e-9) // unit)
            v_min = max(0, v_units - (m - proc - 1) * per_proc_cap)
            child_n = tuple(n[i] - x[i] for i in range(disc.num_classes))
            for v_prime in range(v_max, v_min - 1, -1):
                cost = lc + small_removal_cost(disc, proc, v_prime * unit)
                if cost >= best:
                    break  # the small-removal cost grows as v_prime shrinks
                sub = f(proc + 1, child_n, v_units - v_prime)
                if cost + sub < best:
                    best = cost + sub
                    best_choice = (x, v_prime)
        memo[key] = best
        if best_choice is not None:
            choice[key] = best_choice
        return best

    root_n = tuple(int(c) for c in disc.class_counts)
    total_cost = f(0, root_n, disc.total_small_units)
    if not math.isfinite(total_cost):
        return None
    configs = []
    n, v = root_n, disc.total_small_units
    for proc in range(m):
        x, v_prime = choice[(proc, n, v)]
        configs.append((x, v_prime))
        n = tuple(n[i] - x[i] for i in range(disc.num_classes))
        v -= v_prime
    return total_cost, configs


def reference_ptas(instance, budget, **kwargs):
    with mock.patch.object(ptas, "_layered_dp", memo_dp):
        return ptas_rebalance(instance, budget, **kwargs)


# --- Oracle: the eager cost-guess evaluation. -------------------------------


def eager_evaluate_cost_guess(instance, guess, knapsack_method="auto",
                              knapsack_eps=0.05, knapsack_resolution=4096):
    """Both plans of every processor at every guess, feasible or not."""
    m = instance.num_processors
    total_large = int((instance.sizes > guess / 2.0).sum())
    plans = tuple(
        cost_partition._plan_processor(
            instance, instance.jobs_on(p), guess, knapsack_method,
            knapsack_eps, knapsack_resolution,
        )
        for p in range(m)
    )
    if total_large > m:
        return CostGuessPlan(
            guess=guess, feasible=False, total_large=total_large,
            planned_cost=float("inf"), selected=np.empty(0, dtype=np.int64),
            plans=plans,
        )
    selected, planned = cost_partition._select_and_price(plans, m, total_large)
    return CostGuessPlan(
        guess=guess, feasible=True, total_large=total_large,
        planned_cost=planned, selected=selected, plans=plans,
    )


def reference_cost_partition(instance, budget, **kwargs):
    with reference_knapsacks(), mock.patch.object(
        cost_partition, "evaluate_cost_guess", eager_evaluate_cost_guess
    ):
        return cost_partition_rebalance(instance, budget, **kwargs)


def brute_force_best(sizes, costs, capacity):
    """Max kept cost over all feasible subsets."""
    best = 0.0
    for r in range(len(sizes) + 1):
        for subset in itertools.combinations(range(len(sizes)), r):
            if sum(sizes[i] for i in subset) <= capacity + 1e-12:
                best = max(best, sum(costs[i] for i in subset))
    return best


knapsack_cases = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=60),
    st.booleans(),  # integer sizes (exact grid) vs fractional (scaled grid)
    st.randoms(use_true_random=False),
).map(
    lambda t: (
        [
            t[3].randint(1, 15) if t[2] else t[3].uniform(0.1, 9.0)
            for _ in range(t[0])
        ],
        [0.0 if t[3].random() < 0.25 else float(t[3].randint(0, 20))
         for _ in range(t[0])],
        float(t[1]),
    )
)


class TestKnapsackKernel:
    @settings(max_examples=150, deadline=None)
    @given(knapsack_cases)
    def test_exact_kernel_matches_brute_force(self, case):
        sizes, costs, capacity = case
        if not all(s == round(s) for s in sizes):
            return  # brute force only meaningful on the exact grid
        sol = keep_max_cost_exact(sizes, costs, capacity)
        assert sol.kept_size <= capacity + 1e-9
        assert sol.kept_cost == pytest.approx(
            brute_force_best(sizes, costs, capacity)
        )

    @settings(max_examples=150, deadline=None)
    @given(knapsack_cases)
    def test_exact_kernel_identical_to_reference(self, case):
        sizes, costs, capacity = case
        a = keep_max_cost_exact(sizes, costs, capacity)
        with reference_knapsacks():
            b = keep_max_cost_exact(sizes, costs, capacity)
        assert a == b  # keep set, kept cost and kept size, bitwise

    @settings(max_examples=100, deadline=None)
    @given(knapsack_cases, st.sampled_from([0.05, 0.1, 0.3, 0.7]))
    def test_fptas_kernel_identical_to_reference(self, case, eps):
        sizes, costs, capacity = case
        a = keep_max_cost_fptas(sizes, costs, capacity, eps=eps)
        with reference_knapsacks():
            b = keep_max_cost_fptas(sizes, costs, capacity, eps=eps)
        assert a == b

    def test_all_fit_shortcut_traces_positive_items(self):
        # Every positive-cost item fits: the shortcut must keep exactly
        # those, like the full trace does.
        a = keep_max_cost_exact([2, 3, 4], [5, 0, 7], 100)
        with reference_knapsacks():
            b = keep_max_cost_exact([2, 3, 4], [5, 0, 7], 100)
        assert a == b
        assert a.keep == (0, 2)

    def test_removed_is_sorted_complement(self):
        sol = keep_max_cost_exact([3, 3, 3, 3], [1, 9, 2, 8], 6)
        removed = sol.removed(4)
        assert removed == tuple(sorted(removed))
        assert set(sol.keep) | set(removed) == {0, 1, 2, 3}
        assert not set(sol.keep) & set(removed)


@st.composite
def budgeted_cases(draw):
    inst = draw(small_instances(max_jobs=6, max_processors=3,
                                unit_costs=False))
    total = float(inst.costs.sum())
    budget = draw(st.floats(min_value=0.0, max_value=max(total, 1.0)))
    return inst, budget


def _result_key(res):
    return (
        res.guessed_opt,
        res.planned_cost,
        res.assignment.makespan,
        tuple(int(x) for x in res.assignment.mapping),
    )


class TestPTASKernel:
    @settings(max_examples=40, deadline=None)
    @given(budgeted_cases(), st.sampled_from([2.0, 1.0, 0.75]))
    def test_identical_to_reference(self, case, eps):
        inst, budget = case
        a = ptas_rebalance(inst, budget, eps=eps)
        b = reference_ptas(inst, budget, eps=eps)
        assert _result_key(a) == _result_key(b)
        assert a.meta["guesses_tried"] == b.meta["guesses_tried"]

    def test_vector_enumeration_cached_per_signature(self):
        _normalized_vectors.cache_clear()
        args = (0.125, 3, (2, 1, 1), 1000)
        first = _normalized_vectors(*args)
        second = _normalized_vectors(*args)
        assert first is second  # same object: served from the cache
        info = _normalized_vectors.cache_info()
        assert info.hits >= 1 and info.misses == 1

    def test_vector_enumeration_respects_limit(self):
        _normalized_vectors.cache_clear()
        with pytest.raises(RuntimeError, match="enumeration exceeded"):
            _normalized_vectors(0.125, 3, (8, 8, 8), 2)


class TestCostPartitionKernel:
    @settings(max_examples=30, deadline=None)
    @given(budgeted_cases())
    def test_identical_to_reference(self, case):
        inst, budget = case
        a = cost_partition_rebalance(inst, budget)
        b = reference_cost_partition(inst, budget)
        assert _result_key(a) == _result_key(b)
        assert a.meta["guesses_tried"] == b.meta["guesses_tried"]

    def test_resolution_kwarg_passthrough(self):
        inst = make_instance(
            sizes=[2.5, 2.5, 2.5, 1.25], initial=[0, 0, 0, 1],
            num_processors=2, costs=[3.0, 2.0, 1.0, 1.0],
        )
        budget = 4.0
        for resolution in (64, 4096):
            a = cost_partition_rebalance(
                inst, budget, knapsack_resolution=resolution
            )
            b = reference_cost_partition(
                inst, budget, knapsack_resolution=resolution
            )
            assert _result_key(a) == _result_key(b)
            assert a.meta["knapsack_resolution"] == resolution
