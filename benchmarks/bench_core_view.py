"""Microbenchmarks of the per-processor view and its four callers.

One sort groups the jobs by processor, ascending by ``(size, index)``
(:func:`repro.core.thresholds.processor_view`).  M-PARTITION's tables,
GREEDY step 1 and Lemma 1's removal bound read it on every cold solve,
and the engine's table patch reads it over the jobs of the buckets that
changed.  Sizes are the offline-solve shape: n = 100k lognormal jobs on
m = 64 processors, k = 512; the patch changes every load of a 50k-site
snapshot, as full-drift does each epoch.  Those placements are balanced,
so the table rows share one width; the skewed cases pile half the jobs
onto one processor, so the rows differ in width and the tables take
their variable-width path.

    PYTHONPATH=src python -m pytest benchmarks/bench_core_view.py --benchmark-only
"""

import itertools

import numpy as np
import pytest

from repro.core import (
    Instance,
    build_tables,
    greedy_rebalance,
    greedy_removal_bound,
    patch_tables,
)
from repro.workloads import random_instance

N, M, K = 100_000, 64, 512


@pytest.fixture(scope="module")
def instance() -> Instance:
    return random_instance(N, M, np.random.default_rng(0), size_family="lognormal")


def _skewed(instance: Instance) -> Instance:
    """The same jobs with every other one moved onto processor 0."""
    initial = instance.initial.copy()
    initial[::2] = 0
    return Instance(
        sizes=instance.sizes, costs=instance.costs, num_processors=M,
        initial=initial,
    )


def _row_widths(tables) -> set[int]:
    return set(np.diff(tables.start).tolist())


def test_build_tables_n100k(benchmark, instance):
    tables = benchmark(build_tables, instance)
    assert tables.num_processors == M
    assert len(_row_widths(tables)) == 1


def test_build_tables_skewed_n100k(benchmark, instance):
    tables = benchmark(build_tables, _skewed(instance))
    assert len(_row_widths(tables)) > 1


def test_greedy_n100k(benchmark, instance):
    result = benchmark(greedy_rebalance, instance, K)
    assert result.meta["removals"] == K


def test_greedy_removal_bound_n100k(benchmark, instance):
    bound = benchmark(greedy_removal_bound, instance, K)
    assert 0.0 < bound < instance.initial_makespan


def _patch_every_bucket(
    benchmark, old: Instance, rng: np.random.Generator
) -> set[int]:
    new = Instance(
        sizes=old.sizes * rng.uniform(0.95, 1.05, old.num_jobs),
        costs=old.costs,
        num_processors=M,
        initial=old.initial,
    )
    # Patches rewrite the rows in place, so the snapshots alternate:
    # every timed call patches all 64 rows against the other snapshot.
    tables = build_tables(old)
    snapshots = itertools.cycle([new, old])
    _, patched = benchmark(lambda: patch_tables(tables, next(snapshots)))
    assert patched == M
    return _row_widths(tables)


def test_patch_tables_every_bucket_n50k(benchmark):
    rng = np.random.default_rng(1)
    old = random_instance(50_000, M, rng, size_family="lognormal")
    assert len(_patch_every_bucket(benchmark, old, rng)) == 1


def test_patch_tables_every_bucket_skewed_n50k(benchmark):
    rng = np.random.default_rng(1)
    old = _skewed(random_instance(50_000, M, rng, size_family="lognormal"))
    assert len(_patch_every_bucket(benchmark, old, rng)) > 1
