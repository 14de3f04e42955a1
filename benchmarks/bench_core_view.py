"""Microbenchmarks of the per-processor view and its four callers.

One sort groups the jobs by processor, ascending by ``(size, index)``
(:func:`repro.core.thresholds.processor_view`).  M-PARTITION's tables,
GREEDY step 1 and Lemma 1's removal bound read it on every cold solve,
and the engine's table patch reads it over the jobs of the buckets that
changed.  Sizes are the offline-solve shape: n = 100k lognormal jobs on
m = 64 processors, k = 512; the patch changes every load of a 50k-site
snapshot, as full-drift does each epoch.

    PYTHONPATH=src python -m pytest benchmarks/bench_core_view.py --benchmark-only
"""

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


def test_build_tables_n100k(benchmark, instance):
    tables = benchmark(build_tables, instance)
    assert len(tables.processors) == M


def test_greedy_n100k(benchmark, instance):
    result = benchmark(greedy_rebalance, instance, K)
    assert result.meta["removals"] == K


def test_greedy_removal_bound_n100k(benchmark, instance):
    bound = benchmark(greedy_removal_bound, instance, K)
    assert 0.0 < bound < instance.initial_makespan


def test_patch_tables_every_bucket_n50k(benchmark):
    rng = np.random.default_rng(1)
    old = random_instance(50_000, M, rng, size_family="lognormal")
    new = Instance(
        sizes=old.sizes * rng.uniform(0.95, 1.05, old.num_jobs),
        costs=old.costs,
        num_processors=M,
        initial=old.initial,
    )
    tables = build_tables(old)
    _, patched = benchmark(patch_tables, tables, new)
    assert patched == M
