"""Microbenchmarks of M-PARTITION's windowed threshold scan.

Every M-PARTITION decide runs one scan
(:func:`repro.core.partition.scan_thresholds`): a cold
``m_partition_rebalance`` and every engine decide.  The cold cases are
offline-solve's shapes at n = 100k, m = 64: lognormal sizes at k = 512
(the scan stops at its start guess) and Zipf(0.9) loads placed round
robin at k = 64 (about 660 thresholds).  The engine cases are an
unhinted decide on a 50k-site snapshot where every load moved since the
engine's last decide, as full-drift sends each epoch (a table patch of
every row, the scan, the construction and its validation), and a hinted
steady-state decide in delta-churn's shape: 200k Zipf sites, m = 64,
k = 512, 16 loads changed per epoch and the previous decision's moves
riding along, applied through the server's resident arrays
(``loadgen.LocalChurnStream``: a row patch per affected processor, a
scan that stops at its start guess, and the construction).

    PYTHONPATH=src python -m pytest benchmarks/bench_core_scan.py --benchmark-only
"""

import itertools

import numpy as np
import pytest

from repro.core import Instance, RebalanceEngine, m_partition_rebalance
from repro.service.loadgen import ChurnStreamConfig, LocalChurnStream
from repro.websim.traffic import zipf_popularities
from repro.workloads import random_instance

N, M = 100_000, 64


@pytest.fixture(scope="module")
def lognormal() -> Instance:
    return random_instance(N, M, np.random.default_rng(0), size_family="lognormal")


@pytest.fixture(scope="module")
def zipf() -> Instance:
    return Instance(
        sizes=np.maximum(zipf_popularities(N, exponent=0.9), 1e-9),
        costs=np.ones(N),
        num_processors=M,
        initial=np.arange(N, dtype=np.int64) % M,
    )


def test_m_partition_lognormal_k512_n100k(benchmark, lognormal):
    result = benchmark(m_partition_rebalance, lognormal, 512)
    assert result.num_moves <= 512


def test_m_partition_long_scan_zipf_k64_n100k(benchmark, zipf):
    result = benchmark(m_partition_rebalance, zipf, 64)
    assert result.num_moves <= 64
    assert result.meta["thresholds_tried"] > 500


def test_engine_unhinted_decide_every_load_moved_n50k(benchmark):
    rng = np.random.default_rng(1)
    old = Instance(
        sizes=np.maximum(zipf_popularities(50_000, exponent=0.9), 1e-9),
        costs=np.ones(50_000),
        num_processors=M,
        initial=np.arange(50_000, dtype=np.int64) % M,
    )
    new = Instance(
        sizes=old.sizes * rng.uniform(0.95, 1.05, old.num_jobs),
        costs=old.costs,
        num_processors=M,
        initial=old.initial,
    )
    # No decision cache, and the snapshots alternate: every timed decide
    # patches all 64 buckets against the other snapshot.
    engine = RebalanceEngine(512, cache_size=0)
    engine.rebalance(old)
    snapshots = itertools.cycle([new, old])
    result = benchmark(lambda: engine.rebalance(next(snapshots)))
    assert result.num_moves <= 512
    assert engine.stats.buckets_patched >= M


def test_engine_hinted_decide_delta_churn_n200k(benchmark):
    stream = LocalChurnStream(
        ChurnStreamConfig(num_sites=200_000, num_servers=M, k=512, seed=7)
    )
    for _ in range(10):  # past the seed epoch's burst of moves
        stream.decide(*stream.next_epoch())
    result = benchmark.pedantic(
        stream.decide, setup=lambda: (stream.next_epoch(), {}), rounds=60,
        iterations=1,
    )
    assert result.num_moves <= 512
    assert stream.engine.stats.incremental_decides >= 11
