"""Ablation benches: the design-choice studies of DESIGN.md.

Also benchmarks the windowed vs per-step Fenwick scan kernels
head-to-head.
"""

import numpy as np

from repro.analysis.ablations import (
    ablation_a1_insert_order,
    ablation_a2_knapsack_backend,
    ablation_a3_scan_strategy,
)
from repro.core import m_partition_rebalance
from repro.core.partition_incremental import m_partition_rebalance_incremental
from repro.workloads import random_instance


def test_a1_table(benchmark, show_report):
    report = benchmark.pedantic(
        ablation_a1_insert_order, rounds=1, iterations=1
    )
    show_report(report)
    tight = {row[1]: row[3] for row in report.rows if row[0].startswith("tight")}
    # Ascending reinsertion realizes the adversarial 2 - 1/m exactly.
    assert tight["ascending"] == max(tight.values())


def test_a2_table(benchmark, show_report):
    report = benchmark.pedantic(
        ablation_a2_knapsack_backend, rounds=1, iterations=1
    )
    show_report(report)
    assert all(row[-1] for row in report.rows), "a backend broke the budget"


def test_a3_table(benchmark, show_report):
    report = benchmark.pedantic(
        ablation_a3_scan_strategy, rounds=1, iterations=1
    )
    show_report(report)
    assert all(row[-1] for row in report.rows), "scan strategies diverged"


def _skewed(n: int = 4096, m: int = 8, seed: int = 20):
    rng = np.random.default_rng(seed)
    return random_instance(n, m, rng, placement="skewed"), max(1, n // 20)


def test_windowed_kernel(benchmark):
    inst, k = _skewed()
    result = benchmark(m_partition_rebalance, inst, k)
    assert result.num_moves <= k


def test_incremental_kernel(benchmark):
    inst, k = _skewed()
    result = benchmark(m_partition_rebalance_incremental, inst, k)
    assert result.num_moves <= k
