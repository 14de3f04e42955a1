"""Ablation benches: the design-choice studies of DESIGN.md.

Also benchmarks M-PARTITION's windowed threshold scan on a skewed
placement, which makes it cross many thresholds.
"""

import numpy as np

from repro.analysis.ablations import (
    ablation_a1_insert_order,
    ablation_a2_knapsack_method,
)
from repro.core import m_partition_rebalance
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
        ablation_a2_knapsack_method, rounds=1, iterations=1
    )
    show_report(report)
    assert all(row[-1] for row in report.rows), "a backend broke the budget"


def _skewed(n: int = 4096, m: int = 8, seed: int = 20):
    rng = np.random.default_rng(seed)
    return random_instance(n, m, rng, placement="skewed"), max(1, n // 20)


def test_windowed_kernel(benchmark):
    inst, k = _skewed()
    result = benchmark(m_partition_rebalance, inst, k)
    assert result.num_moves <= k

