"""Ablation studies for the reproduction's design choices.

Two choices in this implementation are defensible either way; each
ablation quantifies the difference so DESIGN.md's choices are backed by
data rather than taste:

* **A1 — GREEDY reinsertion order** (the paper says "arbitrary"):
  removal order vs size-descending vs size-ascending, on random
  families and on the Theorem-1 adversarial family (where the order is
  exactly what separates ratio ``2 - 1/m`` from much better).
* **A2 — knapsack backend for Section 3.2**: exact DP vs FPTAS inside
  ``cost_partition_rebalance`` — solution quality, budget usage and
  runtime.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.cost_partition import cost_partition_rebalance
from ..core.exact import exact_rebalance
from ..core.greedy import greedy_rebalance
from ..workloads.adversarial import greedy_tight_instance
from ..workloads.generators import random_instance
from .tables import ExperimentReport

__all__ = [
    "ablation_a1_insert_order",
    "ablation_a2_knapsack_method",
    "ALL_ABLATIONS",
]


def ablation_a1_insert_order(
    trials: int = 15, seed: int = 100
) -> ExperimentReport:
    """GREEDY Step-2 reinsertion order."""
    report = ExperimentReport(
        experiment_id="A1",
        title="Ablation: GREEDY reinsertion order (paper: 'arbitrary order')",
        columns=("family", "order", "mean ratio", "worst ratio"),
    )
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(trials):
        inst = random_instance(
            int(rng.integers(5, 10)), int(rng.integers(2, 5)), rng,
            integer_sizes=True,
        )
        k = int(rng.integers(1, inst.num_jobs + 1))
        cases.append((inst, k, exact_rebalance(inst, k=k).makespan))
    for order in ("removal", "descending", "ascending"):
        ratios = [
            greedy_rebalance(inst, k, insert_order=order).makespan / opt
            for inst, k, opt in cases
        ]
        report.add_row(
            f"random x{trials}", order, float(np.mean(ratios)),
            float(np.max(ratios)),
        )
    # The adversarial family: order is the whole story.
    inst, k, opt = greedy_tight_instance(8)
    for order in ("removal", "descending", "ascending"):
        ratio = greedy_rebalance(inst, k, insert_order=order).makespan / opt
        report.add_row("tight(m=8)", order, ratio, ratio)
    report.notes.append(
        "on the Theorem-1 family, reinserting the big job last "
        "(ascending) realizes the full 2 - 1/m; descending avoids it — "
        "the guarantee is order-independent but the constant is not."
    )
    return report


def ablation_a2_knapsack_method(
    trials: int = 10, seed: int = 101
) -> ExperimentReport:
    """Exact-DP vs FPTAS knapsacks inside the Section-3.2 algorithm."""
    report = ExperimentReport(
        experiment_id="A2",
        title="Ablation: Section 3.2 knapsack backend (exact DP vs FPTAS)",
        columns=("backend", "mean ratio", "worst ratio", "mean time (ms)",
                 "budget ok"),
    )
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(trials):
        inst = random_instance(
            int(rng.integers(6, 10)), int(rng.integers(2, 4)), rng,
            cost_family="random", integer_sizes=True,
        )
        budget = float(rng.uniform(1.0, inst.costs.sum()))
        cases.append((inst, budget, exact_rebalance(inst, budget=budget).makespan))
    for backend, eps in (("exact", 0.0), ("fptas eps=0.2", 0.2),
                         ("fptas eps=0.5", 0.5)):
        method = "exact" if backend == "exact" else "fptas"
        ratios = []
        times = []
        ok = True
        for inst, budget, opt in cases:
            start = time.perf_counter()
            res = cost_partition_rebalance(
                inst, budget, knapsack_method=method,
                knapsack_eps=eps or 0.05,
            )
            times.append(time.perf_counter() - start)
            ratios.append(res.makespan / opt if opt else 1.0)
            ok &= res.relocation_cost <= budget + 1e-6
        report.add_row(
            backend, float(np.mean(ratios)), float(np.max(ratios)),
            float(np.mean(times) * 1e3), ok,
        )
    report.notes.append(
        "the FPTAS never violates the budget (it rounds costs, not "
        "sizes); its looser plans may stop the guess scan later, "
        "trading a little makespan for speed on large processors."
    )
    return report


ALL_ABLATIONS = {
    "A1": ablation_a1_insert_order,
    "A2": ablation_a2_knapsack_method,
}
