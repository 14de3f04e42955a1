"""Core algorithms of the load rebalancing paper.

This package implements the paper's primary contributions:

* :mod:`repro.core.greedy` — the tight ``(2 - 1/m)``-approximation
  (Section 2, Theorem 1);
* :mod:`repro.core.partition` — PARTITION and M-PARTITION, the
  1.5-approximation (Section 3, Theorems 2–3);
* :mod:`repro.core.cost_partition` — the arbitrary-cost extension
  (Section 3.2);
* :mod:`repro.core.ptas` — the PTAS for the budgeted weighted problem
  (Section 4, Theorem 4);
* :mod:`repro.core.exact` / :mod:`repro.core.milp` — exact ground-truth
  solvers for small instances;

plus the shared data model (:class:`Instance`, :class:`Assignment`,
:class:`RebalanceResult`) and supporting machinery (lower bounds,
threshold enumeration, knapsack subroutines).
"""

from .assignment import Assignment
from .certify import Certificate, certify
from .cost_partition import cost_partition_rebalance, evaluate_cost_guess
from .engine import EngineStats, RebalanceEngine
from .exact import exact_rebalance
from .greedy import greedy_rebalance
from .instance import Instance, make_instance
from .job import Job
from .knapsack import (
    KnapsackSolution,
    keep_max_cost,
    keep_max_cost_exact,
    keep_max_cost_fptas,
    min_removal_cost,
)
from .lower_bounds import (
    average_load_bound,
    combined_lower_bound,
    greedy_removal_bound,
    max_job_bound,
)
from .milp import HAS_MILP, milp_rebalance
from .partition import (
    GuessEvaluation,
    evaluate_guess,
    m_partition_rebalance,
    partition_rebalance,
)
from .unit_jobs import unit_rebalance_exact
from .ptas import PTASLimits, ptas_rebalance
from .result import RebalanceResult
from .solvers import available_algorithms, rebalance, register_algorithm
from .thresholds import ThresholdTables, build_tables, patch_tables

__all__ = [
    "Assignment",
    "Certificate",
    "certify",
    "EngineStats",
    "GuessEvaluation",
    "HAS_MILP",
    "Instance",
    "Job",
    "KnapsackSolution",
    "PTASLimits",
    "RebalanceEngine",
    "RebalanceResult",
    "ThresholdTables",
    "available_algorithms",
    "average_load_bound",
    "build_tables",
    "combined_lower_bound",
    "cost_partition_rebalance",
    "evaluate_cost_guess",
    "evaluate_guess",
    "exact_rebalance",
    "greedy_rebalance",
    "greedy_removal_bound",
    "keep_max_cost",
    "keep_max_cost_exact",
    "keep_max_cost_fptas",
    "m_partition_rebalance",
    "make_instance",
    "max_job_bound",
    "milp_rebalance",
    "min_removal_cost",
    "partition_rebalance",
    "patch_tables",
    "ptas_rebalance",
    "rebalance",
    "unit_rebalance_exact",
    "register_algorithm",
]

