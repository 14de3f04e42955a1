"""Experiment harness: ratio measurement, runtime scaling, ASCII tables
and the E1–E10 drivers that regenerate every result in EXPERIMENTS.md."""

from .experiments import (
    ALL_EXPERIMENTS,
    experiment_e1_greedy,
    experiment_e2_partition,
    experiment_e3_scaling,
    experiment_e4_ptas,
    experiment_e5_costs,
    experiment_e6_websim,
    experiment_e7_movemin,
    experiment_e8_frontier,
    experiment_e9_headtohead,
    experiment_e10_hardness,
    experiment_e11_scale_oracles,
    experiment_e12_engine,
    experiment_e14_service,
    experiment_e15_wire,
    experiment_e17_cluster,
    wire_sizes,
)
from .ablations import (
    ALL_ABLATIONS,
    ablation_a1_insert_order,
    ablation_a2_knapsack_method,
)
from .ratios import RatioStats, measure_ratios
from .scaling import ScalingPoint, loglog_slope, measure_scaling
from .tables import ExperimentReport, render_table

__all__ = [
    "ALL_ABLATIONS",
    "ALL_EXPERIMENTS",
    "ablation_a1_insert_order",
    "ablation_a2_knapsack_method",
    "ExperimentReport",
    "RatioStats",
    "ScalingPoint",
    "experiment_e1_greedy",
    "experiment_e2_partition",
    "experiment_e3_scaling",
    "experiment_e4_ptas",
    "experiment_e5_costs",
    "experiment_e6_websim",
    "experiment_e7_movemin",
    "experiment_e8_frontier",
    "experiment_e9_headtohead",
    "experiment_e10_hardness",
    "experiment_e11_scale_oracles",
    "experiment_e12_engine",
    "experiment_e14_service",
    "experiment_e15_wire",
    "experiment_e17_cluster",
    "loglog_slope",
    "measure_ratios",
    "measure_scaling",
    "render_table",
    "wire_sizes",
]
