"""Independent solution certification.

Algorithms can be wrong; certificates cannot.  ``certify`` re-derives
everything about a :class:`~repro.core.result.RebalanceResult` from
first principles — load conservation, budget compliance, and a *proven*
bound on the approximation ratio obtained by dividing the achieved
makespan by the best lower bound on ``OPT`` (average load, maximum job
size, and Lemma 1's greedy-removal bound).  The proven ratio requires
no exact solver, so it certifies solutions at any scale.

The experiment harness and the test suite both route results through
this module, so a bug in an algorithm's own bookkeeping cannot
silently survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lower_bounds import combined_lower_bound
from .result import RebalanceResult

__all__ = ["Certificate", "certify"]


@dataclass(frozen=True)
class Certificate:
    """Everything provable about one rebalancing result.

    ``proven_ratio`` is an upper bound on the true approximation ratio:
    ``makespan / max(lower bounds on OPT)``.  A certificate with
    ``proven_ratio <= 1.5`` *proves* the solution is 1.5-optimal even
    when the exact optimum is unknown.
    """

    valid: bool
    makespan: float
    moves: int
    relocation_cost: float
    opt_lower_bound: float
    proven_ratio: float
    violations: tuple[str, ...]

    def require(self, max_ratio: float | None = None) -> None:
        """Raise ``AssertionError`` on any violation (or ratio breach),
        also under ``python -O``."""
        if not self.valid:
            raise AssertionError(f"certificate violations: {self.violations}")
        if max_ratio is not None and not self.proven_ratio <= max_ratio + 1e-9:
            raise AssertionError(
                f"proven ratio {self.proven_ratio} exceeds {max_ratio}"
            )


def certify(
    result: RebalanceResult,
    k: int | None = None,
    budget: float | None = None,
) -> Certificate:
    """Re-derive and check every claim in ``result`` from scratch."""
    instance = result.assignment.instance
    mapping = result.assignment.mapping
    violations: list[str] = []

    # Structural integrity, recomputed without trusting Assignment's
    # cached arrays.
    if mapping.shape != (instance.num_jobs,):
        violations.append("mapping length mismatch")
    if instance.num_jobs and (
        mapping.min() < 0 or mapping.max() >= instance.num_processors
    ):
        violations.append("mapping refers to unknown processors")
    loads = np.zeros(instance.num_processors)
    np.add.at(loads, mapping, instance.sizes)
    makespan = float(loads.max()) if instance.num_processors else 0.0
    if abs(loads.sum() - instance.total_size) > 1e-9 * max(
        1.0, instance.total_size
    ):
        violations.append("load not conserved")
    if abs(makespan - result.makespan) > 1e-9 * max(1.0, makespan):
        violations.append(
            f"reported makespan {result.makespan} != recomputed {makespan}"
        )

    moved = mapping != instance.initial
    moves = int(moved.sum())
    cost = float(instance.costs[moved].sum())
    if k is not None and moves > k:
        violations.append(f"{moves} moves exceed budget k={k}")
    if budget is not None and cost > budget + 1e-9 * max(1.0, budget):
        violations.append(f"cost {cost} exceeds budget B={budget}")
    if result.planned_moves is not None and moves > result.planned_moves:
        violations.append(
            f"actual moves {moves} exceed planned {result.planned_moves}"
        )
    if result.planned_cost is not None and cost > result.planned_cost + 1e-9 * max(
        1.0, cost
    ):
        violations.append(
            f"actual cost {cost} exceeds planned {result.planned_cost}"
        )

    lower = combined_lower_bound(instance, k)
    ratio = makespan / lower if lower > 0 else 1.0
    return Certificate(
        valid=not violations,
        makespan=makespan,
        moves=moves,
        relocation_cost=cost,
        opt_lower_bound=lower,
        proven_ratio=ratio,
        violations=tuple(violations),
    )
