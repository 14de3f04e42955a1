"""The offline per-call figures move when any one solver slows."""

import numpy as np
import pytest

from perfbench.offline import ALGORITHMS, Case, per_algorithm_ms

# The batch's make-up: calls per pass and a typical call time (s).
CALLS = {"greedy": 5, "partition": 4, "cost_partition": 40, "ptas": 30}
SECONDS = {"greedy": 0.085, "partition": 0.092, "cost_partition": 0.018,
           "ptas": 0.022}


@pytest.mark.parametrize("reduce", [np.median, np.mean])
def test_each_solver_weighs_the_same(reduce) -> None:
    cases = [Case(a, lambda: None) for a, n in CALLS.items() for _ in range(n)]
    seconds = [SECONDS[c.algorithm] for c in cases]
    base = per_algorithm_ms(cases, seconds, reduce)
    for algorithm in ALGORITHMS:
        slowed = [s * (2.0 if c.algorithm == algorithm else 1.0)
                  for c, s in zip(cases, seconds)]
        # A median pooled over all 79 calls would sit among the
        # cost-partition calls and not move for greedy or partition.
        assert per_algorithm_ms(cases, slowed, reduce) == pytest.approx(
            base * 2 ** 0.25)
