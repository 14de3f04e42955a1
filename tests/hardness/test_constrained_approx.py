"""Tests for the constrained Shmoys-Tardos 2-approximation (the upper
bound paired with Corollary 1's 1.5 lower bound)."""

import numpy as np

from repro.core import make_instance
from repro.hardness import (
    ConstrainedInstance,
    constrained_gadget_from_3dm,
    constrained_shmoys_tardos,
    exact_constrained,
    planted_yes_instance,
)


class TestConstrainedShmoysTardos:
    def test_respects_allowed_sets_on_gadget(self):
        rng = np.random.default_rng(40)
        tdm = planted_yes_instance(3, 4, rng)
        cinst, target = constrained_gadget_from_3dm(tdm)
        budget = float(cinst.instance.num_jobs)
        makespan, mapping = constrained_shmoys_tardos(cinst, budget)
        for j, p in enumerate(mapping):
            assert int(p) in cinst.allowed[j]
        exact, _ = exact_constrained(cinst, k=cinst.instance.num_jobs)
        assert makespan <= 2.0 * exact * (1 + 1e-2) + 1e-6

    def test_simple_constrained_instance(self):
        # Job 1 may only live on processors {0, 1}; job 2 anywhere.
        inst = make_instance(
            sizes=[6, 4, 4], initial=[0, 0, 0], num_processors=3
        )
        cinst = ConstrainedInstance(
            instance=inst,
            allowed=(
                frozenset({0, 1}),
                frozenset({0, 1, 2}),
                frozenset({0, 1, 2}),
            ),
        )
        makespan, mapping = constrained_shmoys_tardos(cinst, budget=3.0)
        assert int(mapping[0]) in {0, 1}
        exact, _ = exact_constrained(cinst, k=3)
        assert makespan <= 2.0 * exact * (1 + 1e-2) + 1e-6

    def test_tight_allowed_sets_force_identity(self):
        inst = make_instance(
            sizes=[6, 4], initial=[0, 0], num_processors=2
        )
        cinst = ConstrainedInstance(
            instance=inst,
            allowed=(frozenset({0}), frozenset({0})),
        )
        makespan, mapping = constrained_shmoys_tardos(cinst, budget=10.0)
        assert mapping.tolist() == [0, 0]
        assert makespan == 10.0
