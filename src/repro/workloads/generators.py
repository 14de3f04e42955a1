"""Seeded random instance families for experiments and tests.

Every generator routes randomness through a caller-supplied
``numpy.random.Generator`` so experiments are exactly reproducible.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import Instance

__all__ = ["random_instance", "SIZE_FAMILIES", "COST_FAMILIES", "PLACEMENTS"]

SIZE_FAMILIES = ("uniform", "exponential", "lognormal", "zipf", "unit")
COST_FAMILIES = ("unit", "proportional", "inverse", "random")
PLACEMENTS = ("random", "skewed", "packed", "round-robin")


def _sizes(
    family: str, n: int, rng: np.random.Generator
) -> np.ndarray:
    if family == "uniform":
        return rng.uniform(1.0, 100.0, n)
    if family == "exponential":
        return 1.0 + rng.exponential(20.0, n)
    if family == "lognormal":
        return np.exp(rng.normal(2.0, 1.0, n)) + 0.1
    if family == "zipf":
        ranks = rng.permutation(n) + 1
        return 100.0 / ranks.astype(np.float64)
    if family == "unit":
        return np.ones(n)
    raise ValueError(f"unknown size family {family!r}; options: {SIZE_FAMILIES}")


def _costs(
    family: str, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    if family == "unit":
        return np.ones_like(sizes)
    if family == "proportional":
        return sizes.copy()  # big sites are expensive to move
    if family == "inverse":
        return 100.0 / sizes  # big sites are *cheap* to move (adversarial)
    if family == "random":
        return rng.uniform(0.5, 10.0, sizes.shape[0])
    raise ValueError(f"unknown cost family {family!r}; options: {COST_FAMILIES}")


def _placement(
    kind: str, n: int, m: int, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    if kind == "random":
        return rng.integers(0, m, n)
    if kind == "round-robin":
        return np.arange(n, dtype=np.int64) % m
    if kind == "packed":
        # Everything on processor 0: the maximally unbalanced start.
        return np.zeros(n, dtype=np.int64)
    if kind == "skewed":
        # Geometric preference for low-index processors.
        probs = 0.5 ** np.arange(m, dtype=np.float64)
        probs /= probs.sum()
        return rng.choice(m, size=n, p=probs)
    raise ValueError(f"unknown placement {kind!r}; options: {PLACEMENTS}")


def random_instance(
    n: int,
    m: int,
    rng: np.random.Generator,
    size_family: str = "uniform",
    cost_family: str = "unit",
    placement: str = "random",
    integer_sizes: bool = False,
) -> Instance:
    """One random instance from the named family.

    Parameters
    ----------
    n, m:
        Jobs and processors.
    size_family:
        One of :data:`SIZE_FAMILIES`.
    cost_family:
        One of :data:`COST_FAMILIES`.
    placement:
        One of :data:`PLACEMENTS` — how the *initial* (suboptimal)
        assignment is drawn.
    integer_sizes:
        Round sizes up to integers (useful for exact-solver ground
        truth with clean arithmetic).
    """
    sizes = _sizes(size_family, n, rng)
    if integer_sizes:
        sizes = np.ceil(sizes)
    costs = _costs(cost_family, sizes, rng)
    initial = _placement(placement, n, m, sizes, rng)
    return Instance(
        sizes=sizes, costs=costs, num_processors=m, initial=initial
    )
