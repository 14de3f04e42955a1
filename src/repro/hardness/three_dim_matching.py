"""3-dimensional matching (3DM) — the source problem of Theorems 6 & 7.

3DM: given disjoint sets ``A``, ``B``, ``C`` of size ``n`` and a family
``F`` of triples (one element from each set), is there a subfamily of
``n`` pairwise-disjoint triples covering ``A ∪ B ∪ C``?

This module models 3DM instances, solves small ones exactly by
backtracking, and generates planted yes-instances and verified
no-instances for the hardness experiments (E10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThreeDMInstance",
    "solve_3dm",
    "planted_yes_instance",
    "verified_no_instance",
]


@dataclass(frozen=True)
class ThreeDMInstance:
    """A 3DM instance over ``A = B = C = range(n)``.

    ``triples[t] = (a, b, c)`` uses element ``a`` of ``A``, ``b`` of
    ``B`` and ``c`` of ``C``.
    """

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for t in self.triples:
            if len(t) != 3 or any(not 0 <= e < self.n for e in t):
                raise ValueError(f"triple {t} outside range(0, {self.n})")
        if len(set(self.triples)) != len(self.triples):
            raise ValueError("duplicate triples")

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    def type_counts(self) -> list[int]:
        """``t_j`` of Theorem 6: how many triples use element ``j`` of
        ``A`` (triples "of type j")."""
        counts = [0] * self.n
        for a, _, _ in self.triples:
            counts[a] += 1
        return counts


def solve_3dm(instance: ThreeDMInstance) -> tuple[int, ...] | None:
    """Exact 3DM by backtracking on the least-covered ``A`` element.

    Returns the indices of a perfect matching's triples, or ``None``.
    """
    n = instance.n
    by_a: list[list[int]] = [[] for _ in range(n)]
    for idx, (a, _, _) in enumerate(instance.triples):
        by_a[a].append(idx)
    if any(not lst for lst in by_a):
        return None

    used_b = [False] * n
    used_c = [False] * n
    chosen: list[int] = []

    # Order A-elements by fewest candidate triples (fail-first).
    a_order = sorted(range(n), key=lambda a: len(by_a[a]))

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        a = a_order[pos]
        for idx in by_a[a]:
            _, b, c = instance.triples[idx]
            if used_b[b] or used_c[c]:
                continue
            used_b[b] = used_c[c] = True
            chosen.append(idx)
            if backtrack(pos + 1):
                return True
            chosen.pop()
            used_b[b] = used_c[c] = False
        return False

    if backtrack(0):
        return tuple(sorted(chosen))
    return None


def planted_yes_instance(
    n: int, extra_triples: int, rng: np.random.Generator
) -> ThreeDMInstance:
    """A 3DM yes-instance: a random perfect matching plus noise triples."""
    perm_b = rng.permutation(n)
    perm_c = rng.permutation(n)
    triples = {(a, int(perm_b[a]), int(perm_c[a])) for a in range(n)}
    attempts = 0
    while len(triples) < n + extra_triples and attempts < 100 * (n + extra_triples):
        attempts += 1
        t = (
            int(rng.integers(0, n)),
            int(rng.integers(0, n)),
            int(rng.integers(0, n)),
        )
        triples.add(t)
    return ThreeDMInstance(n=n, triples=tuple(sorted(triples)))


def verified_no_instance(
    n: int, num_triples: int, rng: np.random.Generator, max_tries: int = 200
) -> ThreeDMInstance:
    """A random 3DM instance certified (by the exact solver) to have no
    perfect matching.

    The easiest certified construction: leave one ``B`` element out of
    every triple, which makes a perfect matching impossible; random
    fallbacks are checked with :func:`solve_3dm`.
    """
    for _ in range(max_tries):
        triples = set()
        while len(triples) < num_triples:
            t = (
                int(rng.integers(0, n)),
                int(rng.integers(0, max(1, n - 1))),  # B element n-1 never used
                int(rng.integers(0, n)),
            )
            triples.add(t)
        inst = ThreeDMInstance(n=n, triples=tuple(sorted(triples)))
        if solve_3dm(inst) is None:
            return inst
    raise RuntimeError("failed to build a no-instance")  # pragma: no cover
