"""Assignments of jobs to processors and their accounting.

An :class:`Assignment` couples an :class:`~repro.core.instance.Instance`
with a (new) mapping of jobs to processors and exposes the quantities
the paper's analysis tracks: per-processor loads, the makespan, the set
of *moved* jobs (jobs whose processor differs from the initial
assignment), the move count, and the total relocation cost.

The paper's algorithms account "moves" as job *removals* (a removed job
may legally be reassigned to its origin at zero real cost; see the
remark before Lemma 3).  :class:`Assignment` reports *actual*
relocations, which never exceed removals, so any removal-count guarantee
transfers directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .instance import Instance

__all__ = ["Assignment"]


@dataclass(frozen=True)
class Assignment:
    """An assignment of every job of ``instance`` to a processor."""

    instance: Instance
    mapping: np.ndarray
    _loads: np.ndarray = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    _moved: np.ndarray = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._loads is not None:
            # Sparse fast path (solver constructors): the caller hands
            # over a fresh, exclusively-owned int64 mapping plus the
            # exact per-processor loads it maintained while building it
            # (and optionally the ascending moved-job set), so the O(n)
            # copy/scan/scatter-add below is skipped.  ``validate()``
            # still recomputes loads from scratch when called.
            mapping = self.mapping
            if mapping.shape != (self.instance.num_jobs,):
                raise ValueError(
                    f"mapping has shape {mapping.shape}; expected "
                    f"({self.instance.num_jobs},)"
                )
            mapping.setflags(write=False)
            self._loads.setflags(write=False)
            if self._moved is not None:
                self._moved.setflags(write=False)
            return
        mapping = np.asarray(self.mapping, dtype=np.int64).copy()
        if mapping.shape != (self.instance.num_jobs,):
            raise ValueError(
                f"mapping has shape {mapping.shape}; expected "
                f"({self.instance.num_jobs},)"
            )
        if mapping.size and (
            mapping.min() < 0 or mapping.max() >= self.instance.num_processors
        ):
            raise ValueError(
                "mapping refers to processors outside "
                f"[0, {self.instance.num_processors})"
            )
        mapping.setflags(write=False)
        object.__setattr__(self, "mapping", mapping)
        loads = np.zeros(self.instance.num_processors, dtype=np.float64)
        np.add.at(loads, mapping, self.instance.sizes)
        loads.setflags(write=False)
        object.__setattr__(self, "_loads", loads)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, instance: Instance) -> "Assignment":
        """The identity assignment (no job moves)."""
        return cls(instance=instance, mapping=instance.initial)

    @classmethod
    def from_moves(
        cls, instance: Instance, moves: Mapping[int, int]
    ) -> "Assignment":
        """Build an assignment by applying ``{job index: new processor}``
        moves on top of the initial assignment."""
        mapping = np.array(instance.initial, dtype=np.int64)
        for job, proc in moves.items():
            mapping[job] = proc
        return cls(instance=instance, mapping=mapping)

    # ------------------------------------------------------------------
    # Loads and makespan
    # ------------------------------------------------------------------
    @property
    def loads(self) -> np.ndarray:
        """Per-processor load (read-only array of length ``m``)."""
        return self._loads

    @property
    def makespan(self) -> float:
        """Maximum processor load — the objective of Definition 1."""
        if self.instance.num_processors == 0:
            return 0.0
        return float(self._loads.max())

    @property
    def min_load(self) -> float:
        """Minimum processor load."""
        return float(self._loads.min())

    def load_of(self, processor: int) -> float:
        """Load of a single processor."""
        return float(self._loads[processor])

    def jobs_on(self, processor: int) -> np.ndarray:
        """Indices of jobs assigned to ``processor`` (ascending)."""
        return np.flatnonzero(self.mapping == processor)

    # ------------------------------------------------------------------
    # Move accounting
    # ------------------------------------------------------------------
    @property
    def moved_jobs(self) -> np.ndarray:
        """Indices of jobs whose processor differs from the initial one."""
        if self._moved is not None:
            return self._moved
        return np.flatnonzero(self.mapping != self.instance.initial)

    @property
    def num_moves(self) -> int:
        """Number of relocated jobs (the paper's ``k`` budget metric)."""
        if self._moved is not None:
            return int(self._moved.shape[0])
        return int((self.mapping != self.instance.initial).sum())

    @property
    def relocation_cost(self) -> float:
        """Total relocation cost ``sum(c_i for moved i)`` (budget ``B``)."""
        if self._moved is not None:
            return float(self.instance.costs[self._moved].sum())
        moved = self.mapping != self.instance.initial
        return float(self.instance.costs[moved].sum())

    # ------------------------------------------------------------------
    # Validation / transformation
    # ------------------------------------------------------------------
    def validate(
        self,
        max_moves: int | None = None,
        budget: float | None = None,
        max_makespan: float | None = None,
        atol: float = 1e-9,
    ) -> None:
        """Raise ``AssertionError`` unless the assignment meets the
        given constraints.  Used by tests and by solver post-conditions;
        the checks raise explicitly, so they hold under ``python -O``.
        """
        if self.mapping.shape != (self.instance.num_jobs,):
            raise AssertionError(
                f"mapping shape {self.mapping.shape} does not match "
                f"{self.instance.num_jobs} jobs"
            )
        recomputed = np.zeros(self.instance.num_processors)
        np.add.at(recomputed, self.mapping, self.instance.sizes)
        if not np.allclose(recomputed, self._loads):
            raise AssertionError("load bookkeeping corrupt")
        if self._moved is not None:
            actual = np.flatnonzero(self.mapping != self.instance.initial)
            if not np.array_equal(self._moved, actual):
                raise AssertionError("moved-job cache disagrees with the mapping")
        # ``not (x <= bound)`` rather than ``x > bound``: a NaN fails.
        if not abs(self._loads.sum() - self.instance.total_size) <= atol * max(
            1.0, self.instance.total_size
        ):
            raise AssertionError("load not conserved")
        if max_moves is not None and self.num_moves > max_moves:
            raise AssertionError(f"{self.num_moves} moves exceeds budget {max_moves}")
        if budget is not None and not self.relocation_cost <= budget + atol * max(
            1.0, budget
        ):
            raise AssertionError(
                f"cost {self.relocation_cost} exceeds budget {budget}"
            )
        if max_makespan is not None and not self.makespan <= max_makespan + atol * max(
            1.0, max_makespan
        ):
            raise AssertionError(
                f"makespan {self.makespan} exceeds bound {max_makespan}"
            )

    def with_move(self, job: int, processor: int) -> "Assignment":
        """A new assignment with ``job`` placed on ``processor``."""
        mapping = np.array(self.mapping)
        mapping[job] = processor
        return Assignment(instance=self.instance, mapping=mapping)

    def moves_as_dict(self) -> dict[int, int]:
        """``{job index: new processor}`` for every relocated job."""
        return {
            int(j): int(self.mapping[j]) for j in self.moved_jobs
        }

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Small dict of headline numbers, for logging and reports."""
        return {
            "makespan": self.makespan,
            "num_moves": self.num_moves,
            "relocation_cost": self.relocation_cost,
            "min_load": self.min_load,
            "initial_makespan": self.instance.initial_makespan,
        }


def apply_sequence(
    instance: Instance, sequence: Sequence[tuple[int, int]]
) -> Assignment:
    """Apply an ordered sequence of ``(job, processor)`` moves.

    Later moves of the same job override earlier ones, matching the
    paper's convention that a removal followed by a reassignment is a
    single relocation.
    """
    mapping = np.array(instance.initial, dtype=np.int64)
    for job, proc in sequence:
        mapping[job] = proc
    return Assignment(instance=instance, mapping=mapping)
