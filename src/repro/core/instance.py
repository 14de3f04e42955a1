"""Problem instance model for load rebalancing.

An :class:`Instance` bundles the static data of Definition 1 of the
paper: ``n`` job sizes, ``m`` processors, an initial assignment of jobs
to processors, and (for the weighted variant) per-job relocation costs.

Instances are immutable; algorithms produce new
:class:`~repro.core.assignment.Assignment` objects instead of mutating
the instance.  All array attributes are numpy arrays with write access
disabled, so they can be shared freely between algorithm internals
without defensive copies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .job import Job

__all__ = ["Instance", "apply_delta", "compute_delta", "make_instance"]


def _as_readonly(arr: np.ndarray, values: object, name: str) -> np.ndarray:
    """Freeze ``arr`` (the ``asarray`` of ``values``) without copying
    when that is safe.

    Already-read-only input arrays pass through untouched — this is the
    zero-copy path the v2 wire decode relies on: it builds read-only
    ``np.frombuffer`` views over the received frame and constructs an
    :class:`Instance` around them with no per-array copy.  A writable
    array is defensively copied only when the caller may still hold a
    writable alias (it *is* the input, or it is a view into the input);
    arrays freshly materialized from lists or dtype casts are frozen in
    place.
    """
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.flags.writeable:
        if arr is values or arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _as_readonly_f64(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    return _as_readonly(np.asarray(values, dtype=np.float64), values, name)


def _as_readonly_i64(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    return _as_readonly(np.asarray(values, dtype=np.int64), values, name)


@dataclass(frozen=True)
class Instance:
    """An immutable load rebalancing instance.

    Attributes
    ----------
    sizes:
        Array of ``n`` strictly positive job sizes.
    costs:
        Array of ``n`` non-negative relocation costs (all ones for the
        unit-cost problem).
    num_processors:
        ``m``, the number of processors.
    initial:
        Array of ``n`` processor indices in ``[0, m)``: the initial
        (possibly suboptimal) assignment the rebalancer starts from.
    """

    sizes: np.ndarray
    costs: np.ndarray
    num_processors: int
    initial: np.ndarray
    _loads: np.ndarray = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", _as_readonly_f64(self.sizes, "sizes"))
        object.__setattr__(self, "costs", _as_readonly_f64(self.costs, "costs"))
        object.__setattr__(self, "initial", _as_readonly_i64(self.initial, "initial"))
        if self.num_processors <= 0:
            raise ValueError("num_processors must be positive")
        n = self.sizes.shape[0]
        if self.costs.shape[0] != n:
            raise ValueError(
                f"costs has length {self.costs.shape[0]} but there are {n} jobs"
            )
        if self.initial.shape[0] != n:
            raise ValueError(
                f"initial assignment has length {self.initial.shape[0]} "
                f"but there are {n} jobs"
            )
        if n and not np.isfinite(self.sizes).all():
            raise ValueError("all job sizes must be finite")
        if n and not np.isfinite(self.costs).all():
            raise ValueError("all relocation costs must be finite")
        if n and self.sizes.min() <= 0:
            raise ValueError("all job sizes must be strictly positive")
        if n and self.costs.min() < 0:
            raise ValueError("all relocation costs must be non-negative")
        if n and (self.initial.min() < 0 or self.initial.max() >= self.num_processors):
            raise ValueError(
                "initial assignment refers to processors outside "
                f"[0, {self.num_processors})"
            )
        loads = np.zeros(self.num_processors, dtype=np.float64)
        np.add.at(loads, self.initial, self.sizes)
        loads.setflags(write=False)
        object.__setattr__(self, "_loads", loads)

    @classmethod
    def trusted(
        cls,
        sizes: np.ndarray,
        costs: np.ndarray,
        num_processors: int,
        initial: np.ndarray,
    ) -> "Instance":
        """Zero-copy, zero-validation constructor for pre-validated arrays.

        The O(churn) server path keeps each shard's snapshot resident as
        arrays it mutates in place; every epoch it wraps read-only views
        of those arrays in an ``Instance`` for the engine.  Paying the
        full ``__post_init__`` — three O(n) finite/range scans plus the
        O(n) load accumulation — per epoch would defeat the point, so
        this constructor skips validation entirely and defers the load
        vector until :attr:`initial_loads` is first read.

        Callers own the precondition: the arrays must be 1-D, equal
        length, validated at admission (the wire layer validates each
        delta's changed sites in O(c)), and must not be mutated while
        this instance is reachable.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "sizes", sizes)
        object.__setattr__(obj, "costs", costs)
        object.__setattr__(obj, "num_processors", int(num_processors))
        object.__setattr__(obj, "initial", initial)
        object.__setattr__(obj, "_loads", None)
        return obj

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """``n``, the number of jobs."""
        return int(self.sizes.shape[0])

    @property
    def initial_loads(self) -> np.ndarray:
        """Per-processor load of the initial assignment (read-only).

        Computed eagerly by the validating constructor; instances built
        via :meth:`trusted` compute it on first access (same
        accumulation order, so the floats are bit-identical).
        """
        if self._loads is None:
            loads = np.zeros(self.num_processors, dtype=np.float64)
            np.add.at(loads, self.initial, self.sizes)
            loads.setflags(write=False)
            object.__setattr__(self, "_loads", loads)
        return self._loads

    @property
    def initial_makespan(self) -> float:
        """Makespan (maximum load) of the initial assignment."""
        if self.num_processors == 0:
            return 0.0
        return float(self.initial_loads.max())

    @property
    def total_size(self) -> float:
        """Sum of all job sizes."""
        return float(self.sizes.sum())

    @property
    def average_load(self) -> float:
        """Total size divided by the number of processors.

        A universal lower bound on the makespan of *any* assignment,
        used by M-PARTITION as its starting guess (Section 3.1).
        """
        return self.total_size / self.num_processors

    @property
    def max_size(self) -> float:
        """The largest job size; a lower bound on any makespan."""
        return float(self.sizes.max()) if self.num_jobs else 0.0

    @property
    def is_unit_cost(self) -> bool:
        """True when every relocation cost is exactly one."""
        return bool(np.all(self.costs == 1.0))

    def job(self, index: int) -> Job:
        """Materialize job ``index`` as a :class:`Job` value."""
        return Job(
            size=float(self.sizes[index]),
            cost=float(self.costs[index]),
            index=index,
        )

    def jobs(self) -> list[Job]:
        """Materialize all jobs, in index order."""
        return [self.job(i) for i in range(self.num_jobs)]

    def jobs_on(self, processor: int) -> np.ndarray:
        """Indices of jobs initially on ``processor`` (ascending)."""
        return np.flatnonzero(self.initial == processor)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form suitable for JSON round-tripping."""
        return {
            "sizes": self.sizes.tolist(),
            "costs": self.costs.tolist(),
            "num_processors": self.num_processors,
            "initial": self.initial.tolist(),
        }

    def to_wire(self) -> dict:
        """Buffer export: like :meth:`to_dict` but with the arrays kept
        as numpy arrays instead of Python lists.

        The binary wire protocol (:mod:`repro.service.protocol` v2)
        ships these buffers raw; a JSON encoder listifies them to the
        exact :meth:`to_dict` output.  :meth:`from_dict` accepts either
        form, so ``from_dict(to_wire(...))`` round-trips bit-exactly —
        that is the buffer import path for frames decoded zero-copy via
        ``np.frombuffer``.
        """
        return {
            "sizes": self.sizes,
            "costs": self.costs,
            "num_processors": self.num_processors,
            "initial": self.initial,
        }

    def to_json(self) -> str:
        """Canonical JSON encoding of this instance."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        """Inverse of :meth:`to_dict`."""
        return cls(
            sizes=np.asarray(data["sizes"], dtype=np.float64),
            costs=np.asarray(data["costs"], dtype=np.float64),
            num_processors=int(data["num_processors"]),
            initial=np.asarray(data["initial"], dtype=np.int64),
        )

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------
    def with_unit_costs(self) -> "Instance":
        """Copy of this instance with all relocation costs set to 1."""
        return Instance(
            sizes=self.sizes,
            costs=np.ones(self.num_jobs),
            num_processors=self.num_processors,
            initial=self.initial,
        )

    def with_initial(self, initial: Sequence[int] | np.ndarray) -> "Instance":
        """Copy of this instance with a different initial assignment."""
        return Instance(
            sizes=self.sizes,
            costs=self.costs,
            num_processors=self.num_processors,
            initial=np.asarray(initial, dtype=np.int64),
        )

    def scaled(self, factor: float) -> "Instance":
        """Copy with every job size multiplied by ``factor > 0``.

        Rebalancing is scale-invariant (Definition 1 constrains move
        count / cost, not load); this helper supports property tests of
        that invariance.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Instance(
            sizes=self.sizes * factor,
            costs=self.costs,
            num_processors=self.num_processors,
            initial=self.initial,
        )


def compute_delta(base: Instance, new: Instance) -> dict | None:
    """Changed-site delta turning ``base`` into ``new``, or ``None``.

    The delta lists every job index whose size, cost, or initial
    placement differs, with the new values at those indices — the
    payload a v2 delta frame carries instead of a full snapshot.
    ``None`` means the instances are not delta-compatible (different
    job count or processor count) and a full snapshot must be sent.
    Comparisons are bit-exact (``!=`` on the raw float64/int64 arrays),
    so ``apply_delta(base, compute_delta(base, new))`` reconstructs
    ``new`` bit for bit.
    """
    if (
        base.num_jobs != new.num_jobs
        or base.num_processors != new.num_processors
    ):
        return None
    changed = (
        (base.sizes != new.sizes)
        | (base.costs != new.costs)
        | (base.initial != new.initial)
    )
    idx = np.flatnonzero(changed)
    return {
        "idx": idx.astype(np.int64, copy=False),
        "sizes": new.sizes[idx],
        "costs": new.costs[idx],
        "initial": new.initial[idx],
    }


def apply_delta(base: Instance, delta: dict) -> Instance:
    """Inverse of :func:`compute_delta`: materialize the new snapshot.

    ``delta`` values may be lists (JSON transport) or numpy arrays
    (binary transport).  Raises :class:`ValueError` on malformed deltas
    — mismatched array lengths or job indices outside ``[0, n)`` — so
    wire-facing callers can map it to a ``bad request``.
    """
    idx = np.asarray(delta["idx"], dtype=np.int64)
    sizes_new = np.asarray(delta["sizes"], dtype=np.float64)
    costs_new = np.asarray(delta["costs"], dtype=np.float64)
    initial_new = np.asarray(delta["initial"], dtype=np.int64)
    if not (idx.shape == sizes_new.shape == costs_new.shape == initial_new.shape):
        raise ValueError("delta arrays must all have the changed-site length")
    if idx.size and (idx.min() < 0 or idx.max() >= base.num_jobs):
        raise ValueError(
            f"delta refers to jobs outside [0, {base.num_jobs})"
        )
    sizes = base.sizes.copy()
    costs = base.costs.copy()
    initial = base.initial.copy()
    sizes[idx] = sizes_new
    costs[idx] = costs_new
    initial[idx] = initial_new
    return Instance(
        sizes=sizes,
        costs=costs,
        num_processors=base.num_processors,
        initial=initial,
    )


def make_instance(
    sizes: Iterable[float],
    initial: Iterable[int],
    num_processors: int | None = None,
    costs: Iterable[float] | None = None,
) -> Instance:
    """Convenience constructor.

    ``num_processors`` defaults to ``max(initial) + 1``; ``costs``
    defaults to unit costs.
    """
    sizes_arr = np.asarray(list(sizes), dtype=np.float64)
    initial_arr = np.asarray(list(initial), dtype=np.int64)
    if num_processors is None:
        if initial_arr.size == 0:
            raise ValueError("num_processors required for an empty instance")
        num_processors = int(initial_arr.max()) + 1
    if costs is None:
        costs_arr = np.ones(sizes_arr.shape[0], dtype=np.float64)
    else:
        costs_arr = np.asarray(list(costs), dtype=np.float64)
    return Instance(
        sizes=sizes_arr,
        costs=costs_arr,
        num_processors=num_processors,
        initial=initial_arr,
    )
