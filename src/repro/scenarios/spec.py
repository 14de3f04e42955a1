"""Declarative scenario specs: the axes a scenario composes.

A scenario is a *configuration*, not a script: a workload axis (what
instances look like — sizes, costs, churn), a traffic axis (how they
evolve and arrive — steady, diurnal drift, flash crowds, churn streams,
failure injection), and a solver/transport axis (what decides and how
the bytes move — solver family, engine mode, wire protocol, executor,
router fan-out).  The catalog (:mod:`repro.scenarios.catalog`) instantiates one
:class:`Scenario` per experiment; the runner
(:mod:`repro.scenarios.runner`) turns a scenario plus a *tier* into a
schema-versioned record with machine-readable acceptance assertions;
the drift comparator (:mod:`repro.scenarios.drift`) gates fresh runs
against recorded ones per the scenario's :class:`DriftPolicy`.

Nothing here executes anything — these dataclasses are pure data, and
they are serialized into every record so a record file documents the
exact composition that produced it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

__all__ = [
    "Check",
    "DriftPolicy",
    "Scenario",
    "TIERS",
    "TrafficAxis",
    "TransportAxis",
    "WorkloadAxis",
]

TIERS = ("ci", "full")


@dataclass(frozen=True)
class WorkloadAxis:
    """What the instances are made of.

    ``family`` names the generator idiom ("random", "tightness",
    "planted", "unit", "gadget", "websim-cluster", "calibrated",
    "zipf-churn"); ``calibration`` optionally names an entry in
    :data:`repro.service.loadgen.CALIBRATIONS` for workloads whose
    size is pinned to host speed rather than fixed.
    """

    family: str
    num_sites: int | None = None
    num_servers: int | None = None
    k: int | None = None
    seed: int | None = None
    sizes: str = "mixed"
    costs: str = "unit"
    calibration: str | None = None


@dataclass(frozen=True)
class TrafficAxis:
    """How load evolves and arrives.

    ``kind`` is the epoch-evolution model ("none" for static one-shot
    instances, "diurnal+flash", "flash", "steady", "churn",
    "paced-churn"); ``arrival`` distinguishes closed-loop epoch walks
    from the open-loop generator; ``failure`` names an injected fault
    ("kill9@midrun" arms a SIGKILL of a backend halfway through the
    window).
    """

    kind: str = "none"
    arrival: str = "epoch-loop"  # "epoch-loop" | "open-loop" | "paced"
    epochs: int | None = None
    failure: str | None = None


@dataclass(frozen=True)
class TransportAxis:
    """What decides and how the bytes move."""

    solver: str = "m-partition"
    engine: str = "scratch"      # "scratch" | "warm" | "incremental" | "both"
    wire: str = "none"           # "none" | "v1" | "v2" | "v2+delta" | "both"
    executor: str = "inline"     # "inline" | "thread"
    router_backends: int = 0     # backend processes behind a router
    router_workers: int | str = 0  # data-plane worker processes
                                   # ("1..N" for E19's scaling sweep)


@dataclass(frozen=True)
class Check:
    """One machine-readable acceptance assertion on a record's metrics.

    ``metric`` is a key of the record's flat ``metrics`` dict, or
    ``table.all:<column>`` / ``table.any:<column>`` to quantify over a
    table column.  ``op`` is one of ``>= <= > < == != truthy``.
    """

    metric: str
    op: str
    value: Any = None

    _OPS = ("truthy", ">=", "<=", ">", "<", "==", "!=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown check op {self.op!r}")

    def describe(self) -> str:
        if self.op == "truthy":
            return f"{self.metric} is truthy"
        return f"{self.metric} {self.op} {self.value!r}"

    def evaluate(self, metrics: Mapping[str, Any], table: Mapping | None
                 ) -> tuple[bool, Any]:
        """Return ``(ok, observed)``; a missing metric is a failure."""
        got = _lookup(self.metric, metrics, table)
        if got is _MISSING:
            return False, None
        if self.op == "truthy":
            return bool(got), got
        if isinstance(got, float) and math.isnan(got):
            return False, got
        try:
            ok = {
                ">=": lambda a, b: a >= b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                "<": lambda a, b: a < b,
                "==": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
            }[self.op](got, self.value)
        except TypeError:
            return False, got
        return bool(ok), got


_MISSING = object()


def _lookup(metric: str, metrics: Mapping[str, Any], table: Mapping | None):
    if metric.startswith(("table.all:", "table.any:")):
        if not table:
            return _MISSING
        column = metric.split(":", 1)[1]
        try:
            idx = list(table["columns"]).index(column)
        except ValueError:
            return _MISSING
        cells = [row[idx] for row in table["rows"]]
        if not cells:
            return _MISSING
        quant = all if metric.startswith("table.all:") else any
        return quant(bool(c) for c in cells)
    return metrics.get(metric, _MISSING)


@dataclass(frozen=True)
class DriftPolicy:
    """Which recorded fields gate a fresh run, and how tightly.

    * ``exact`` — metric keys compared exactly (floats within 1e-9
      relative: byte-identity flags, error counts, deterministic
      ratios and counters).
    * ``band`` — metric key → multiplicative tolerance factor
      (``2.0`` = fresh within 2x of recorded, either way): latency,
      goodput and anything else that tracks host speed.
    * ``table_exact_columns`` — table columns compared cell by cell
      (timing columns are left out and never gate).

    Metric keys present in the record but in neither list are
    *informational*: the comparator still checks they exist on both
    sides (a vanished or new metric is a schema drift worth failing
    on) but never compares their values.
    """

    exact: tuple[str, ...] = ()
    band: Mapping[str, float] = field(default_factory=dict)
    table_exact_columns: tuple[str, ...] = ()


@dataclass(frozen=True)
class Scenario:
    """One catalog entry: axes + runners + acceptance + drift policy.

    ``table`` names an experiment in the analysis registry (the
    E-table this scenario regenerates); ``bench`` names an acceptance
    runner in :data:`repro.scenarios.benches.BENCH_RUNNERS` (the
    BENCH_* record it regenerates).  Either may be absent; E1–E12 are
    table-only, E18 is bench-only, E14–E17 produce both.

    ``params`` holds the base keyword arguments per namespace
    (``{"table": {...}, "bench": {...}}``); ``tiers`` overlays
    per-tier overrides on top (same shape).  The ``ci`` tier is the
    scaled-down-but-same-invariants configuration the CI drift gate
    runs; ``full`` is the canonical scale recorded in EXPERIMENTS.md.
    """

    scenario_id: str
    title: str
    workload: WorkloadAxis
    traffic: TrafficAxis
    transport: TransportAxis
    table: str | None = None
    bench: str | None = None
    params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    tiers: Mapping[str, Mapping[str, Mapping[str, Any]]] = field(
        default_factory=dict
    )
    table_tiers: tuple[str, ...] = TIERS
    acceptance: tuple[Check, ...] = ()
    drift: DriftPolicy = field(default_factory=DriftPolicy)
    bench_json: str | None = None  # compat BENCH_*.json working-copy name
    description: str = ""

    def __post_init__(self) -> None:
        if self.table is None and self.bench is None:
            raise ValueError(
                f"scenario {self.scenario_id}: needs a table or a bench"
            )
        for tier in self.tiers:
            if tier not in TIERS:
                raise ValueError(
                    f"scenario {self.scenario_id}: unknown tier {tier!r}"
                )
        for tier in self.table_tiers:
            if tier not in TIERS:
                raise ValueError(
                    f"scenario {self.scenario_id}: unknown table tier {tier!r}"
                )

    def runs_table(self, tier: str) -> bool:
        """Whether this scenario regenerates its E-table at ``tier``.

        Service-heavy tables (E14–E17) run only in the ``full`` tier;
        their invariants are covered at ``ci`` scale by the bench
        runner, which is what the old CI executed.
        """
        return self.table is not None and tier in self.table_tiers

    def resolve(self, tier: str, overrides: Mapping | None = None
                ) -> dict[str, dict[str, Any]]:
        """Merge base params, tier overlays and explicit overrides into
        ``{"table": kwargs, "bench": kwargs}``."""
        if tier not in TIERS:
            raise ValueError(
                f"unknown tier {tier!r}; valid tiers: {', '.join(TIERS)}"
            )
        merged: dict[str, dict[str, Any]] = {"table": {}, "bench": {}}
        for layer in (self.params, self.tiers.get(tier, {}), overrides or {}):
            for namespace, kwargs in layer.items():
                if namespace not in merged:
                    raise ValueError(
                        f"scenario {self.scenario_id}: unknown param "
                        f"namespace {namespace!r}"
                    )
                merged[namespace].update(kwargs)
        return merged

    def axes_dict(self) -> dict[str, Any]:
        """The composition, serialized into every record."""
        return {
            "workload": asdict(self.workload),
            "traffic": asdict(self.traffic),
            "transport": asdict(self.transport),
        }
