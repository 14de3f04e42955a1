"""ScenarioCatalog: declarative scenario configs + one-command repro.

Every reproducible result — the E1–E12, E14, E15 and E17–E19
experiment tables, the A1 and A2 ablations and the BENCH acceptance
records — is described by one declarative
:class:`~repro.scenarios.spec.Scenario` in
:data:`~repro.scenarios.catalog.CATALOG`, composing a workload axis,
a traffic axis and a solver/transport axis with tier-resolved params,
machine-readable acceptance checks and a per-metric drift policy.

``python -m repro reproduce [--all | --scenario ID] [--check]
[--record] [--tier ci|full]`` interprets the catalog; fresh runs are
gated against the tracked ``benchmarks/records/<tier>/`` tree by
:func:`~repro.scenarios.drift.compare_records`.
"""

from .benches import BENCH_RUNNERS
from .catalog import CATALOG, get_scenario, scenario_ids
from .drift import (
    DriftError,
    DriftIssue,
    DriftReport,
    ExactMismatch,
    ExtraMetric,
    MissingMetric,
    SchemaVersionMismatch,
    TableMismatch,
    ToleranceExceeded,
    compare_records,
)
from .records import (
    SCHEMA,
    SCHEMA_VERSION,
    RecordError,
    default_records_root,
    load_record,
    record_path,
    write_record,
)
from .runner import ScenarioResult, run_scenario
from .spec import (
    TIERS,
    Check,
    DriftPolicy,
    Scenario,
    TrafficAxis,
    TransportAxis,
    WorkloadAxis,
)

__all__ = [
    "BENCH_RUNNERS",
    "CATALOG",
    "Check",
    "DriftError",
    "DriftIssue",
    "DriftPolicy",
    "DriftReport",
    "ExactMismatch",
    "ExtraMetric",
    "MissingMetric",
    "RecordError",
    "SCHEMA",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioResult",
    "SchemaVersionMismatch",
    "TIERS",
    "TableMismatch",
    "ToleranceExceeded",
    "TrafficAxis",
    "TransportAxis",
    "WorkloadAxis",
    "compare_records",
    "default_records_root",
    "get_scenario",
    "load_record",
    "record_path",
    "run_scenario",
    "scenario_ids",
    "write_record",
]
