"""E15 — the v2 wire protocol: binary frames + delta snapshots.

The acceptance configuration for the transport layer — v2 strictly
smaller than v1 and bit-exact through the codec, steady-state deltas
>= 5x smaller, binary+delta onto the server's resident arrays >= 2x the
v1 server's goodput — lives in the scenario catalog
(``repro.scenarios``, scenario E15, bench runner ``e15-wire``); the
acceptance test here is a thin shim over ``run_scenario``, which also
refreshes the ``BENCH_e15.json`` working copy.  The serverless wire
smoke remains local for fast feedback.
"""

from dataclasses import replace

import numpy as np

from repro.analysis import experiment_e15_wire, wire_sizes
from repro.core.instance import Instance
from repro.scenarios import run_scenario
from repro.service import (
    PROTOCOL_V1,
    PROTOCOL_V2,
    build_snapshots,
    calibrate_wire_workload,
    encode_frame,
    unpack_payload,
)

DEADLINE_MS = 300.0


def test_e15_table(benchmark, show_report):
    report = benchmark.pedantic(experiment_e15_wire, rounds=1, iterations=1)
    show_report(report)
    alive_col = report.columns.index("alive")
    err_col = report.columns.index("err")
    served = [row for row in report.rows if row[alive_col] != "-"]
    assert len(served) == 2
    assert all(row[alive_col] for row in served)
    assert all(row[err_col] == 0 for row in served)


def test_wire_bytes_smoke():
    """Fast invariants, no server: v2 binary strictly smaller than v1
    JSON for the reference snapshot, bit-exact through the codec, and
    the steady-state delta stream >= 5x smaller than v1 fulls."""
    config, _ = calibrate_wire_workload()
    reference = build_snapshots(replace(config, epochs=1))[0]
    message = {"op": "rebalance", "shard": "smoke", "k": config.k,
               "deadline_ms": DEADLINE_MS}
    v1 = encode_frame(message | {"instance": reference.to_dict()},
                      version=PROTOCOL_V1)
    v2 = encode_frame(message | {"instance": reference.to_wire()},
                      version=PROTOCOL_V2)
    assert len(v2) < len(v1)

    # Decode the v2 body (past the 8-byte header) and rebuild the
    # instance exactly as the server does: bit-for-bit equality.
    decoded = Instance.from_dict(unpack_payload(v2[8:])["instance"])
    np.testing.assert_array_equal(decoded.sizes, reference.sizes)
    np.testing.assert_array_equal(decoded.costs, reference.costs)
    np.testing.assert_array_equal(decoded.initial, reference.initial)

    sizes = wire_sizes(replace(config, epochs=12))
    assert sizes["v2_full_bytes"] < sizes["v1_full_bytes"]
    assert sizes["delta_reduction"] >= 5.0


def test_wire_goodput_acceptance():
    """Binary+delta onto the resident arrays >= 2x the goodput of the
    v1-JSON server at an equal-or-better p99 (catalog scenario E15)."""
    result = run_scenario("E15")
    assert result.acceptance_ok, result.failure_summary()
