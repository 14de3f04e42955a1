"""The O(churn) request path: resident deltas, moves-only responses,
and the churn-stream load generator.

Every differential test holds the same invariant the rest of the suite
does: no fast path may ever change a decision.  A delta stream applied
onto the server's resident arrays — whatever mix of churn sizes and
response shapes it crosses — must answer exactly what a from-scratch
solve of the materialized snapshot answers.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.core import make_instance, rollhash
from repro.core.engine import snapshot_fingerprint
from repro.core.partition import m_partition_rebalance
from repro.service import (
    ChurnStreamConfig,
    ServerConfig,
    ServiceClient,
    run_churn_stream,
    start_background,
)
from repro.service.protocol import (
    PROTOCOL_V2,
    encode_frame,
    read_frame_sync_versioned,
)
from repro.service.resident import ResidentShard


@pytest.fixture()
def server():
    with start_background(ServerConfig()) as handle:
        yield handle


def _mapping_from(response: dict, initial: np.ndarray) -> np.ndarray:
    """Reconstruct the full mapping from either response shape."""
    if "mapping" in response:
        return np.asarray(response["mapping"], dtype=np.int64)
    mapping = np.array(initial, dtype=np.int64)
    idx = np.asarray(response["moves_idx"], dtype=np.int64)
    if idx.shape[0]:
        mapping[idx] = np.asarray(response["moves_to"], dtype=np.int64)
    return mapping


def _send_full(client, res, shard, k, moves_only):
    return client.call({
        "op": "rebalance", "shard": shard, "k": k,
        "moves_only": moves_only,
        "instance": res.export_instance().to_wire(),
    })


def _step_delta(res, rng, churn, moves_idx, moves_to):
    """One churn-stream epoch step on a client-side resident: mutate
    ``churn`` site sizes, fold in last epoch's moves, commit, and
    return the wire delta (exactly what the loadgen's churn-stream
    mode builds)."""
    n = res.num_jobs
    c_idx = np.sort(rng.choice(n, size=churn, replace=False))
    c_sizes = np.maximum(
        res.sizes[c_idx] * rng.uniform(0.6, 1.8, churn), 1e-9
    )
    idx = np.union1d(c_idx, moves_idx)
    new_sizes = res.sizes[idx].copy()
    new_costs = res.costs[idx].copy()
    new_initial = res.initial[idx].copy()
    new_sizes[np.searchsorted(idx, c_idx)] = c_sizes
    if moves_idx.shape[0]:
        new_initial[np.searchsorted(idx, moves_idx)] = moves_to
    delta = {
        "base": res.fp_hex, "idx": idx, "sizes": new_sizes,
        "costs": new_costs, "initial": new_initial,
    }
    frame, fp = res.preview(delta)
    res.commit(frame, fp)
    return delta


class TestResidentDifferential:
    def test_delta_stream_matches_scratch_both_shapes(self, server):
        """A churn delta stream through the resident path — response
        shape alternating between moves-only and full mapping — decides
        identically to from-scratch solves of the materialized
        snapshots, and the engine actually ran incrementally."""
        k = 3
        n, m, churn = 80, 5, 6
        rng = np.random.default_rng(21)
        inst = make_instance(
            sizes=rng.uniform(1.0, 9.0, n),
            initial=rng.integers(0, m, n),
            num_processors=m,
        )
        res = ResidentShard(inst)
        with ServiceClient(
            server.host, server.port, protocol="binary"
        ) as client:
            response = _send_full(client, res, "diff", k, True)
            assert response["ok"]
            mapping = _mapping_from(response, res.initial)
            want = m_partition_rebalance(res.export_instance(), k)
            np.testing.assert_array_equal(
                mapping, want.assignment.mapping
            )
            moves_idx = np.flatnonzero(mapping != res.initial)
            moves_to = mapping[moves_idx]
            for epoch in range(8):
                delta = _step_delta(res, rng, churn, moves_idx, moves_to)
                response = client.call({
                    "op": "rebalance", "shard": "diff", "k": k,
                    "moves_only": epoch % 2 == 0, "delta": delta,
                })
                assert response["ok"]
                assert response["fingerprint"] == res.fp_hex
                mapping = _mapping_from(response, res.initial)
                want = m_partition_rebalance(res.export_instance(), k)
                np.testing.assert_array_equal(
                    mapping, want.assignment.mapping
                )
                moves_idx = np.flatnonzero(mapping != res.initial)
                moves_to = mapping[moves_idx]
            status = client.status()
        counters = status["metrics"]["counters"]
        assert counters.get("service.resident_deltas", 0) >= 8
        engine = status["shards"]["diff"]["engine"]
        assert engine["incremental_decides"] >= 1

    def test_fallback_threshold_crossing_still_exact(self, server):
        """A delta touching nearly every site (past where hinted decides
        used to fall back to a full rescan) patches every bucket from
        the hint; the decision must not change, and the stream must
        continue incrementally afterwards."""
        k = 2
        n, m = 64, 4
        rng = np.random.default_rng(33)
        inst = make_instance(
            sizes=rng.uniform(1.0, 9.0, n),
            initial=rng.integers(0, m, n),
            num_processors=m,
        )
        res = ResidentShard(inst)
        empty = np.empty(0, dtype=np.int64)
        with ServiceClient(
            server.host, server.port, protocol="binary"
        ) as client:
            assert _send_full(client, res, "fb", k, True)["ok"]
            # Small churn, then a delta rewriting all n sites (far past
            # any churn limit), then small churn again.
            for churn in (4, n - 1, 4):
                delta = _step_delta(res, rng, churn, empty, empty)
                response = client.call({
                    "op": "rebalance", "shard": "fb", "k": k,
                    "moves_only": True, "delta": delta,
                })
                assert response["ok"]
                assert response["fingerprint"] == res.fp_hex
                mapping = _mapping_from(response, res.initial)
                want = m_partition_rebalance(res.export_instance(), k)
                np.testing.assert_array_equal(
                    mapping, want.assignment.mapping
                )

    def test_unknown_base_on_resident_tip_mismatch(self, server):
        """A delta whose base is not the resident tip answers
        ``unknown base`` (the client's cue to resend full) and leaves
        the tip untouched."""
        k = 2
        inst = make_instance(
            sizes=[3.0, 2.0, 5.0, 1.0], initial=[0, 0, 1, 1],
            num_processors=2,
        )
        res = ResidentShard(inst)
        with ServiceClient(
            server.host, server.port, protocol="binary"
        ) as client:
            assert _send_full(client, res, "ub", k, True)["ok"]
            response = client.call({
                "op": "rebalance", "shard": "ub", "k": k,
                "delta": {
                    "base": "00" * 16, "idx": np.array([1]),
                    "sizes": np.array([4.0]), "costs": np.array([1.0]),
                    "initial": np.array([0]),
                },
            })
            assert not response["ok"]
            assert response["error"] == "unknown base"
            # The stream recovers with a full resend of the same tip.
            response = _send_full(client, res, "ub", k, True)
            assert response["ok"]
            assert response["fingerprint"] == res.fp_hex


class TestOneHashPerFull:
    """A full snapshot is hashed once: the resident it seeds starts from
    the state the request's fingerprint computed."""

    @pytest.mark.parametrize("op", ["rebalance", "replicate"])
    def test_one_fingerprint_state_per_full_request(
        self, server, monkeypatch, op
    ):
        inst = make_instance(
            sizes=np.arange(1.0, 41.0), initial=np.arange(40) % 4,
            num_processors=4,
        )
        message = {"op": op, "shard": f"one-{op}", "instance": inst.to_wire()}
        if op == "rebalance":
            message["k"] = 2
        frame = encode_frame(message, version=PROTOCOL_V2)
        expected = rollhash.instance_fingerprint(inst).hex()
        calls = []
        real = rollhash.fingerprint_state

        def counting(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(rollhash, "fingerprint_state", counting)
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(frame)
            response, _ = read_frame_sync_versioned(sock)
        assert response["ok"] is True, response
        assert response["fingerprint"] == expected
        assert calls == [40]
        resident = server.server._residents[f"one-{op}"]
        assert resident.fp_hex == response["fingerprint"]

    def test_seeded_resident_rolls_like_a_fresh_hash(self):
        inst = make_instance(
            sizes=[3.0, 2.0, 5.0, 1.0, 4.0], initial=[0, 0, 1, 1, 2],
            num_processors=3,
        )
        digest = snapshot_fingerprint(inst)  # memoizes the state
        res = ResidentShard(inst)
        assert res.fp_hex == digest.hex()
        frame, fp = res.preview({
            "base": res.fp_hex, "idx": np.array([1, 4]),
            "sizes": np.array([7.0, 0.5]), "costs": np.array([1.0, 2.0]),
            "initial": np.array([2, 0]),
        })
        res.commit(frame, fp)
        fresh = rollhash.fingerprint_state(
            res.sizes, res.costs, res.initial, res.num_processors
        )
        assert res.fp_hex == fresh.digest().hex() != digest.hex()
        # The instance's memoized state did not roll with the resident.
        assert snapshot_fingerprint(inst) == digest
        assert rollhash.instance_fingerprint(inst) == digest


class TestChurnStreamLoadgen:
    def test_runs_clean_and_byte_identical(self, server):
        """Two churn-stream runs with the same config against the same
        server: zero errors, zero tip mismatches, every post-seed
        epoch shipped as a delta, and byte-identical per-shard
        trajectories (the E18 determinism check)."""
        config = ChurnStreamConfig(
            shards=2, num_sites=400, num_servers=8, k=8,
            churn=8, epochs=10, warmup_epochs=2, seed=5,
        )
        first = run_churn_stream(server.host, server.port, config)
        second = run_churn_stream(server.host, server.port, config)
        for report in (first, second):
            assert report.errors == 0
            assert report.fp_mismatches == 0
            assert report.completed == config.shards * config.epochs
            assert report.deltas_sent == config.shards * (config.epochs - 1)
            assert report.fulls_sent == config.shards
        assert first.trajectories == second.trajectories
        assert len(first.trajectories) == config.shards

    def test_paced_stream_same_trajectory_as_closed_loop(self, server):
        """``epoch_interval_ms`` changes *when* epochs fire, never what
        they contain: a paced run must produce the exact trajectory of
        the closed-loop run with the same seed."""
        base = dict(
            shards=2, num_sites=400, num_servers=8, k=8,
            churn=8, epochs=8, warmup_epochs=2, seed=5,
        )
        closed = run_churn_stream(
            server.host, server.port, ChurnStreamConfig(**base)
        )
        paced = run_churn_stream(
            server.host, server.port,
            ChurnStreamConfig(**base, epoch_interval_ms=20.0),
        )
        assert paced.errors == 0
        assert paced.completed == closed.completed
        assert paced.trajectories == closed.trajectories

    def test_epoch_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="epoch_interval_ms"):
            ChurnStreamConfig(num_sites=100, epoch_interval_ms=0.0)
