"""Integration tests: server + client over real sockets.

Every test spins up a fresh in-process server (random port via
``port=0``) through :func:`repro.service.start_background` and talks
to it with the blocking or async client.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import m_partition_rebalance, make_instance
from repro.service import (
    AsyncServiceClient,
    Overloaded,
    ServerConfig,
    ServiceClient,
    ServiceError,
    start_background,
)
from repro.service.protocol import read_frame_sync, write_frame_sync


def _instance(seed: int = 0, n: int = 30, m: int = 4):
    rng = np.random.default_rng(seed)
    return make_instance(
        sizes=rng.uniform(1.0, 9.0, n),
        initial=rng.integers(0, m, n),
        num_processors=m,
    )


def _call_raw(sock, message):
    """One request/response on an open socket (v1 frames)."""
    write_frame_sync(sock, message)
    return read_frame_sync(sock)


def _same_decision(result, scratch):
    assert np.array_equal(
        result.assignment.mapping, scratch.assignment.mapping
    )
    assert result.guessed_opt == scratch.guessed_opt
    assert result.planned_moves == scratch.planned_moves


@pytest.fixture()
def server():
    with start_background(ServerConfig()) as handle:
        yield handle


class TestRebalanceOp:
    def test_roundtrip_matches_scratch_solver(self, server):
        inst = _instance()
        k = 3
        with ServiceClient(server.host, server.port) as client:
            result = client.rebalance(inst, k)
        _same_decision(result, m_partition_rebalance(inst, k))
        assert result.meta["service"]["latency_s"] > 0.0
        assert result.meta["service"]["batch"]["size"] >= 1

    def test_sequential_stream_matches_scratch(self, server):
        rng = np.random.default_rng(3)
        sizes = rng.uniform(1.0, 9.0, 40)
        initial = rng.integers(0, 4, 40)
        k = 2
        with ServiceClient(server.host, server.port) as client:
            for _ in range(6):
                inst = make_instance(
                    sizes=sizes, initial=initial, num_processors=4
                )
                result = client.rebalance(inst, k)
                _same_decision(result, m_partition_rebalance(inst, k))
                initial = result.assignment.mapping
                sizes = sizes * rng.uniform(0.9, 1.1, sizes.size)

    def test_naive_config_matches_scratch(self):
        inst = _instance(seed=5)
        with start_background(ServerConfig.naive()) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                result = client.rebalance(inst, 2)
        _same_decision(result, m_partition_rebalance(inst, 2))

    def test_concurrent_identical_requests_deduped(self, server):
        """Duplicate snapshots in flight together collapse into one
        solve: every response is identical, and the shard made exactly
        one decision — the solve group or the response memo answered
        the other seven.  Counted from ``status`` deltas: a memo answer
        carries no ``batch`` meta."""
        inst = _instance(seed=7)
        scratch = m_partition_rebalance(inst, 2)

        def counts(client):
            status = client.status()
            counters = status["metrics"]["counters"]
            return (
                (status["shards"].get("default") or {}).get("decisions", 0),
                counters.get("service.ok", 0),
                counters.get("service.deduped", 0)
                + counters.get("service.decision_hits", 0),
            )

        async def go():
            clients = [
                AsyncServiceClient(server.host, server.port)
                for _ in range(8)
            ]
            try:
                return await asyncio.gather(
                    *(c.rebalance(inst, 2) for c in clients)
                )
            finally:
                for c in clients:
                    await c.close()

        with ServiceClient(server.host, server.port) as client:
            fresh_before, ok_before, shared_before = counts(client)
            results = asyncio.run(go())
            fresh_after, ok_after, shared_after = counts(client)
        for result in results:
            _same_decision(result, scratch)
        assert ok_after - ok_before == 8
        assert fresh_after - fresh_before == 1
        assert shared_after - shared_before == 7

    def test_repeated_snapshot_hits_server_decision_memo(self, server):
        """A repeated (shard, k, fingerprint) answers from the server's
        response memo without another solve — and with the same
        decision the solve gave the first time."""
        inst = _instance(seed=29)
        with ServiceClient(server.host, server.port) as client:
            first = client.rebalance(inst, 2, shard="memo")
            before = client.status()["metrics"]
            again = client.rebalance(inst, 2, shard="memo")
            after = client.status()["metrics"]
        _same_decision(again, m_partition_rebalance(inst, 2))
        assert np.array_equal(
            again.assignment.mapping, first.assignment.mapping
        )
        assert after["counters"].get("service.decision_hits", 0) == (
            before["counters"].get("service.decision_hits", 0) + 1
        )
        # The memo hit never reached the solve thread.
        assert (
            after["spans"]["service.solve"]["calls"]
            == before["spans"]["service.solve"]["calls"]
        )

    def test_expired_deadline_is_shed(self, server):
        with ServiceClient(server.host, server.port, retries=0) as client:
            with pytest.raises(ServiceError, match="deadline exceeded"):
                client.rebalance(_instance(), 2, deadline_ms=0.0)

    def test_bad_request_missing_instance(self, server):
        with ServiceClient(server.host, server.port, retries=0) as client:
            response = client.call({"op": "rebalance", "k": 2})
            assert response["ok"] is False
            assert response["error"] == "bad request"

    def test_bad_request_negative_k(self, server):
        inst = _instance()
        with ServiceClient(server.host, server.port, retries=0) as client:
            response = client.call(
                {"op": "rebalance", "k": -1, "instance": inst.to_dict()}
            )
            assert response["ok"] is False
            assert response["error"] == "bad request"

    def test_bad_request_non_numeric_deadline(self, server):
        """Regression: a string deadline used to raise ``TypeError``
        outside the bad-request guard, killing the connection instead
        of answering it."""
        inst = _instance()
        with ServiceClient(server.host, server.port, retries=0) as client:
            for deadline in ("50", True, [50]):
                response = client.call({
                    "op": "rebalance", "k": 2, "instance": inst.to_dict(),
                    "deadline_ms": deadline,
                })
                assert response["ok"] is False
                assert response["error"] == "bad request"
            # The connection survived every malformed request.
            assert client.call({"op": "ping"})["ok"] is True

    def test_bad_request_nonfinite_deadline(self, server):
        # Python's json module happily emits bare NaN, so it arrives.
        inst = _instance()
        with ServiceClient(server.host, server.port, retries=0) as client:
            response = client.call({
                "op": "rebalance", "k": 2, "instance": inst.to_dict(),
                "deadline_ms": float("nan"),
            })
            assert response["ok"] is False
            assert response["error"] == "bad request"

    def test_bad_request_nonfinite_snapshot(self, server):
        """Regression: NaN/inf sizes or costs ride through v1 JSON
        unharmed and used to reach the solver; instance validation must
        bounce them as bad requests."""
        inst = _instance()
        nan_sizes = inst.to_dict()
        nan_sizes["sizes"][0] = float("nan")
        inf_costs = inst.to_dict()
        inf_costs["costs"][0] = float("inf")
        with ServiceClient(server.host, server.port, retries=0) as client:
            for body in (nan_sizes, inf_costs):
                response = client.call(
                    {"op": "rebalance", "k": 2, "instance": body}
                )
                assert response["ok"] is False
                assert response["error"] == "bad request"
                assert "finite" in response["message"]
            assert client.call({"op": "ping"})["ok"] is True

    def test_admission_rejects_when_queue_full(self):
        """naive server, queue depth 1: while a slow solve occupies the
        solver, the queue holds one follow-up and the rest bounce with
        ``overloaded`` + a retry hint."""
        rng = np.random.default_rng(9)
        big = make_instance(
            sizes=rng.uniform(1.0, 9.0, 8000),
            initial=rng.integers(0, 32, 8000),
            num_processors=32,
        )
        config = ServerConfig.naive(max_queue=1)

        async def go(host, port):
            clients = [
                AsyncServiceClient(host, port, retries=0) for _ in range(4)
            ]
            try:
                slow = asyncio.ensure_future(clients[0].rebalance(big, 4))
                # let the batcher drain the slow request into the solver
                await asyncio.sleep(0.05)
                rest = await asyncio.gather(
                    *(c.rebalance(big, 4) for c in clients[1:]),
                    return_exceptions=True,
                )
                return await slow, rest
            finally:
                for c in clients:
                    await c.close()

        with start_background(config) as handle:
            first, rest = asyncio.run(go(handle.host, handle.port))
        _same_decision(first, m_partition_rebalance(big, 4))
        rejections = [r for r in rest if isinstance(r, Overloaded)]
        served = [r for r in rest if not isinstance(r, Exception)]
        assert rejections, rest
        assert all(r.retry_after_ms > 0 for r in rejections)
        for result in served:
            _same_decision(result, m_partition_rebalance(big, 4))


class TestControlOps:
    def test_ping(self, server):
        with ServiceClient(server.host, server.port) as client:
            assert client.ping()

    def test_status_reports_config_queue_and_shards(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.rebalance(_instance(), 2, shard="alpha")
            status = client.status()
        assert status["config"]["max_batch"] == 16
        assert status["queue"]["depth"] == 0
        assert status["shards"]["alpha"]["decisions"] == 1
        assert status["metrics"]["counters"]["service.ok"] == 1
        assert status["uptime_s"] > 0.0

    def test_reset_clears_named_shard(self, server):
        inst = _instance()
        with ServiceClient(server.host, server.port) as client:
            client.rebalance(inst, 2, shard="alpha")
            client.rebalance(inst, 2, shard="beta")
            assert client.reset("alpha") == ["alpha"]
            status = client.status()
            assert status["shards"]["alpha"]["decisions"] == 0
            assert status["shards"]["beta"]["decisions"] == 1
            assert sorted(client.reset()) == ["alpha", "beta"]

    def test_reset_decisions_unchanged_after_reset(self, server):
        """Engine contract: a reset shard re-derives identical
        decisions from scratch."""
        inst = _instance(seed=11)
        with ServiceClient(server.host, server.port) as client:
            before = client.rebalance(inst, 2)
            client.reset()
            after = client.rebalance(inst, 2)
        assert np.array_equal(
            before.assignment.mapping, after.assignment.mapping
        )

    def test_unknown_op(self, server):
        with ServiceClient(server.host, server.port, retries=0) as client:
            response = client.call({"op": "defragment"})
            assert response["ok"] is False
            assert response["error"] == "unknown op"

    def test_status_snapshots_shards_on_solve_thread(self, server):
        """Regression: thread-mode status used to iterate the shards
        dict on the event loop while the solve thread inserts new
        shards mid-batch — "dictionary changed size during iteration"
        under load.  The snapshot must run on the solve thread, where
        it serializes against in-flight batches."""
        import threading

        seen: list[str] = []

        class Recording(dict):
            def items(self):
                seen.append(threading.current_thread().name)
                return super().items()

        server.server.shards = Recording(server.server.shards)
        with ServiceClient(server.host, server.port) as client:
            client.rebalance(_instance(), 2)
            client.status()
        assert seen
        assert all(name.startswith("repro-solve") for name in seen)

    def test_shard_k_change_rebuilds_engine(self, server):
        inst = _instance()
        with ServiceClient(server.host, server.port) as client:
            client.rebalance(inst, 2, shard="s")
            result = client.rebalance(inst, 3, shard="s")
            _same_decision(result, m_partition_rebalance(inst, 3))
            status = client.status()
        counters = status["metrics"]["counters"]
        assert counters["service.shard_rebuilds"] == 1


class TestTransport:
    def test_malformed_frame_gets_error_then_close(self, server):
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as sock:
            sock.sendall(b"\x00\x00\x00\x03not-json!")
            response = read_frame_sync(sock)
            assert response["ok"] is False
            # server closes the poisoned connection afterwards
            assert read_frame_sync(sock) is None

    def test_raw_status_op(self, server):
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as sock:
            write_frame_sync(sock, {"op": "ping"})
            assert read_frame_sync(sock)["ok"] is True

    def test_client_reconnects_after_server_side_close(self, server):
        with ServiceClient(server.host, server.port, retries=2) as client:
            assert client.ping()
            # Poison the connection server-side with a bad frame: the
            # server answers it with an error frame and closes.  The
            # next call reads that stale error (ping -> False), and the
            # one after hits the closed socket and reconnects cleanly.
            client._connection(client.port).sendall(b"\x00\x00\x00\x02{]")
            assert not client.ping()
            assert client.ping()


class TestLifecycle:
    def test_stop_is_idempotent(self):
        handle = start_background(ServerConfig())
        with ServiceClient(handle.host, handle.port) as client:
            assert client.ping()
        handle.stop()
        handle.stop()

    def test_two_servers_coexist(self):
        with start_background(ServerConfig()) as one:
            with start_background(ServerConfig()) as two:
                assert one.port != two.port
                with ServiceClient(one.host, one.port) as c1, \
                        ServiceClient(two.host, two.port) as c2:
                    assert c1.ping() and c2.ping()


class TestBinaryAndDelta:
    def test_binary_client_matches_scratch(self, server):
        inst = _instance(seed=20)
        with ServiceClient(
            server.host, server.port, protocol="binary"
        ) as client:
            result = client.rebalance(inst, 3)
        _same_decision(result, m_partition_rebalance(inst, 3))

    def test_delta_stream_counters_and_decisions(self, server):
        from repro.core.instance import Instance

        base = _instance(seed=21, n=40)
        sizes = base.sizes.copy()
        sizes[3] *= 2.0
        changed = Instance(
            sizes=sizes, costs=base.costs,
            num_processors=base.num_processors, initial=base.initial,
        )
        with ServiceClient(
            server.host, server.port, protocol="binary", delta=True
        ) as client:
            first = client.rebalance(base, 2, shard="d")
            second = client.rebalance(changed, 2, shard="d")
            assert client.fulls_sent == 1
            assert client.deltas_sent == 1
        _same_decision(first, m_partition_rebalance(base, 2))
        _same_decision(second, m_partition_rebalance(changed, 2))

    def test_ok_response_carries_fingerprint(self, server):
        from repro.core.engine import snapshot_fingerprint

        inst = _instance(seed=22)
        with ServiceClient(server.host, server.port, retries=0) as client:
            response = client.call({
                "op": "rebalance", "shard": "fp", "k": 2,
                "instance": inst.to_dict(),
            })
        assert response["ok"] is True
        assert response["fingerprint"] == snapshot_fingerprint(inst).hex()

    def test_unknown_base_raw_error(self, server):
        with ServiceClient(
            server.host, server.port, retries=0, protocol="binary"
        ) as client:
            response = client.call({
                "op": "rebalance", "shard": "nb", "k": 2,
                "delta": {"base": "ff" * 16, "idx": [], "sizes": [],
                          "costs": [], "initial": []},
            })
        assert response["ok"] is False
        assert response["error"] == "unknown base"

    def test_client_falls_back_to_full_on_unknown_base(self, server):
        inst = _instance(seed=23, n=40)
        with ServiceClient(
            server.host, server.port, protocol="binary", delta=True
        ) as client, ServiceClient(server.host, server.port) as probe:
            client.rebalance(inst, 2, shard="fb")
            # Server-side reset evicts the delta bases; the client
            # still believes its base is current.
            probe.reset("fb")
            result = client.rebalance(inst, 2, shard="fb")
            assert client.deltas_sent == 1   # the attempt that bounced
            assert client.fulls_sent == 2    # initial + fallback
        _same_decision(result, m_partition_rebalance(inst, 2))

    def test_delta_requires_binary_protocol(self, server):
        with pytest.raises(ValueError):
            ServiceClient(server.host, server.port, delta=True)

    def test_delta_base_evicted_by_lru_falls_back_to_full(self):
        """Distinct snapshots streaming through a shard supersede the
        resident tip; a delta against a superseded base bounces as
        ``unknown base`` and the client transparently re-sends the
        full snapshot."""
        from repro.core.instance import Instance

        config = ServerConfig()
        inst = _instance(seed=30, n=40)
        sizes = inst.sizes.copy()
        sizes[5] *= 1.5
        changed = Instance(
            sizes=sizes, costs=inst.costs,
            num_processors=inst.num_processors, initial=inst.initial,
        )
        with start_background(config) as handle:
            with ServiceClient(
                handle.host, handle.port, protocol="binary", delta=True
            ) as client, ServiceClient(handle.host, handle.port) as probe:
                client.rebalance(inst, 2, shard="ev")
                # Two more distinct snapshots through the same shard
                # move the resident tip off the delta client's base.
                probe.rebalance(_instance(seed=31, n=40), 2, shard="ev")
                probe.rebalance(_instance(seed=32, n=40), 2, shard="ev")
                result = client.rebalance(changed, 2, shard="ev")
                assert client.deltas_sent == 1  # the bounced attempt
                assert client.fulls_sent == 2   # initial + fallback
                counters = probe.status()["metrics"]["counters"]
                assert counters.get("service.delta_misses", 0) >= 1
        _same_decision(result, m_partition_rebalance(changed, 2))

    @pytest.mark.parametrize(
        "sizes, costs, idx",
        [
            ([1.0, 1.0], [1.0, 1.0], [0, 99999]),  # index out of range
            ([0.0, 1.0], [1.0, 1.0], [0, 1]),
            ([-5.0, 1.0], [1.0, 1.0], [0, 1]),
            ([float("nan"), 1.0], [1.0, 1.0], [0, 1]),
            ([1.0, 1.0], [float("inf"), 1.0], [0, 1]),
            ([1.0, 1.0], [-1.0, 1.0], [0, 1]),
        ],
        ids=["index", "zero-size", "negative-size", "nan-size",
             "inf-cost", "negative-cost"],
    )
    def test_malformed_delta_is_bad_request(self, server, sizes, costs, idx):
        """A delta with values a full snapshot is rejected for answers
        ``bad request`` and leaves the resident tip where it was."""
        inst = _instance(seed=24)
        with ServiceClient(
            server.host, server.port, retries=0, protocol="binary"
        ) as client:
            ok = client.call({
                "op": "rebalance", "shard": "md", "k": 2,
                "instance": inst.to_dict(),
            })
            response = client.call({
                "op": "rebalance", "shard": "md", "k": 2,
                "delta": {"base": ok["fingerprint"], "idx": idx,
                          "sizes": sizes, "costs": costs,
                          "initial": [0, 0]},
            })
            tip = client.status()["residents"]["md"]["fingerprint"]
        assert response["ok"] is False
        assert response["error"] == "bad request"
        assert tip == ok["fingerprint"]

    @pytest.mark.parametrize("op", ["rebalance", "replicate"])
    @pytest.mark.parametrize(
        "delta", [7, "abc", ["x"]], ids=["int", "str", "list"]
    )
    def test_non_object_delta_is_bad_request(self, server, op, delta):
        """A ``delta`` that is not a JSON object answers ``bad request``
        (not ``unknown base``) on a shard with a resident tip: counted,
        the tip unmoved, and the connection still served."""
        import socket

        inst = _instance(seed=26)
        with socket.create_connection(
            (server.host, server.port), timeout=10.0
        ) as sock:
            ok = _call_raw(sock, {
                "op": "rebalance", "shard": "nd", "k": 2,
                "instance": inst.to_dict(),
            })
            before = _call_raw(sock, {"op": "status"})
            response = _call_raw(
                sock, {"op": op, "shard": "nd", "k": 2, "delta": delta}
            )
            after = _call_raw(sock, {"op": "status"})
            pong = _call_raw(sock, {"op": "ping"})
        assert response["ok"] is False
        assert response["error"] == "bad request"
        bad = [
            s["metrics"]["counters"].get("service.bad_requests", 0)
            for s in (before, after)
        ]
        assert bad[1] == bad[0] + 1
        assert after["residents"]["nd"]["fingerprint"] == ok["fingerprint"]
        assert pong["ok"] is True
