"""Cluster tier: hash ring, router, replication, migration, failover.

The router is pure coordination — consistent-hash placement, delta-log
replication to a standby, standby promotion on backend death, live
migration — and none of it may ever change a decision: every path is
checked against the in-process solver.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import make_instance
from repro.core.engine import snapshot_fingerprint
from repro.core.partition import m_partition_rebalance
from repro.service import (
    BackendSpec,
    ClusterRouter,
    ConnectionClosed,
    HashRing,
    ProtocolError,
    RouterConfig,
    ServerConfig,
    ServiceClient,
    ServiceError,
    spawn_serve_process,
    start_background,
    start_router_background,
)
from repro.service.resident import ResidentShard
from repro.websim import (
    ComposedTraffic,
    DiurnalTraffic,
    EngineMPartitionPolicy,
    FlashCrowdTraffic,
    ServicePolicy,
    Simulation,
    build_cluster,
)

NODES = ("backend-0", "backend-1", "backend-2")


def _instance(seed: int = 11, n: int = 20, m: int = 4):
    rng = np.random.default_rng(seed)
    return make_instance(
        sizes=rng.uniform(1.0, 9.0, n),
        initial=rng.integers(0, m, n),
        num_processors=m,
    )


class TestHashRing:
    def test_layout_is_deterministic(self):
        a, b = HashRing(NODES), HashRing(NODES)
        for i in range(100):
            assert a.owner(f"shard-{i}") == b.owner(f"shard-{i}")

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.owner("x") is None
        assert ring.owners("x") == []
        assert len(ring) == 0

    def test_owners_distinct_and_bounded_by_ring_size(self):
        ring = HashRing(NODES)
        owners = ring.owners("s", 2)
        assert len(owners) == len(set(owners)) == 2
        assert set(ring.owners("s", 10)) == set(NODES)

    def test_remove_reassigns_only_the_removed_nodes_shards(self):
        ring = HashRing(NODES)
        before = {f"shard-{i}": ring.owner(f"shard-{i}") for i in range(200)}
        ring.remove("backend-1")
        for shard, owner in before.items():
            if owner == "backend-1":
                assert ring.owner(shard) in ("backend-0", "backend-2")
            else:
                assert ring.owner(shard) == owner

    def test_vnodes_spread_ownership(self):
        ring = HashRing(NODES)
        from collections import Counter

        counts = Counter(ring.owner(f"shard-{i}") for i in range(999))
        # 64 vnodes per node keep the split within loose bounds.
        for node in NODES:
            assert counts[node] > 999 * 0.15

    def test_add_remove_membership(self):
        ring = HashRing(("a",))
        ring.add("b")
        ring.add("b")  # idempotent
        assert ring.nodes == ["a", "b"]
        assert "b" in ring and len(ring) == 2
        ring.remove("b")
        ring.remove("b")  # idempotent
        assert ring.nodes == ["a"]
        assert all(ring.owner(f"s{i}") == "a" for i in range(20))

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestBackendSpec:
    def test_parse_named(self):
        spec = BackendSpec.parse("primary=10.0.0.1:7000", 0)
        assert spec == BackendSpec("primary", "10.0.0.1", 7000)

    def test_parse_auto_named(self):
        spec = BackendSpec.parse("127.0.0.1:7001", 3)
        assert spec == BackendSpec("backend-3", "127.0.0.1", 7001)

    @pytest.mark.parametrize("bad", ["nope", "host:", ":123", "h:1x2"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            BackendSpec.parse(bad, 0)


class TestRouterConfig:
    def test_needs_backends(self):
        with pytest.raises(ValueError):
            RouterConfig(backends=())

    def test_rejects_duplicate_names(self):
        spec = BackendSpec("b", "127.0.0.1", 1)
        with pytest.raises(ValueError):
            RouterConfig(backends=(spec, BackendSpec("b", "127.0.0.1", 2)))

    def test_rejects_bad_health_settings(self):
        spec = (BackendSpec("b", "127.0.0.1", 1),)
        with pytest.raises(ValueError):
            RouterConfig(backends=spec, health_misses=0)
        with pytest.raises(ValueError):
            RouterConfig(backends=spec, health_interval_s=0.0)

    def test_rejects_negative_repl_coalesce(self):
        spec = (BackendSpec("b", "127.0.0.1", 1),)
        with pytest.raises(ValueError):
            RouterConfig(backends=spec, repl_coalesce_s=-0.001)

    def test_rejects_negative_relay_knobs(self):
        spec = (BackendSpec("b", "127.0.0.1", 1),)
        with pytest.raises(ValueError):
            RouterConfig(backends=spec, relay_concurrency=-1)
        with pytest.raises(ValueError):
            RouterConfig(backends=spec, relay_delay_s=-0.001)
        with pytest.raises(ValueError):
            RouterConfig(backends=spec, relay_queue=-1)


@pytest.fixture()
def cluster():
    """Router over two in-process backends; yields (router, handles)."""
    with start_background(ServerConfig()) as b0, \
            start_background(ServerConfig()) as b1:
        config = RouterConfig(backends=(
            BackendSpec("backend-0", b0.host, b0.port),
            BackendSpec("backend-1", b1.host, b1.port),
        ))
        with start_router_background(config) as router:
            yield router, {"backend-0": b0, "backend-1": b1}


def _router_counters(router) -> dict[str, int]:
    with ServiceClient(router.host, router.port) as probe:
        return probe.status()["router"]["metrics"]["counters"]


class TestRouterIntegration:
    def test_ping_and_health(self, cluster):
        router, _ = cluster
        with ServiceClient(router.host, router.port) as client:
            assert client.ping()
            health = client.call({"op": "health"})
            assert health["ok"]
            assert health["live"] == ["backend-0", "backend-1"]
            assert health["dead"] == []

    def test_rebalance_matches_in_process_solver(self, cluster):
        router, _ = cluster
        instance = _instance()
        want = m_partition_rebalance(instance, 2)
        with ServiceClient(router.host, router.port) as client:
            got = client.rebalance(instance, 2, shard="direct-check")
        np.testing.assert_array_equal(
            got.assignment.mapping, want.assignment.mapping
        )

    def test_delta_stream_through_router(self, cluster):
        router, _ = cluster
        with ServiceClient(
            router.host, router.port, protocol="binary", delta=True
        ) as client:
            base = _instance(seed=1, n=64)
            client.rebalance(base, 2, shard="d")
            # One changed site: well under the delta cutover.
            sizes = base.sizes.copy()
            sizes[5] *= 2.0
            nxt = make_instance(
                sizes=sizes, initial=base.initial,
                num_processors=base.num_processors,
            )
            want = m_partition_rebalance(nxt, 2)
            got = client.rebalance(nxt, 2, shard="d")
            assert client.deltas_sent == 1
            np.testing.assert_array_equal(
                got.assignment.mapping, want.assignment.mapping
            )

    @pytest.mark.parametrize(
        "delta", [7, "abc", ["x"]], ids=["int", "str", "list"]
    )
    def test_non_object_delta_is_bad_request(self, cluster, delta):
        """A ``delta`` that is not a JSON object answers ``bad request``
        at the router even when the shard has a resident tip: counted,
        the tip unmoved, and the connection still served."""
        import socket

        from repro.service.protocol import read_frame_sync, write_frame_sync

        def call(sock, message):
            write_frame_sync(sock, message)
            return read_frame_sync(sock)

        router, _ = cluster
        with socket.create_connection(
            (router.host, router.port), timeout=10.0
        ) as sock:
            ok = call(sock, {
                "op": "rebalance", "shard": "nd", "k": 2,
                "instance": _instance(seed=4).to_dict(),
            })
            before = call(sock, {"op": "status"})["router"]
            response = call(
                sock, {"op": "rebalance", "shard": "nd", "k": 2, "delta": delta}
            )
            after = call(sock, {"op": "status"})["router"]
            pong = call(sock, {"op": "ping"})
        assert response["ok"] is False
        assert response["error"] == "bad request"
        bad = [
            s["metrics"]["counters"].get("router.bad_requests", 0)
            for s in (before, after)
        ]
        assert bad[1] == bad[0] + 1
        assert before["residents"]["nd"] == ok["fingerprint"]
        assert after["residents"]["nd"] == ok["fingerprint"]
        assert pong["ok"] is True

    def test_status_aggregates_router_and_backends(self, cluster):
        router, _ = cluster
        with ServiceClient(router.host, router.port) as client:
            status = client.status()
        assert status["router"]["live"] == ["backend-0", "backend-1"]
        assert status["router"]["dead"] == []
        assert set(status["backends"]) == {"backend-0", "backend-1"}
        assert all(b["ok"] for b in status["backends"].values())

    def test_reset_fans_out(self, cluster):
        router, _ = cluster
        with ServiceClient(router.host, router.port) as client:
            client.rebalance(_instance(), 2, shard="r0")
            client.rebalance(_instance(), 2, shard="r1")
            assert client.reset() == ["r0", "r1"]

    def test_unknown_op_and_bad_migrate(self, cluster):
        router, _ = cluster
        with ServiceClient(router.host, router.port) as client:
            response = client.call({"op": "nope"})
            assert not response["ok"] and response["error"] == "unknown op"
            response = client.call({"op": "migrate", "shard": "s"})
            assert not response["ok"] and response["error"] == "bad request"

    def test_replication_installs_base_on_standby(self, cluster):
        router, handles = cluster
        shard = "repl-check"
        ring = HashRing(("backend-0", "backend-1"))
        standby = ring.owners(shard, 2)[1]
        instance = _instance(seed=7)
        with ServiceClient(router.host, router.port) as client:
            client.rebalance(instance, 2, shard=shard)
        deadline = time.monotonic() + 10.0
        while _router_counters(router).get("router.replicated", 0) < 1:
            assert time.monotonic() < deadline, "replication never drained"
            time.sleep(0.02)
        # The standby now exports the replicated snapshot (and its
        # fingerprint) even though it never served the shard.
        handle = handles[standby]
        with ServiceClient(handle.host, handle.port) as probe:
            exported = probe.call({"op": "migrate", "shard": shard})
        assert exported["ok"] and exported["found"]
        assert exported["fingerprint"] == snapshot_fingerprint(instance).hex()

    def test_replication_drains_with_coalescing_window(self):
        """``repl_coalesce_s`` delays the drain but loses nothing: the
        standby still converges to the shard's latest fingerprint."""
        shard = "coalesce-check"
        with start_background(ServerConfig()) as b0, \
                start_background(ServerConfig()) as b1:
            config = RouterConfig(
                backends=(
                    BackendSpec("backend-0", b0.host, b0.port),
                    BackendSpec("backend-1", b1.host, b1.port),
                ),
                repl_coalesce_s=0.02,
            )
            standby = HashRing(("backend-0", "backend-1")).owners(shard, 2)[1]
            handle = {"backend-0": b0, "backend-1": b1}[standby]
            instance = _instance(seed=11)
            with start_router_background(config) as router:
                with ServiceClient(router.host, router.port) as client:
                    client.rebalance(instance, 2, shard=shard)
                deadline = time.monotonic() + 10.0
                while _router_counters(router).get(
                    "router.replicated", 0
                ) < 1:
                    assert time.monotonic() < deadline, (
                        "coalesced replication never drained"
                    )
                    time.sleep(0.02)
            with ServiceClient(handle.host, handle.port) as probe:
                exported = probe.call({"op": "migrate", "shard": shard})
            assert exported["ok"] and exported["found"]
            assert exported["fingerprint"] == (
                snapshot_fingerprint(instance).hex()
            )

    def test_migrate_flips_routing(self, cluster):
        router, handles = cluster
        shard = "mig-check"
        ring = HashRing(("backend-0", "backend-1"))
        source, target = ring.owners(shard, 2)
        instance = _instance(seed=9)
        with ServiceClient(router.host, router.port) as client:
            client.rebalance(instance, 2, shard=shard)
            moved = client.call(
                {"op": "migrate", "shard": shard, "target": target}
            )
            assert moved["ok"]
            assert moved["source"] == source and moved["target"] == target
            status = client.status()
            assert status["router"]["overrides"] == {shard: target}
            # Post-migration requests hit the target backend and still
            # answer identically to the in-process solver.
            before = status["backends"][target]["shards"].get(
                shard, {"decisions": 0}
            )["decisions"]
            want = m_partition_rebalance(instance, 2)
            got = client.rebalance(instance, 2, shard=shard)
            np.testing.assert_array_equal(
                got.assignment.mapping, want.assignment.mapping
            )
            after = client.status()["backends"][target]["shards"][shard][
                "decisions"
            ]
            assert after > before

    def test_backend_stop_fails_over_without_client_errors(self):
        """Stopping a backend mid-stream: the router marks it dead on
        the inline transport error, replays on the survivor, and the
        client never sees a failure."""
        with start_background(ServerConfig()) as b0, \
                start_background(ServerConfig()) as b1:
            config = RouterConfig(backends=(
                BackendSpec("backend-0", b0.host, b0.port),
                BackendSpec("backend-1", b1.host, b1.port),
            ))
            handles = {"backend-0": b0, "backend-1": b1}
            with start_router_background(config) as router:
                shard = "fo-check"
                owner = HashRing(("backend-0", "backend-1")).owner(shard)
                with ServiceClient(router.host, router.port) as client:
                    client.rebalance(_instance(seed=2), 2, shard=shard)
                    handles[owner].stop()
                    instance = _instance(seed=4)
                    want = m_partition_rebalance(instance, 2)
                    got = client.rebalance(instance, 2, shard=shard)
                    np.testing.assert_array_equal(
                        got.assignment.mapping, want.assignment.mapping
                    )
                    status = client.status()
                assert status["router"]["dead"] == [owner]
                counters = status["router"]["metrics"]["counters"]
                assert counters.get("router.backend_deaths", 0) == 1
                assert counters.get("router.failover_replays", 0) >= 1


class TestStandbyReReplication:
    def test_promotion_rereplicates_to_new_standby(self):
        """When a shard's primary dies, the promoted standby must not
        stay the shard's only copy: the router re-replicates the full
        tip to the newly resolved standby, so a second death is
        survivable too."""
        with start_background(ServerConfig()) as b0, \
                start_background(ServerConfig()) as b1, \
                start_background(ServerConfig()) as b2:
            handles = {"backend-0": b0, "backend-1": b1, "backend-2": b2}
            config = RouterConfig(backends=tuple(
                BackendSpec(name, h.host, h.port)
                for name, h in handles.items()
            ))
            with start_router_background(config) as router:
                shard = "promo"
                instance = _instance(seed=13)
                with ServiceClient(router.host, router.port) as client:
                    client.rebalance(instance, 2, shard=shard)
                deadline = time.monotonic() + 10.0
                while _router_counters(router).get(
                    "router.replicated", 0
                ) < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                primary = HashRing(NODES).owners(shard, 2)[0]
                handles[primary].stop()
                # The health prober notices, promotes, and enqueues a
                # full re-replication to the post-promotion standby.
                while _router_counters(router).get(
                    "router.rereplications", 0
                ) < 1:
                    assert time.monotonic() < deadline, \
                        "promotion never re-replicated"
                    time.sleep(0.02)
                survivors = tuple(n for n in NODES if n != primary)
                new_standby = HashRing(survivors).owners(shard, 2)[1]
                fp_hex = snapshot_fingerprint(instance).hex()
                handle = handles[new_standby]
                exported = None
                while time.monotonic() < deadline:
                    with ServiceClient(handle.host, handle.port) as probe:
                        exported = probe.call(
                            {"op": "migrate", "shard": shard}
                        )
                    if exported.get("found"):
                        break
                    time.sleep(0.02)
                assert exported is not None and exported["ok"]
                assert exported["found"], \
                    "new standby never received the shard tip"
                assert exported["fingerprint"] == fp_hex


EPOCHS = 10
K = 3


def _simulation(policy, seed: int = 44):
    rng = np.random.default_rng(seed)
    cluster = build_cluster(60, 5, rng)
    traffic = ComposedTraffic(
        (DiurnalTraffic(), FlashCrowdTraffic(probability=0.2))
    )
    return Simulation(cluster=cluster, traffic=traffic, policy=policy,
                      seed=seed)


class _KillOwnerMidRun:
    """Policy wrapper: SIGKILL ``victim`` right before deciding epoch
    ``at_epoch`` — a deterministic mid-trajectory backend death.

    ``Simulation.run`` deep-copies its policy; this wrapper returns
    itself from ``__deepcopy__`` (a live OS process cannot be copied),
    which is fine for the single ``run()`` it serves.
    """

    name = "service-kill9"

    def __init__(self, inner, victim, at_epoch: int) -> None:
        self.inner = inner
        self.victim = victim
        self.at_epoch = at_epoch
        self.killed = False

    def __deepcopy__(self, memo: dict) -> "_KillOwnerMidRun":
        return self

    def decide(self, instance, epoch: int):
        if epoch == self.at_epoch and not self.killed:
            self.killed = True
            self.victim.kill()
        return self.inner.decide(instance, epoch)


class TestKillMinusNine:
    """The tentpole failure injection: a real backend OS process dies
    with SIGKILL and clients keep getting byte-identical answers."""

    def test_trajectory_survives_kill9_byte_identical(self):
        want = _simulation(EngineMPartitionPolicy(k=K)).run(EPOCHS)
        shard = "websim"
        owner = HashRing(("backend-0", "backend-1")).owner(shard)
        processes = [spawn_serve_process(), spawn_serve_process()]
        try:
            config = RouterConfig(backends=tuple(
                BackendSpec(f"backend-{i}", p.host, p.port)
                for i, p in enumerate(processes)
            ))
            with start_router_background(config) as router:
                policy = ServicePolicy(
                    router.host, router.port, k=K, shard=shard,
                    protocol="binary", delta=True,
                )
                # SIGKILL the shard's owner halfway through the epoch
                # loop; the router promotes the delta-replicated
                # standby and the trajectory must not notice.
                victim = processes[int(owner.rsplit("-", 1)[1])]
                wrapped = _KillOwnerMidRun(policy, victim, EPOCHS // 2)
                try:
                    got = _simulation(wrapped).run(EPOCHS)
                finally:
                    policy.close()
                counters = _router_counters(router)
        finally:
            for process in processes:
                process.terminate()
        assert wrapped.killed
        records = got.records
        assert len(records) == EPOCHS
        for ours, theirs in zip(records, want.records):
            assert ours.makespan == theirs.makespan
            assert ours.migrations == theirs.migrations
            assert ours.migration_cost == theirs.migration_cost
            assert ours.imbalance == theirs.imbalance
        assert counters.get("router.backend_deaths", 0) == 1
        assert counters.get("router.replicated", 0) > 0

    def test_reconnects_to_dead_process_are_backoff_bounded(self):
        """A client facing a SIGKILLed process probes with jittered
        exponential backoff — attempts are counted and paced, not a
        reconnect spin."""
        process = spawn_serve_process()
        try:
            with ServiceClient(process.host, process.port) as client:
                assert client.ping()
                process.kill()
                client.retries = 2
                start = time.perf_counter()
                with pytest.raises((OSError, ProtocolError, ServiceError)):
                    client.ping()
                elapsed = time.perf_counter() - start
            assert client.transport_retries == 2
            assert client.backoff_slept_s >= 0.5 * (0.05 + 0.10)
            assert elapsed >= client.backoff_slept_s
        finally:
            process.terminate()


class _StubLink:
    """BackendLink stand-in: scripted per-call outcomes (a response
    dict to return, or an exception to raise)."""

    def __init__(self, outcomes=()):
        self.outcomes = list(outcomes)
        self.calls = 0

    async def _next(self):
        self.calls += 1
        out = self.outcomes.pop(0)
        if isinstance(out, Exception):
            raise out
        return out

    async def solve(self, shard, k, instance, deadline_ms, moves_only=False):
        return await self._next()

    async def call(self, message):
        return await self._next()


def _stub_router(**config_kwargs) -> ClusterRouter:
    """An unstarted router over two fake backends; tests inject
    :class:`_StubLink` objects and drive the routing coroutines
    directly."""
    config = RouterConfig(
        backends=(
            BackendSpec("backend-0", "127.0.0.1", 1),
            BackendSpec("backend-1", "127.0.0.1", 2),
        ),
        replicate=False,
        **config_kwargs,
    )
    return ClusterRouter(config)


class TestTransportOnlyFailover:
    """Regression: failover fires on *transport* failures only.  A
    well-formed error response from a live backend (bad request,
    unknown shard, ...) must return to the client as-is — treating it
    as death signal once turned every malformed request into a
    cluster-shrinking event."""

    def test_error_response_does_not_mark_backend_dead(self):
        router = _stub_router()
        owner = router.ring.owner("s")
        bad = {"ok": False, "error": "bad request", "message": "nope"}
        for node in router.ring.nodes:
            router._links[node] = _StubLink()
        router._links[owner] = _StubLink([bad])
        response = asyncio.run(
            router._route_solve("s", 2, _instance(), None, False)
        )
        assert response == bad
        assert router._dead == set()
        assert router.metrics.counters.get("router.backend_deaths", 0) == 0
        assert router._links[owner].calls == 1

    def test_connection_closed_still_fails_over(self):
        """``ConnectionClosed`` is a ConnectionError: a severed link is
        transport signal and must still replay on the survivor."""
        router = _stub_router()
        owner = router.ring.owner("s")
        other = next(n for n in router.ring.nodes if n != owner)
        ok = {"ok": True, "fingerprint": "ab"}
        router._links[owner] = _StubLink(
            [ConnectionClosed("server closed the connection")]
        )
        router._links[other] = _StubLink([ok])
        response = asyncio.run(
            router._route_solve("s", 2, _instance(), None, False)
        )
        assert response == ok
        assert router._dead == {owner}
        assert router.metrics.counters["router.failover_replays"] == 1


class TestTipRaces:
    """Two deltas racing on one shard: the loser's frame is neither
    committed nor replicated, and the race is counted."""

    def test_interleaved_deltas_count_tip_race(self):
        router = _stub_router()
        shard = "race"
        owner = router.ring.owner(shard)

        class _RacingLink(_StubLink):
            def __init__(self):
                super().__init__()
                self.first_blocked = asyncio.Event()
                self.release_first = asyncio.Event()

            async def call(self, message):
                self.calls += 1
                if self.calls == 1:
                    self.first_blocked.set()
                    await self.release_first.wait()
                return {
                    "ok": True, "fingerprint": "ignored",
                    "moves_idx": [], "moves_to": [],
                }

        link = _RacingLink()
        for node in router.ring.nodes:
            router._links[node] = link if node == owner else _StubLink()

        async def scenario():
            res = ResidentShard(_instance(seed=3, n=32))
            router._residents[shard] = res
            base = res.fp_hex

            def delta(site: int, size: float) -> dict:
                return {
                    "base": base,
                    "idx": np.array([site], dtype=np.int64),
                    "sizes": np.array([size]),
                    "costs": np.array([1.0]),
                    "initial": np.array([0], dtype=np.int64),
                }

            d1, d2 = delta(1, 5.0), delta(2, 7.0)
            m1 = {"op": "rebalance", "shard": shard, "k": 2, "delta": d1}
            m2 = {"op": "rebalance", "shard": shard, "k": 2, "delta": d2}
            t1 = asyncio.create_task(
                router._op_rebalance_delta(shard, 2, m1, res, d1)
            )
            await link.first_blocked.wait()
            # The second delta lands while the first is in flight and
            # commits the tip first.
            r2 = await router._op_rebalance_delta(shard, 2, m2, res, d2)
            link.release_first.set()
            r1 = await t1
            return r1, r2, res

        r1, r2, res = asyncio.run(scenario())
        assert r1["ok"] and r2["ok"]
        # The winner advanced the tip; the loser's fingerprint names a
        # state the resident never held.
        assert res.fp_hex == r2["fingerprint"]
        assert r1["fingerprint"] != res.fp_hex
        assert router.metrics.counters["router.tip_races"] == 1
        assert router.metrics.counters["router.resident_deltas"] == 2


class TestRelayGate:
    """The relay capacity gate: ``relay_concurrency`` permits, a
    bounded waiter queue, and the delay held *under* the permit."""

    def test_admission_and_queue_bound(self):
        router = _stub_router(relay_concurrency=1, relay_queue=0)

        async def scenario():
            assert await router._relay_admit()
            # Permit held, queue 0: the next arrival is rejected.
            assert not await router._relay_admit()
            await router._relay_release()
            assert await router._relay_admit()
            await router._relay_release()

        asyncio.run(scenario())
        assert router.metrics.counters["router.relay_rejections"] == 1

    def test_unbounded_without_concurrency(self):
        router = _stub_router()

        async def scenario():
            for _ in range(32):
                assert await router._relay_admit()

        asyncio.run(scenario())
        assert "router.relay_rejections" not in router.metrics.counters

    def test_rejection_names_retry_after(self):
        router = _stub_router(relay_concurrency=1, relay_delay_s=0.05)
        response = router._relay_rejection()
        assert not response["ok"] and response["error"] == "overloaded"
        assert response["retry_after_ms"] >= 50.0
