"""The cluster tier: a shard-routing coordinator over N backend nodes.

One ``serve`` process saturates one core, so the next order of
magnitude is across processes and hosts.  :class:`ClusterRouter` is a
coordinator process that speaks the existing v2 binary protocol (and
v1 JSON) on *both* sides: clients connect to the router exactly as
they would to a single ``serve`` node, and the router places shards on
backend nodes by consistent hashing::

    clients → router ─┬→ backend A (serve)   shard placement: vnode
                      ├→ backend B (serve)   ring keyed by crc32, the
                      └→ backend C (serve)   same hash as the data
                                             plane's worker affinity

Placing shards on nodes is itself an online load-balancing instance —
nodes arrive and depart, shards must move as little as possible — so
the placement uses a consistent-hash ring (``vnodes`` points per node):
removing one of ``N`` nodes reassigns only ``~1/N`` of the shards,
which is the ring's analogue of the paper's bounded per-epoch moves.

**The request path is a relay.**  A full-snapshot ``rebalance`` (v2
binary or v1 JSON) is routed on its shard alone and forwarded to the
owner as the bytes the client sent; the owner's response bytes come
back the same way.  The router never validates, fingerprints or
re-encodes a full.  When the owner acknowledges a fingerprint that is
not the shard's resident tip, the router seeds the tip from the
request it already holds (a v2 body decodes zero-copy, a v1 body was
parsed once for its shard), so the next delta rides the O(churn)
passthrough: a delta whose base is the tip is applied in O(changed
sites) and forwarded as the same frame.  Any other base answers
``unknown base`` and costs the client one full resend, exactly as
against a single ``serve``.  The sharded data plane's workers
(:mod:`repro.service.dataplane`) run this same path.

**Replication is replay.**  The client→router stream is already a
complete, fingerprinted log of every shard's snapshot history, so the
router replays it at the shard's standby (the next distinct node
clockwise on the ring) via the ``replicate`` op: a delta as the same
frame, a relayed v2 full as its own bytes re-addressed
(:func:`~repro.service.protocol.replicate_body`), and a duplicate of
the tip not at all.  A standby answering ``unknown base`` gets one
full of the tip.  The stream *is* the replication log; there is no
second snapshot format to keep consistent.

**Failover.**  A backend death is observed either by the health loop
(``health`` probes, ``health_misses`` strikes) or inline by a
transport error on a forwarded request.  Either way the node leaves
the ring, routing re-resolves to the next owner — which, for shards
the dead node owned, is the standby that has been absorbing the
replica stream — and the in-flight requests that failed with the node
are replayed on the new owner (a rebalance decision is a pure function
of ``(snapshot, k)``, so replay is idempotent).  Clients observe a
latency blip, never an error.

**Live migration.**  ``migrate(shard, target)`` drains the shard's
in-flight requests behind a gate, ships the latest base snapshot (and
its warm-engine fingerprint) to the new owner as one ``replicate``
frame, then flips a routing override and reopens the gate.  The new
owner's first solve warms its engine from the shipped base exactly as
a cold client would — byte-identical decisions throughout, because
every node runs the same engine contract.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import tempfile
import threading
import time
from bisect import bisect_right
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator, Awaitable, Callable
from zlib import crc32

import numpy as np

from .. import telemetry
from ..core.instance import Instance
from .client import AsyncServiceClient, Overloaded, ServiceError
from .resident import Frame, ResidentShard
from .protocol import (
    PROTOCOL_V2,
    ProtocolError,
    decode_body,
    encode_frame,
    encode_frame_into,
    error_response,
    frame_header,
    ok_response,
    peek_meta,
    read_frame_raw,
    replicate_body,
)

__all__ = [
    "BackendSpec",
    "ClusterRouter",
    "HashRing",
    "RouterConfig",
    "RouterHandle",
    "ServeProcess",
    "spawn_serve_process",
    "start_router_background",
]


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class HashRing:
    """A consistent-hash ring with virtual nodes.

    Each node contributes ``vnodes`` points ``crc32(f"{node}#{i}")``;
    a shard lands on the first point clockwise of ``crc32(shard)``.
    The hash is the same crc32-of-utf-8 the router data plane uses for
    shard→worker affinity, so the two placement layers agree on what
    "the shard's hash" means.  Node ids are logical names (decoupled
    from host:port), so ring layout is a pure function of the names —
    deterministic across runs regardless of ephemeral ports.
    """

    def __init__(self, nodes: tuple[str, ...] = (), *, vnodes: int = 64) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []  # sorted (hash, node)
        self._hashes: list[int] = []              # the points' hashes
        for node in nodes:
            self.add(node)

    def _node_points(self, node: str) -> list[tuple[int, str]]:
        return [
            (crc32(f"{node}#{i}".encode("utf-8")), node)
            for i in range(self.vnodes)
        ]

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._points.extend(self._node_points(node))
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]
        self._hashes = [h for h, _ in self._points]

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def owner(self, shard: str) -> str | None:
        """The shard's primary, or ``None`` on an empty ring."""
        owners = self.owners(shard, 1)
        return owners[0] if owners else None

    def owners(self, shard: str, count: int = 2) -> list[str]:
        """Up to ``count`` distinct nodes clockwise from the shard's
        point: ``[primary, standby, ...]`` in preference order."""
        if not self._points or count <= 0:
            return []
        start = bisect_right(self._hashes, crc32(shard.encode("utf-8")))
        found: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return found


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendSpec:
    """One backend ``serve`` node the router places shards on."""

    name: str
    host: str
    port: int

    @classmethod
    def parse(cls, text: str, index: int) -> "BackendSpec":
        """``"name=host:port"`` or ``"host:port"`` (auto-named)."""
        name, eq, addr = text.rpartition("=")
        if not eq:
            name = f"backend-{index}"
        host, colon, port_text = addr.rpartition(":")
        if not colon or not host or not port_text.isdigit():
            raise ValueError(f"backend must look like [name=]host:port, got {text!r}")
        return cls(name=name, host=host, port=int(port_text))


@dataclass(frozen=True)
class RouterConfig:
    """Everything the router's behavior depends on."""

    backends: tuple[BackendSpec, ...]
    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; read it back from router.port
    vnodes: int = 64
    replicate: bool = True          # stream each shard to its standby
    repl_coalesce_s: float = 0.0     # drain delay: batch frames, keep
    #                                  replication off the response tail
    health_interval_s: float = 0.25  # between health probes per node
    health_timeout_s: float = 1.0    # per-probe deadline
    health_misses: int = 2           # consecutive misses before death
    connections_per_backend: int = 8
    backend_timeout: float = 30.0
    # Relay capacity pinning (the router-tier analog of ``serve
    # --solve-delay-ms``): with ``relay_concurrency`` permits each held
    # for the request plus ``relay_delay_s``, per-process rebalance
    # capacity is permits/(service+delay) *by construction* — the knob
    # E19 uses to make router scaling measurable independent of host
    # cores.  0 permits = unbounded (the default; no pinning).
    relay_concurrency: int = 0
    relay_delay_s: float = 0.0
    relay_queue: int = 64            # waiters allowed past the permits
    #                                  before ``overloaded`` is answered

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("router needs at least one backend")
        names = [b.name for b in self.backends]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate backend names in {names}")
        if self.health_interval_s <= 0 or self.health_timeout_s <= 0:
            raise ValueError("health intervals must be positive")
        if self.repl_coalesce_s < 0:
            raise ValueError("repl_coalesce_s must be non-negative")
        if self.health_misses <= 0:
            raise ValueError("health_misses must be positive")
        if self.connections_per_backend <= 0:
            raise ValueError("connections_per_backend must be positive")
        if self.relay_concurrency < 0:
            raise ValueError("relay_concurrency must be non-negative")
        if self.relay_delay_s < 0:
            raise ValueError("relay_delay_s must be non-negative")
        if self.relay_queue < 0:
            raise ValueError("relay_queue must be non-negative")

    def as_dict(self) -> dict[str, Any]:
        return {
            "backends": [
                {"name": b.name, "host": b.host, "port": b.port}
                for b in self.backends
            ],
            "vnodes": self.vnodes,
            "replicate": self.replicate,
            "repl_coalesce_s": self.repl_coalesce_s,
            "health_interval_s": self.health_interval_s,
            "health_misses": self.health_misses,
            "relay_concurrency": self.relay_concurrency,
            "relay_delay_s": self.relay_delay_s,
            "relay_queue": self.relay_queue,
        }


# ----------------------------------------------------------------------
# Backend links
# ----------------------------------------------------------------------
class BackendLink:
    """The router's connection pool to one backend node.

    The router keeps no delta bases per backend: full snapshots travel
    as the client's own bytes, deltas as the client's own frames, and
    the router-originated fulls (re-replication, migration) are rare
    enough to ship whole.  So every pooled connection speaks plain v2.

    The pool is *elastic*: ``connections_per_backend`` is the warm
    floor, and an empty pool grows a new connection instead of
    queueing the caller.  Every in-flight request holds a connection
    for a full backend queue drain, so a fixed pool under overload
    would turn the backend's fast admission rejections into unbounded
    head-of-line blocking at the router — deadline misses the client
    never asked for.  Peak pool size is bounded by the concurrency the
    router's own clients offer.
    """

    def __init__(self, spec: BackendSpec, config: RouterConfig) -> None:
        self.spec = spec
        self._config = config
        self._clients: list[AsyncServiceClient] = []
        self._pool: asyncio.Queue[AsyncServiceClient] = asyncio.Queue()
        for _ in range(config.connections_per_backend):
            self._pool.put_nowait(self._new_client())

    def _new_client(self) -> AsyncServiceClient:
        client = AsyncServiceClient(
            self.spec.host, self.spec.port,
            timeout=self._config.backend_timeout,
            retries=0,  # the router replays on another node instead
            protocol="binary",
        )
        self._clients.append(client)
        return client

    async def _round_trip(
        self, send: Callable[[AsyncServiceClient], Awaitable[Any]]
    ) -> Any:
        """``send`` on a pooled connection (no retries: a transport
        failure is routing signal, not something to hide)."""
        try:
            client = self._pool.get_nowait()
        except asyncio.QueueEmpty:
            client = self._new_client()
        try:
            return await send(client)
        except BaseException:
            # Also covers cancellation mid-frame: a half-read
            # connection must not be reused.
            await client.close()
            raise
        finally:
            self._pool.put_nowait(client)

    async def call(self, message: dict[str, Any]) -> dict[str, Any]:
        """One decoded round-trip."""
        return await self._round_trip(lambda client: client.call(message))

    async def relay(
        self, body: bytes | bytearray | memoryview, version: int
    ) -> tuple[dict[str, Any], bytes, int]:
        """Round-trip a raw frame body verbatim (see
        :meth:`AsyncServiceClient.relay`) — the router's
        zero-materialization forward."""
        return await self._round_trip(
            lambda client: client.relay(body, version)
        )

    async def replicate(self, shard: str, instance: Instance) -> dict[str, Any]:
        """Install ``instance`` as the shard's tip at this node
        (install-only, no solve)."""
        return await self.call(
            {"op": "replicate", "shard": shard, "instance": instance.to_wire()}
        )

    async def close(self) -> None:
        for client in self._clients:
            await client.close()


# Queued replication frames per shard before the router collapses the
# backlog into one full-snapshot marker (a full of the current tip
# subsumes every queued frame — latest-wins, like the old coalescing).
REPL_QUEUE_CAP = 64


@dataclass
class _ShardRuntime:
    """The router's per-shard bookkeeping.

    The snapshot itself lives in the shard's
    :class:`~repro.service.resident.ResidentShard`.  ``repl_queue``
    holds ``("delta", wire_delta)`` frames to replay at the standby in
    order, or one ``("full", body)`` entry meaning "ship the tip":
    ``body`` is the tip's relayed v2 request body, or ``None`` to
    export the resident instead.
    """

    inflight: int = 0
    gate: asyncio.Event | None = None      # cleared while migrating
    drained: asyncio.Event | None = None   # set when inflight hits 0
    repl_queue: deque = field(default_factory=deque)
    repl_task: asyncio.Task | None = None


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class ClusterRouter:
    """Shard-routing coordinator speaking the service protocol on both
    sides: a drop-in ``serve`` endpoint for clients, a protocol client
    of its backends."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.metrics = telemetry.Collector()
        self.ring = HashRing(
            tuple(b.name for b in config.backends), vnodes=config.vnodes
        )
        self._specs = {b.name: b for b in config.backends}
        self._links: dict[str, BackendLink] = {}
        self._dead: set[str] = set()
        self._misses: dict[str, int] = {}
        # Routing overrides from live migration: shard -> node.  An
        # override to a dead node is dropped with the node.
        self._overrides: dict[str, str] = {}
        # Per shard: the resident tip (a delta whose base names it is
        # applied in O(changed sites) and forwarded as the same frame,
        # so no Instance materializes anywhere on the hot path) and the
        # runtime bookkeeping.
        self._residents: dict[str, ResidentShard] = {}
        self._shards: dict[str, _ShardRuntime] = {}
        self._server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None
        self._stop_event: asyncio.Event | None = None
        self._started_at = time.monotonic()
        # Relay capacity gate (see RouterConfig.relay_concurrency).
        self._relay_gate: asyncio.Semaphore | None = (
            asyncio.Semaphore(config.relay_concurrency)
            if config.relay_concurrency > 0 else None
        )
        self._relay_waiters = 0

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("router is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("router already started")
        self._stop_event = asyncio.Event()
        for spec in self.config.backends:
            self._links[spec.name] = BackendLink(spec, self.config)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()
        self._health_task = asyncio.create_task(self._health_loop())

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for runtime in self._shards.values():
            if runtime.repl_task is not None:
                runtime.repl_task.cancel()
        for link in self._links.values():
            await link.close()
        self._links.clear()

    # -- node liveness --------------------------------------------------
    @property
    def live_nodes(self) -> list[str]:
        return self.ring.nodes

    def _mark_dead(self, node: str, reason: str) -> None:
        """Take a node out of the ring (idempotent).  Routing
        re-resolves to the standby; its replicated tip makes the first
        failover request a delta, not a cold full snapshot."""
        if node in self._dead or node not in self._specs:
            return
        # Before the ring changes: shards the dead node served (as
        # primary or standby) lose a replica — after promotion their
        # newly resolved standby starts cold and must be re-seeded.
        affected: list[str] = []
        if self.config.replicate:
            for shard in set(self._residents) | set(self._shards):
                if node in self.ring.owners(shard, 2):
                    affected.append(shard)
        self._dead.add(node)
        self.ring.remove(node)
        self.metrics.add("router.backend_deaths")
        for shard, target in list(self._overrides.items()):
            if target == node:
                del self._overrides[shard]
        for shard in affected:
            # A full of the current tip both replaces anything queued
            # for the dead standby and seeds the new one.
            self.metrics.add("router.rereplications")
            self._enqueue_replication(shard, ("full", None))

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            for node in list(self.ring.nodes):
                link = self._links.get(node)
                if link is None:
                    continue
                try:
                    response = await asyncio.wait_for(
                        link.call({"op": "health"}),
                        self.config.health_timeout_s,
                    )
                    alive = bool(response.get("ok"))
                except (OSError, ProtocolError, ServiceError, asyncio.TimeoutError):
                    alive = False
                if alive:
                    self._misses[node] = 0
                else:
                    self._misses[node] = self._misses.get(node, 0) + 1
                    self.metrics.add("router.health_misses")
                    if self._misses[node] >= self.config.health_misses:
                        self._mark_dead(node, "health")

    # -- shard bookkeeping ----------------------------------------------
    def _runtime(self, shard: str) -> _ShardRuntime:
        runtime = self._shards.get(shard)
        if runtime is None:
            runtime = self._shards[shard] = _ShardRuntime()
        return runtime

    @asynccontextmanager
    async def _in_flight(self, shard: str) -> AsyncIterator[_ShardRuntime]:
        """Count one request in the shard's lane.  A migration that is
        flipping the shard's routing holds the request until the flip
        instead of racing it, and waits for the count to drain."""
        runtime = self._runtime(shard)
        if runtime.gate is not None:
            await runtime.gate.wait()
        runtime.inflight += 1
        try:
            yield runtime
        finally:
            runtime.inflight -= 1
            if runtime.inflight == 0 and runtime.drained is not None:
                runtime.drained.set()

    # -- request path ---------------------------------------------------
    def _owner(self, shard: str) -> str | None:
        override = self._overrides.get(shard)
        if override is not None and override in self.ring:
            return override
        return self.ring.owner(shard)

    def _misroute(self, shard: str) -> dict[str, Any] | None:
        """The response to answer instead of serving ``shard`` here, or
        ``None`` to serve it.  This router serves every shard; a
        data-plane worker answers its ``moved`` redirect instead."""
        return None

    async def _route(
        self, shard: str, send: Callable[[BackendLink], Awaitable[Any]]
    ) -> Any:
        """``send`` to the shard's owner; on a transport failure,
        declare the node dead and replay on the re-resolved owner (a
        rebalance is a pure function of ``(snapshot, k)``, so the
        replay is idempotent)."""
        last_error: Exception | None = None
        for _ in range(len(self._specs) + 1):
            node = self._owner(shard)
            if node is None:
                break
            try:
                return await asyncio.wait_for(
                    send(self._links[node]), self.config.backend_timeout
                )
            except Overloaded as exc:
                # Backpressure passes through untouched: the client's
                # retry_after_ms handling works identically behind the
                # router.
                return exc.response
            except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
                # Transport failures only — a well-formed error
                # *response* from a live backend (bad request, unknown
                # shard, ...) returns to the client as-is and must
                # never declare the node dead.  ConnectionClosed is a
                # ConnectionError, so a severed link still fails over.
                last_error = exc
                self._mark_dead(node, "transport")
                self.metrics.add("router.failover_replays")
                continue
        detail = f": {last_error}" if last_error is not None else ""
        return error_response("no backends alive", message=f"routing failed{detail}")

    async def _relay_route(
        self, shard: str, body: bytes, version: int
    ) -> tuple[dict[str, Any], bytes, int] | dict[str, Any]:
        """Raw request bytes to the shard's owner: the raw response, or
        an error response when no backend is alive."""
        return await self._route(shard, lambda link: link.relay(body, version))

    async def _relay_rebalance(
        self,
        shard: str,
        message: dict[str, Any],
        body: bytes,
        version: int,
        scratch: bytearray,
    ) -> bytes | memoryview:
        """Forward a full snapshot verbatim: raw request bytes to the
        owner, raw response bytes back.  The owner's fingerprint of the
        same bytes needs no re-stamp, and a malformed full comes back
        as the owner's ``bad request``.  ``message`` is the request as
        routed: a v2 body's meta, or the whole parsed v1 message."""
        self.metrics.add("router.requests")
        self.metrics.add("router.relayed_fulls")
        if not await self._relay_admit():
            return encode_frame_into(
                self._relay_rejection(), scratch, version=version
            )
        try:
            async with self._in_flight(shard):
                outcome = await self._relay_route(shard, body, version)
        finally:
            await self._relay_release()
        if isinstance(outcome, dict):
            return encode_frame_into(outcome, scratch, version=version)
        resp_meta, resp_body, resp_version = outcome
        fp_hex = resp_meta.get("fingerprint")
        if resp_meta.get("ok") and isinstance(fp_hex, str):
            self._seed_resident(shard, fp_hex, message, body, version)
        return b"".join(
            (frame_header(len(resp_body), version=resp_version), resp_body)
        )

    def _seed_resident(
        self,
        shard: str,
        fp_hex: str,
        message: dict[str, Any],
        body: bytes,
        version: int,
    ) -> None:
        """Make an acknowledged full the shard's tip, so the next delta
        rides the O(churn) passthrough, and queue it for the standby
        (a v2 full as its own bytes).  A duplicate of the tip — steady
        resends, a second frontend — decodes and replicates nothing."""
        res = self._residents.get(shard)
        if res is not None and res.fp_hex == fp_hex:
            return
        try:
            if version == PROTOCOL_V2:
                message = decode_body(body, version)
            wire = message["instance"]
            # The owner's ok is the validation: it decoded these bytes.
            instance = Instance.trusted(
                np.asarray(wire["sizes"], dtype=np.float64),
                np.asarray(wire["costs"], dtype=np.float64),
                int(wire["num_processors"]),
                np.asarray(wire["initial"], dtype=np.int64),
            )
        except (ProtocolError, KeyError, TypeError, ValueError):
            return  # never let bookkeeping break the relayed reply
        self._residents[shard] = ResidentShard(instance)
        self._enqueue_replication(
            shard, ("full", body if version == PROTOCOL_V2 else None)
        )

    async def _op_rebalance(self, message: dict[str, Any]) -> dict[str, Any]:
        """Client-facing delta rebalance, behind the relay capacity gate
        when one is configured: each request holds a permit for its
        service time *plus* ``relay_delay_s``, so per-process capacity
        is ``relay_concurrency / (service + delay)`` by construction —
        host-core-independent, which is what lets E19 pin worker
        capacity the way ``serve --solve-delay-ms`` pins backend
        capacity.  ``relay_queue`` bounds the waiters; past it the
        router answers ``overloaded`` (bounded p99 instead of an
        unbounded queue).  Full snapshots take the same gate on the
        relay."""
        if not await self._relay_admit():
            return self._relay_rejection()
        try:
            return await self._rebalance_gated(message)
        finally:
            await self._relay_release()

    async def _relay_admit(self) -> bool:
        """Take a relay-capacity permit; ``False`` = reject now (the
        wait queue is full)."""
        gate = self._relay_gate
        if gate is None:
            return True
        if gate.locked() and self._relay_waiters >= self.config.relay_queue:
            self.metrics.add("router.relay_rejections")
            return False
        self._relay_waiters += 1
        try:
            await gate.acquire()
        finally:
            self._relay_waiters -= 1
        return True

    async def _relay_release(self) -> None:
        if self._relay_gate is None:
            return
        if self.config.relay_delay_s > 0:
            await asyncio.sleep(self.config.relay_delay_s)
        self._relay_gate.release()

    def _relay_rejection(self) -> dict[str, Any]:
        return error_response(
            "overloaded",
            retry_after_ms=max(5.0, self.config.relay_delay_s * 1e3),
        )

    async def _rebalance_gated(self, message: dict[str, Any]) -> dict[str, Any]:
        """A delta rides the passthrough when its base is the shard's
        resident tip.  Any other base answers ``unknown base`` and the
        client resends one full snapshot — ``serve``'s own contract."""
        self.metrics.add("router.requests")
        try:
            shard = str(message.get("shard", "default"))
            k = int(message.get("k", 2))
            delta = message.get("delta")
            if not isinstance(delta, dict):
                raise TypeError("delta must be an object")
            base = str(delta.get("base", ""))
        except (TypeError, ValueError) as exc:
            self.metrics.add("router.bad_requests")
            return error_response("bad request", message=str(exc))
        res = self._residents.get(shard)
        if res is None or base != res.fp_hex:
            self.metrics.add("router.delta_misses")
            return error_response("unknown base", shard=shard)
        return await self._op_rebalance_delta(shard, k, message, res, delta)

    async def _op_rebalance_delta(
        self,
        shard: str,
        k: int,
        message: dict[str, Any],
        res: ResidentShard,
        delta: dict[str, Any],
    ) -> dict[str, Any]:
        """The O(churn) passthrough: a delta landing on the resident tip
        is gathered/rolled in O(changed sites), forwarded to the owner
        *as the same frame*, and queued for the standby as that frame
        too — no Instance materializes at the router.  The tip commits
        only after the backend acknowledges, so a failed or rejected
        request leaves the client's base valid for the retry.
        """
        try:
            frame, fp = res.preview(delta)
        except (KeyError, TypeError, ValueError) as exc:
            self.metrics.add("router.bad_requests")
            return error_response("bad request", message=str(exc))
        base_hex = res.fp_hex
        fp_hex = fp.digest().hex()
        self.metrics.add("router.resident_deltas")
        async with self._in_flight(shard):
            response = await self._route_delta_solve(
                shard, k, message, res, frame
            )
        if response.get("ok"):
            response = dict(response)
            response["fingerprint"] = fp_hex
            if res.fp_hex == base_hex:
                # The tip did not move underneath the forward (closed-
                # loop per-shard traffic never does): advance it and
                # replay the identical frame at the standby.
                res.commit(frame, fp)
                self._enqueue_replication(shard, ("delta", delta))
            else:
                # The tip moved underneath the forward (two deltas on
                # one shard raced): this response's fingerprint names a
                # state the resident will never hold, and the frame was
                # neither committed nor replicated.  The client's next
                # delta against it answers ``unknown base`` and resyncs
                # with a full — correct, but worth counting.
                self.metrics.add("router.tip_races")
        return response

    def _post_instance(self, res: ResidentShard, frame: Frame) -> Instance:
        """The post-frame snapshot (uncommitted tip + frame), for the
        full-snapshot degradations of the passthrough path."""
        sizes = res.sizes.copy()
        costs = res.costs.copy()
        initial = res.initial.copy()
        sizes[frame.idx] = frame.sizes
        costs[frame.idx] = frame.costs
        initial[frame.idx] = frame.initial
        return Instance.trusted(sizes, costs, res.num_processors, initial)

    async def _route_delta_solve(
        self,
        shard: str,
        k: int,
        message: dict[str, Any],
        res: ResidentShard,
        frame: Frame,
    ) -> dict[str, Any]:
        """Forward the delta frame verbatim, with the same failover
        replay as the relay.  A backend that lost (or, as a freshly
        promoted standby, never finished absorbing) the lineage answers
        ``unknown base`` and gets the post-frame state as one full
        snapshot instead."""
        forward: dict[str, Any] = {
            "op": "rebalance", "shard": shard, "k": k,
            "delta": message["delta"],
        }
        for key in ("deadline_ms", "moves_only"):
            if key in message:
                forward[key] = message[key]

        async def send(link: BackendLink) -> dict[str, Any]:
            response = await link.call(forward)
            if response.get("error") == "unknown base":
                self.metrics.add("router.delta_fallbacks")
                full = dict(forward)
                del full["delta"]
                full["instance"] = self._post_instance(res, frame).to_wire()
                response = await link.call(full)
            return response

        return await self._route(shard, send)

    # -- replication ----------------------------------------------------
    def _standby_for(self, shard: str) -> str | None:
        owners = self.ring.owners(shard, 2)
        return owners[1] if len(owners) > 1 else None

    def _enqueue_replication(self, shard: str, entry: tuple) -> None:
        """Queue one replication step for the shard's standby.

        ``("delta", wire_delta)`` replays the exact client frame —
        O(churn) at both ends, in commit order (the queue is FIFO and
        one drain task owns it).  ``("full", body)`` ships the tip (see
        :meth:`_replicate_full`); it subsumes everything queued, so it
        clears the queue, and a queue past :data:`REPL_QUEUE_CAP`
        collapses into one — a lagging standby skips intermediate
        states rather than holding an unbounded log.
        """
        if not self.config.replicate:
            return
        if self._standby_for(shard) is None:
            return
        runtime = self._runtime(shard)
        queue = runtime.repl_queue
        if entry[0] == "full":
            queue.clear()
        queue.append(entry)
        if len(queue) > REPL_QUEUE_CAP:
            queue.clear()
            queue.append(("full", None))
            self.metrics.add("router.replication_collapses")
        if runtime.repl_task is None or runtime.repl_task.done():
            runtime.repl_task = asyncio.create_task(self._drain_replication(shard))

    async def _drain_replication(self, shard: str) -> None:
        runtime = self._runtime(shard)
        while runtime.repl_queue:
            if self.config.repl_coalesce_s > 0:
                # Coalescing window: let the decide's response reach the
                # client (and further frames pile up — a backlog past
                # the cap collapses to one full) before waking the
                # standby.  Replication is off the decide's critical
                # path by design; this keeps it off the same *cores*
                # as the response tail too.
                await asyncio.sleep(self.config.repl_coalesce_s)
            entry = runtime.repl_queue.popleft()
            standby = self._standby_for(shard)
            if standby is None:
                runtime.repl_queue.clear()
                return
            link = self._links.get(standby)
            if link is None or standby not in self.ring:
                continue
            kind, payload = entry
            try:
                if kind == "delta":
                    response = await link.call(
                        {"op": "replicate", "shard": shard, "delta": payload}
                    )
                    if (
                        not response.get("ok")
                        and response.get("error") == "unknown base"
                    ):
                        # The standby's tip diverged (fresh standby, or
                        # missed frames): one full of the current tip
                        # subsumes this frame and the rest of the queue.
                        runtime.repl_queue.clear()
                        response = await self._replicate_full(link, shard, None)
                else:
                    response = await self._replicate_full(link, shard, payload)
                if response.get("ok"):
                    self.metrics.add("router.replicated")
                else:
                    self.metrics.add("router.replication_errors")
            except (OSError, ProtocolError, ServiceError, asyncio.TimeoutError):
                # Detection is the health loop's job; replication just
                # records the miss and moves on.
                self.metrics.add("router.replication_errors")

    async def _replicate_full(
        self, link: BackendLink, shard: str, body: bytes | None
    ) -> dict[str, Any]:
        """Ship the shard's tip to ``link`` as one snapshot: the tip's
        relayed v2 request ``body`` re-addressed as a ``replicate`` (no
        decode, no encode), or without one an export of the resident."""
        if body is not None:
            meta, _, _ = await link.relay(replicate_body(body, shard), PROTOCOL_V2)
            return meta
        res = self._residents.get(shard)
        if res is None:
            return error_response("no snapshot", shard=shard)
        return await link.replicate(shard, res.export_instance())

    # -- live migration -------------------------------------------------
    async def migrate(self, shard: str, target: str) -> dict[str, Any]:
        """Move a shard to ``target``: drain, ship the snapshot, flip.

        The gate closes the shard's lane to new requests; once the
        in-flight count drains to zero the resident tip (whose
        fingerprint *is* the warm engine's key) is shipped to the
        target as one ``replicate`` frame, the routing override flips,
        and the gate reopens.
        """
        if target not in self.ring:
            return error_response("unknown backend", backend=target)
        runtime = self._runtime(shard)
        if runtime.gate is not None:
            return error_response("migration in progress", shard=shard)
        source = self._owner(shard)
        gate = runtime.gate = asyncio.Event()
        try:
            if runtime.inflight:
                runtime.drained = asyncio.Event()
                await runtime.drained.wait()
                runtime.drained = None
            snapshot: tuple[str, Instance] | None = None
            res = self._residents.get(shard)
            if res is not None:
                # Materialize-on-demand: the tip lives in the resident
                # arrays, exported only for this migration frame.
                snapshot = (res.fp_hex, res.export_instance())
            elif source is not None:
                snapshot = await self._fetch_latest(source, shard)
            fp_hex = None
            if snapshot is not None:
                fp_hex, instance = snapshot
                response = await self._links[target].replicate(shard, instance)
                if not response.get("ok"):
                    return error_response(
                        "migration failed", shard=shard,
                        message=str(response.get("error")),
                    )
            self._overrides[shard] = target
            self.metrics.add("router.migrations")
            return ok_response(
                op="migrate", shard=shard, source=source,
                target=target, fingerprint=fp_hex,
            )
        finally:
            runtime.gate = None
            gate.set()

    async def _fetch_latest(
        self, node: str, shard: str
    ) -> tuple[str, Instance] | None:
        """Pull the shard's tip from its current owner (the router
        restarted, or never saw the shard's traffic)."""
        link = self._links.get(node)
        if link is None:
            return None
        try:
            response = await link.call({"op": "migrate", "shard": shard})
        except (OSError, ProtocolError, ServiceError, asyncio.TimeoutError):
            return None
        if not response.get("ok") or not response.get("found"):
            return None
        instance = Instance.from_dict(response["instance"])
        return str(response["fingerprint"]), instance

    # -- aggregate ops --------------------------------------------------
    async def _op_status(self) -> dict[str, Any]:
        backends: dict[str, Any] = {}
        for node in self.ring.nodes:
            link = self._links[node]
            try:
                backends[node] = await asyncio.wait_for(
                    link.call({"op": "status"}), self.config.backend_timeout
                )
            except (OSError, ProtocolError, ServiceError, asyncio.TimeoutError) as exc:
                backends[node] = {"ok": False, "error": str(exc)}
        return ok_response(
            router={
                "uptime_s": time.monotonic() - self._started_at,
                "config": self.config.as_dict(),
                "live": self.ring.nodes,
                "dead": sorted(self._dead),
                "overrides": dict(self._overrides),
                "shards": len(self._shards),
                "residents": {
                    name: res.fp_hex for name, res in self._residents.items()
                },
                "metrics": self.metrics.as_dict(),
            },
            backends=backends,
        )

    async def _op_reset(self, message: dict[str, Any]) -> dict[str, Any]:
        shard = message.get("shard")
        reset: set[str] = set()
        for node in self.ring.nodes:
            link = self._links[node]
            try:
                response = await link.call(
                    {"op": "reset"} if shard is None
                    else {"op": "reset", "shard": str(shard)}
                )
            except (OSError, ProtocolError, ServiceError, asyncio.TimeoutError):
                continue
            if response.get("ok"):
                reset.update(response.get("reset", []))
        self._forget(shard)
        return ok_response(reset=sorted(reset))

    def _forget(self, shard: Any) -> None:
        """Drop the router's state for ``shard`` (``None``: every shard)."""
        if shard is None:
            self._residents.clear()
            self._shards.clear()
        else:
            self._residents.pop(str(shard), None)
            self._shards.pop(str(shard), None)

    def _op_health(self) -> dict[str, Any]:
        return ok_response(
            op="health",
            uptime_s=time.monotonic() - self._started_at,
            live=self.ring.nodes,
            dead=sorted(self._dead),
        )

    # -- connection handling --------------------------------------------
    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        if op == "rebalance":
            return await self._op_rebalance(message)
        if op == "status":
            return await self._op_status()
        if op == "reset":
            return await self._op_reset(message)
        if op == "ping":
            return ok_response(op="ping")
        if op == "health":
            return self._op_health()
        if op == "migrate":
            target = message.get("target")
            if target is None:
                return error_response("bad request", message="migrate needs target")
            return await self.migrate(
                str(message.get("shard", "default")), str(target)
            )
        self.metrics.add("router.protocol_errors")
        return error_response("unknown op", op=op)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.add("router.connections")
        # One reusable encode buffer per connection: asyncio's
        # transport copies on write(), so the buffer is free again
        # after the drain.
        scratch = bytearray()
        try:
            while True:
                try:
                    raw = await read_frame_raw(reader)
                except ProtocolError as exc:
                    self.metrics.add("router.protocol_errors")
                    writer.write(encode_frame(error_response(
                        "protocol error", message=str(exc))))
                    await writer.drain()
                    break
                if raw is None:
                    break
                body, version = raw
                writer.write(await self._serve_raw(body, version, scratch))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _serve_raw(
        self, body: bytes, version: int, scratch: bytearray
    ) -> bytes | memoryview:
        """Serve one raw frame body; the response bytes to write.

        A ``rebalance`` or ``migrate`` for a shard served elsewhere gets
        :meth:`_misroute`'s answer.  A full-snapshot ``rebalance`` takes
        the verbatim relay, routed on a v2 body's meta JSON alone
        (:func:`~repro.service.protocol.peek_meta`) or on the one parse
        of a v1 body.  Everything else (deltas, admin ops) decodes and
        dispatches.  Answers go out in the request's format, like the
        single-node server: the router is a drop-in endpoint.
        """
        try:
            if version == PROTOCOL_V2:
                message = peek_meta(body)
            else:
                message = decode_body(body, version)
            op = message.get("op")
            if op in ("rebalance", "migrate"):
                shard = str(message.get("shard", "default"))
                miss = self._misroute(shard)
                if miss is not None:
                    return encode_frame_into(miss, scratch, version=version)
                if op == "rebalance" and message.get("delta") is None:
                    return await self._relay_rebalance(
                        shard, message, body, version, scratch
                    )
            if version == PROTOCOL_V2:
                message = decode_body(body, version)
        except ProtocolError as exc:
            self.metrics.add("router.protocol_errors")
            return encode_frame_into(
                error_response("protocol error", message=str(exc)),
                scratch, version=version,
            )
        response = await self._dispatch(message)
        return encode_frame_into(response, scratch, version=version)


# ----------------------------------------------------------------------
# Background-thread embedding and backend process spawning
# ----------------------------------------------------------------------
class RouterHandle:
    """A router running on a private event loop in a daemon thread."""

    def __init__(
        self,
        router: ClusterRouter,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.router = router
        self._loop = loop
        self._thread = thread
        self.host = router.config.host
        self.port = router.port

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.router.request_stop)
            self._thread.join(timeout)

    def __enter__(self) -> "RouterHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def start_router_background(config: RouterConfig) -> RouterHandle:
    """Start a :class:`ClusterRouter` on a daemon thread; blocks until
    the listener is bound, re-raising any startup failure here."""
    started = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        async def main() -> None:
            router = ClusterRouter(config)
            try:
                await router.start()
            except Exception as exc:
                box["error"] = exc
                started.set()
                return
            box["router"] = router
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await router.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="repro-router", daemon=True)
    thread.start()
    if not started.wait(timeout=60.0):  # pragma: no cover
        raise RuntimeError("router failed to start within 60s")
    if "error" in box:
        raise box["error"]
    return RouterHandle(box["router"], box["loop"], thread)


@dataclass
class ServeProcess:
    """One spawned ``python -m repro serve`` backend."""

    process: subprocess.Popen
    host: str
    port: int
    extra_args: tuple[str, ...] = field(default_factory=tuple)

    def kill(self) -> None:
        """``kill -9``: the failure mode the failover tests inject."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.process.kill()
                self.process.wait(timeout=10.0)


def spawn_serve_process(
    *extra_args: str, host: str = "127.0.0.1", timeout_s: float = 60.0
) -> ServeProcess:
    """Start a real ``serve`` OS process and wait for its port.

    Backends must be processes (not threads) for the cluster to scale
    past one GIL — this is the helper the E17 benchmark, the failover
    tests, and ``loadgen --router N --spawn`` all build on.  The child
    inherits this interpreter and a ``PYTHONPATH`` that can import
    :mod:`repro` from source checkouts.
    """
    return _spawn_port_file_process("serve", extra_args, host, timeout_s)


def spawn_router_process(
    backends: tuple[BackendSpec, ...],
    *extra_args: str,
    host: str = "127.0.0.1",
    timeout_s: float = 60.0,
) -> ServeProcess:
    """Start a real ``router`` OS process over already-running backends.

    :func:`start_router_background` runs the router on a daemon thread
    *inside the caller's interpreter* — fine for failover tests, but a
    loadgen driving many shard streams from that same interpreter then
    shares its GIL with every forward the router makes, and each hop
    waits on the client's own numpy work.  Latency benchmarks (E18)
    must therefore spawn the router exactly as a deployment does: its
    own process, like the backends.
    """
    spec_arg = ",".join(f"{b.name}={b.host}:{b.port}" for b in backends)
    return _spawn_port_file_process(
        "router", ("--backends", spec_arg, *extra_args), host, timeout_s
    )


def _spawn_port_file_process(
    command: str, extra_args: tuple[str, ...], host: str, timeout_s: float
) -> ServeProcess:
    port_file = Path(
        tempfile.mkstemp(prefix=f"repro-{command}-", suffix=".port")[1]
    )
    port_file.write_text("")
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", command,
            "--host", host, "--port", "0",
            "--port-file", str(port_file),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                return ServeProcess(
                    process=process, host=host, port=int(text),
                    extra_args=extra_args,
                )
            if process.poll() is not None:
                raise RuntimeError(
                    f"{command} process exited with "
                    f"{process.returncode} before binding"
                )
            if time.monotonic() > deadline:
                process.kill()
                raise RuntimeError(f"{command} process did not bind in time")
            time.sleep(0.02)
    finally:
        port_file.unlink(missing_ok=True)
