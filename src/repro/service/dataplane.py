"""The sharded multi-process router data plane.

PR 7/8's :class:`~repro.service.cluster.ClusterRouter` is one asyncio
process: every solve, delta, and replication frame crosses one event
loop and one GIL, so router throughput caps the whole cluster no
matter how many backends exist behind it.  This module splits it::

    control plane (1 process)      data plane (N worker processes)
    ─────────────────────────      ────────────────────────────────
    backend health probing         accept on the SHARED port
    death declaration              own a disjoint crc32 subset of
    worker respawn (kill -9)         shards' resident tips
    peer-table broadcast           O(churn) delta passthrough
                                   zero-materialization full relay

* **Shard→worker affinity** is ``crc32(shard) % workers`` — the same
  hash family as :class:`~repro.service.cluster.HashRing` — so each
  worker's resident tips (:class:`~repro.service.resident.ResidentShard`)
  need no cross-process coordination: exactly one worker ever touches
  a shard.
* **The shared port** uses ``SO_REUSEPORT`` where available: every
  worker binds + listens on the same address and the kernel spreads
  incoming connections across them.  The control plane binds the port
  *without listening* — that reserves the address (and pins the
  ephemeral port for ``port=0``) while guaranteeing it never absorbs a
  connection.  Platforms without ``SO_REUSEPORT`` fall back to one
  inherited listening socket whose accept queue the workers share.
* **The ``moved`` redirect**: a client whose shard hashes to another
  worker gets ``{"error": "moved", "port": <direct port>}`` and
  reconnects to the owner's private port (cached per shard in
  ``_WireState.ports``; a stale cache entry falls back to the shared
  port on transport failure, which re-redirects).
* **The hot path is a relay**, in every topology (it is
  :class:`~repro.service.cluster.ClusterRouter`'s one request path): a
  full-snapshot ``rebalance`` is routed on its shard alone (a v2 meta
  JSON peeked by :func:`~repro.service.protocol.peek_meta`, a v1 body
  parsed once), the raw body is forwarded to the backend verbatim, and
  the backend's raw response is relayed back verbatim.  No
  ``Instance`` is validated or re-encoded; only an acknowledged
  fingerprint that is not the tip seeds the resident, so the next
  delta rides the O(churn) passthrough, and reaches the standby as the
  same v2 bytes re-addressed.  Responses the router builds itself
  reuse one preallocated encode buffer per connection
  (:func:`~repro.service.protocol.encode_frame_into`).
* **Control decisions** travel over spawn-context pipes
  (:func:`~repro.parallel.spawn_piped_process`): the control plane
  broadcasts backend deaths and the worker-port table; workers report
  inline transport deaths up so peers hear about them.  A worker that dies (kill -9) is respawned on
  the same index — its shard subset is a pure function of the index —
  and the peer table is rebroadcast; until then peers answer brief
  ``overloaded`` backpressure for its shards instead of redirecting to
  a dead port.
* **`status` stays one coherent view**: the worker that receives it
  merges every peer's ``router.*`` metrics via
  :meth:`repro.telemetry.Collector.merge` and reports per-worker
  pids/ports (which is how the loadgen's kill-router-worker fault
  injection picks its victim).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Any
from zlib import crc32

from .. import telemetry
from ..parallel import spawn_piped_process
from .client import AsyncServiceClient, ServiceClient, ServiceError
from .cluster import BackendLink, ClusterRouter, RouterConfig
from .protocol import ProtocolError, error_response, ok_response

__all__ = [
    "RouterWorker",
    "ShardedRouter",
    "default_router_workers",
    "start_sharded_router",
    "worker_for",
]

# Listen backlog of the shared socket (fd-fallback mode) and of each
# worker's SO_REUSEPORT socket (asyncio's default backlog applies
# there); generous because a loadgen opens its fan-out at once.
_ACCEPT_BACKLOG = 256

# retry_after_ms answered for a shard whose owning worker is mid-
# respawn: long enough that a client's bounded retry budget spans the
# respawn, short enough to stay invisible next to the respawn itself.
_RESPAWN_RETRY_MS = 200.0


def default_router_workers() -> int:
    """``min(4, cores)`` — the data plane's default width."""
    return max(1, min(4, os.cpu_count() or 1))


def worker_for(shard: str, count: int) -> int:
    """The data-plane worker index owning ``shard`` (crc32 affinity,
    the same hash family as the ring).

    The digest is XOR-folded before the modulus: crc32's low bits are
    insensitive to low-bit changes in the trailing bytes (``"s-0"`` …
    ``"s-3"`` all share a parity), so a tiny modulus over the raw
    digest would pin every shard of a ``{base}-{i}`` family to one
    worker.  Folding the high half in restores per-suffix spread.
    """
    if count <= 1:
        return 0
    digest = crc32(shard.encode("utf-8"))
    return (digest ^ (digest >> 16)) % count


def _pipe_send(conn, message: dict[str, Any]) -> None:
    conn.send_bytes(json.dumps(message).encode("utf-8"))


# ----------------------------------------------------------------------
# Data-plane worker
# ----------------------------------------------------------------------
class RouterWorker(ClusterRouter):
    """One data-plane process: a :class:`ClusterRouter` that owns the
    crc32-affine subset ``worker_for(shard, count) == index`` and
    relays everything else with a ``moved`` redirect.

    Differences from the single-process router: no health loop (the
    control plane probes and broadcasts deaths), a second *direct*
    listener for redirected clients and peer ops, the ``moved``
    redirect (:meth:`_misroute`), and merged ``status``/fanned
    ``reset``.  The request path itself — the verbatim relay of full
    snapshots and the O(churn) delta passthrough — is the base
    class's.
    """

    def __init__(
        self,
        config: RouterConfig,
        index: int,
        count: int,
        *,
        parent_conn=None,
        shared_port: int | None = None,
        listen_sock: socket.socket | None = None,
    ) -> None:
        super().__init__(config)
        self.index = index
        self.count = count
        # Worker index -> direct port; None = that worker is down
        # (mid-respawn) and its shards get backpressure, not redirects.
        self.peer_ports: dict[int, int | None] = {}
        self._parent_conn = parent_conn
        self._shared_port = shared_port
        self._listen_sock = listen_sock
        self._direct_server: asyncio.AbstractServer | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def direct_port(self) -> int:
        if self._direct_server is None or not self._direct_server.sockets:
            raise RuntimeError("worker is not listening")
        return self._direct_server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("router already started")
        self._stop_event = asyncio.Event()
        for spec in self.config.backends:
            self._links[spec.name] = BackendLink(spec, self.config)
        if self._listen_sock is not None:
            # Inherited-fd fallback: every worker holds a dup of one
            # listening socket, sharing its accept queue.
            self._listen_sock.setblocking(False)
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._listen_sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.config.host, self._shared_port,
                reuse_port=True, backlog=_ACCEPT_BACKLOG,
            )
        self._direct_server = await asyncio.start_server(
            self._handle_connection, self.config.host, 0
        )
        self._started_at = time.monotonic()
        # Deliberately no _health_loop task: death declaration is the
        # control plane's job (one prober, not N).

    async def stop(self) -> None:
        if self._direct_server is not None:
            self._direct_server.close()
            await self._direct_server.wait_closed()
            self._direct_server = None
        await super().stop()

    # -- control-plane messages -----------------------------------------
    def apply_control(self, message: dict[str, Any]) -> None:
        op = message.get("op")
        if op == "peers":
            self.peer_ports = {
                int(index): (int(port) if port is not None else None)
                for index, port in message.get("ports", {}).items()
            }
        elif op == "dead":
            self._mark_dead(str(message.get("node")), "control")
        elif op == "stop":
            self.request_stop()

    def _mark_dead(self, node: str, reason: str) -> None:
        if node in self._dead or node not in self._specs:
            return
        super()._mark_dead(node, reason)
        if reason != "control" and self._parent_conn is not None:
            # Inline transport detection: tell the control plane so it
            # rebroadcasts to the peers (their rings must agree).
            try:
                _pipe_send(self._parent_conn, {"op": "dead", "node": node})
            except (OSError, ValueError):  # pragma: no cover - parent gone
                pass

    # -- shard ownership ------------------------------------------------
    def _misroute(self, shard: str) -> dict[str, Any] | None:
        """``None`` when this worker owns the shard; otherwise the
        redirect (or backpressure) response to answer instead."""
        owner = worker_for(shard, self.count)
        if owner == self.index:
            return None
        self.metrics.add("router.moved")
        port = self.peer_ports.get(owner)
        if port is None:
            return error_response(
                "overloaded", shard=shard, retry_after_ms=_RESPAWN_RETRY_MS
            )
        return error_response("moved", shard=shard, port=port)

    # -- dispatch / aggregate ops ---------------------------------------
    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        if op == "worker-status":
            return self._op_worker_status()
        if op == "worker-reset":
            return self._op_worker_reset(message)
        return await super()._dispatch(message)

    def _worker_info(self) -> dict[str, Any]:
        return {
            "index": self.index, "pid": os.getpid(),
            "port": self.direct_port,
        }

    def _op_worker_status(self) -> dict[str, Any]:
        """This worker's slice, for a peer assembling the merged view."""
        return ok_response(router={
            "shards": len(self._shards),
            "residents": {
                name: res.fp_hex for name, res in self._residents.items()
            },
            "overrides": dict(self._overrides),
            "metrics": self.metrics.as_dict(),
            "worker": self._worker_info(),
        })

    def _op_worker_reset(self, message: dict[str, Any]) -> dict[str, Any]:
        """Local-only state clear; the initiating worker already reset
        the backends once."""
        self._forget(message.get("shard"))
        return ok_response(op="worker-reset")

    async def _peer_call(
        self, port: int, message: dict[str, Any]
    ) -> dict[str, Any]:
        client = AsyncServiceClient(
            self.config.host, port,
            timeout=self.config.backend_timeout, retries=0,
        )
        try:
            return await client.call(message)
        finally:
            await client.close()

    async def _op_status(self) -> dict[str, Any]:
        """The merged view: own slice + every peer's, one coherent
        ``router.*`` metrics dict via :meth:`Collector.merge`."""
        base = await super()._op_status()
        router = base["router"]
        merged = telemetry.Collector()
        merged.merge(self.metrics.as_dict())
        shards = len(self._shards)
        residents = dict(router["residents"])
        overrides = dict(router["overrides"])
        workers: dict[str, Any] = {str(self.index): self._worker_info()}
        for index in range(self.count):
            if index == self.index:
                continue
            port = self.peer_ports.get(index)
            if port is None:
                workers[str(index)] = {"index": index, "pid": None, "port": None}
                continue
            try:
                response = await asyncio.wait_for(
                    self._peer_call(port, {"op": "worker-status"}),
                    self.config.backend_timeout,
                )
                peer = response["router"]
            except (OSError, ProtocolError, ServiceError,
                    asyncio.TimeoutError, KeyError) as exc:
                workers[str(index)] = {
                    "index": index, "port": port, "error": str(exc),
                }
                continue
            merged.merge(peer.get("metrics", {}))
            shards += int(peer.get("shards", 0))
            residents.update(peer.get("residents", {}))
            overrides.update(peer.get("overrides", {}))
            workers[str(index)] = peer.get(
                "worker", {"index": index, "port": port}
            )
        router["metrics"] = merged.as_dict()
        router["shards"] = shards
        router["residents"] = residents
        router["overrides"] = overrides
        router["workers"] = workers
        router["worker"] = self._worker_info()
        return base

    async def _op_reset(self, message: dict[str, Any]) -> dict[str, Any]:
        """Reset the backends once (super), then fan a local-only
        clear to every peer."""
        response = await super()._op_reset(message)
        fan: dict[str, Any] = {"op": "worker-reset"}
        if message.get("shard") is not None:
            fan["shard"] = str(message["shard"])
        for index in range(self.count):
            if index == self.index:
                continue
            port = self.peer_ports.get(index)
            if port is None:
                continue
            try:
                await self._peer_call(port, fan)
            except (OSError, ProtocolError, ServiceError, asyncio.TimeoutError):
                continue
        return response


# ----------------------------------------------------------------------
# Worker process main
# ----------------------------------------------------------------------
async def _worker_serve(
    conn, index: int, count: int, config: RouterConfig,
    shared_port: int | None, listen_sock: socket.socket | None,
) -> None:
    worker = RouterWorker(
        config, index, count,
        parent_conn=conn, shared_port=shared_port, listen_sock=listen_sock,
    )
    await worker.start()
    loop = asyncio.get_running_loop()

    def on_parent_message() -> None:
        try:
            while conn.poll(0):
                payload = conn.recv_bytes()
                if not payload:
                    raise EOFError
                worker.apply_control(json.loads(payload.decode("utf-8")))
        except (EOFError, OSError):
            # Parent gone: an orphaned data plane must not outlive the
            # control plane that owns its port.
            try:
                loop.remove_reader(conn.fileno())
            except (OSError, ValueError):
                pass
            worker.request_stop()

    loop.add_reader(conn.fileno(), on_parent_message)
    _pipe_send(conn, {
        "op": "ready", "index": index,
        "port": worker.direct_port, "pid": os.getpid(),
    })
    try:
        await worker.serve_forever()
    finally:
        try:
            loop.remove_reader(conn.fileno())
        except (OSError, ValueError):
            pass


def _worker_main(
    conn, index: int, count: int, config: RouterConfig,
    shared_port: int | None, listen_sock: socket.socket | None,
) -> None:
    """Spawn target of one data-plane worker process."""
    # The control plane owns orderly shutdown (a "stop" pipe message);
    # a terminal's ^C must not race it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(
            _worker_serve(conn, index, count, config, shared_port, listen_sock)
        )
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------
class ShardedRouter:
    """The control plane: spawns/respawns the data-plane workers,
    probes backend health, and broadcasts ring-changing decisions.

    Plain threads and blocking pipes — the control plane is off every
    hot path, and :func:`multiprocessing.connection.wait` over the
    worker pipes *and* process sentinels gives it both inline death
    reports and kill -9 detection from one select loop.
    """

    def __init__(
        self,
        config: RouterConfig,
        workers: int = 0,
        *,
        reuse_port: bool | None = None,
    ) -> None:
        if workers <= 0:
            workers = default_router_workers()
        self.config = config
        self.workers = workers
        self.respawns = 0
        self._reuse_port = (
            reuse_port if reuse_port is not None
            else hasattr(socket, "SO_REUSEPORT")
        )
        self._shared_sock: socket.socket | None = None
        self._procs: list[Any] = [None] * workers
        self._conns: list[Any] = [None] * workers
        self._ports: dict[int, int | None] = {i: None for i in range(workers)}
        self._pids: dict[int, int | None] = {i: None for i in range(workers)}
        self._dead: set[str] = set()
        self._misses: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        if self._shared_sock is None:
            raise RuntimeError("sharded router is not listening")
        return self._shared_sock.getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    def worker_pids(self) -> dict[int, int | None]:
        return dict(self._pids)

    def start(self, timeout_s: float = 60.0) -> "ShardedRouter":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if self._reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((self.config.host, self.config.port))
                # Deliberately NOT listening: the bind reserves the
                # address (and pins an ephemeral port) while the kernel
                # spreads connections over the *listening* worker
                # sockets only.
            else:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((self.config.host, self.config.port))
                sock.listen(_ACCEPT_BACKLOG)
        except BaseException:
            sock.close()
            raise
        self._shared_sock = sock
        try:
            for index in range(self.workers):
                self._spawn_worker(index, timeout_s)
        except BaseException:
            self.stop()
            raise
        self._broadcast_peers()
        self._thread = threading.Thread(
            target=self._control_loop, name="repro-router-control", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=timeout_s)
        self._thread = None
        self._broadcast({"op": "stop"})
        for index, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=timeout_s)
            if proc.is_alive():  # pragma: no cover - orderly stop hung
                proc.terminate()
                proc.join(timeout=timeout_s)
            self._procs[index] = None
        for index, conn in enumerate(self._conns):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                self._conns[index] = None
        if self._shared_sock is not None:
            self._shared_sock.close()
            self._shared_sock = None

    def __enter__(self) -> "ShardedRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- worker management ----------------------------------------------
    def _spawn_worker(self, index: int, timeout_s: float = 60.0) -> None:
        if self._reuse_port:
            proc, conn = spawn_piped_process(
                _worker_main, index, self.workers, self.config,
                self.port, None,
            )
        else:
            # The listening socket rides the spawn pickling
            # (multiprocessing.reduction dups the fd into the child).
            proc, conn = spawn_piped_process(
                _worker_main, index, self.workers, self.config,
                None, self._shared_sock,
            )
        payload = None
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if conn.poll(0.1):
                try:
                    payload = conn.recv_bytes()
                except (EOFError, OSError):
                    payload = None
                break
            if not proc.is_alive():
                break
        message = json.loads(payload.decode("utf-8")) if payload else {}
        if message.get("op") != "ready":
            conn.close()
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10.0)
            raise RuntimeError(f"router worker {index} failed to start")
        self._procs[index] = proc
        self._conns[index] = conn
        self._ports[index] = int(message["port"])
        self._pids[index] = int(message.get("pid") or proc.pid)
        # A (re)spawned worker needs the deaths it missed: its ring
        # must agree with the peers'.
        for node in sorted(self._dead):
            try:
                _pipe_send(conn, {"op": "dead", "node": node})
            except (OSError, ValueError):  # pragma: no cover
                pass

    def _respawn(self, index: int) -> None:
        """A worker died (kill -9, crash): drop it from the peer table
        immediately — peers answer brief backpressure for its shards
        instead of redirecting to a dead port — then respawn on the
        same index (the shard subset is a pure function of the index)
        and rebroadcast."""
        conn = self._conns[index]
        proc = self._procs[index]
        self._conns[index] = None
        self._procs[index] = None
        self._ports[index] = None
        self._pids[index] = None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10.0)
        if self._stop.is_set():
            return
        self._broadcast_peers()
        self.respawns += 1
        try:
            self._spawn_worker(index)
        except RuntimeError:  # pragma: no cover - degraded but alive
            return
        self._broadcast_peers()

    # -- broadcasts -----------------------------------------------------
    def _broadcast(self, message: dict[str, Any]) -> None:
        for conn in self._conns:
            if conn is None:
                continue
            try:
                _pipe_send(conn, message)
            except (OSError, ValueError, BrokenPipeError):
                continue

    def _broadcast_peers(self) -> None:
        self._broadcast({
            "op": "peers",
            "ports": {str(i): p for i, p in self._ports.items()},
        })

    def _declare_dead(self, node: str) -> None:
        if node in self._dead:
            return
        self._dead.add(node)
        self._broadcast({"op": "dead", "node": node})

    # -- the control loop -----------------------------------------------
    def _control_loop(self) -> None:
        probes = {
            spec.name: ServiceClient(
                spec.host, spec.port,
                timeout=self.config.health_timeout_s, retries=0,
            )
            for spec in self.config.backends
        }
        try:
            next_health = time.monotonic() + self.config.health_interval_s
            while not self._stop.is_set():
                handles: dict[Any, int] = {}
                for index, conn in enumerate(self._conns):
                    if conn is not None:
                        handles[conn] = index
                for index, proc in enumerate(self._procs):
                    if proc is not None:
                        handles[proc.sentinel] = index
                timeout = min(0.25, max(0.01, next_health - time.monotonic()))
                try:
                    ready = mp_connection.wait(list(handles), timeout=timeout)
                except OSError:  # pragma: no cover - handle died mid-wait
                    ready = []
                down: set[int] = set()
                for handle in ready:
                    index = handles.get(handle)
                    if index is None or index in down:
                        continue
                    conn = self._conns[index]
                    if handle is conn:
                        try:
                            while conn.poll(0):
                                payload = conn.recv_bytes()
                                if not payload:
                                    raise EOFError
                                self._on_worker_message(
                                    index,
                                    json.loads(payload.decode("utf-8")),
                                )
                        except (EOFError, OSError):
                            down.add(index)
                    else:
                        down.add(index)  # sentinel: the process exited
                for index in down:
                    self._respawn(index)
                if time.monotonic() >= next_health:
                    next_health = (
                        time.monotonic() + self.config.health_interval_s
                    )
                    self._probe_backends(probes)
        finally:
            for client in probes.values():
                client.close()

    def _on_worker_message(self, index: int, message: dict[str, Any]) -> None:
        if message.get("op") == "dead":
            # One worker saw a transport failure: every peer's ring
            # must follow (the broadcast reaches the reporter too;
            # _mark_dead is idempotent there).
            self._declare_dead(str(message.get("node")))

    def _probe_backends(self, probes: dict[str, ServiceClient]) -> None:
        for spec in self.config.backends:
            if spec.name in self._dead:
                continue
            try:
                alive = bool(
                    probes[spec.name].call({"op": "health"}).get("ok")
                )
            except (OSError, ProtocolError, ServiceError):
                alive = False
            if alive:
                self._misses[spec.name] = 0
            else:
                self._misses[spec.name] = self._misses.get(spec.name, 0) + 1
                if self._misses[spec.name] >= self.config.health_misses:
                    self._declare_dead(spec.name)


def start_sharded_router(
    config: RouterConfig, workers: int = 0, *, reuse_port: bool | None = None
) -> ShardedRouter:
    """Start a control plane + ``workers`` data-plane processes; blocks
    until every worker accepts.  The returned handle is a context
    manager whose ``port`` is the shared client-facing port."""
    return ShardedRouter(config, workers, reuse_port=reuse_port).start()
