"""The asyncio rebalancing server.

``queue → batcher → engine pool``: connections are parsed on the event
loop, admitted into the bounded :class:`~repro.service.admission.AdmissionQueue`,
drained by the :class:`~repro.service.batching.MicroBatcher`, and solved
by per-shard warm :class:`~repro.core.engine.RebalanceEngine` instances,
so every shard's epoch stream hits the threshold-table and fingerprint
caches exactly as an in-process engine would.  The event loop never
blocks on a solve: each batch is one ``run_in_executor`` hop to the
solve thread, which fans independent shard lanes out via
:func:`repro.parallel.run_sweep` worker threads.

Every request takes one path, the resident one
(:mod:`repro.service.resident`): each shard keeps its snapshot as
resident arrays plus a rolling fingerprint.  A full snapshot (re)seeds
the resident; a delta frame whose ``base`` is the resident tip is
applied in O(changed sites) and reaches the engine as a churn hint; a
delta on any other base answers ``unknown base`` and the client resends
one full snapshot.  Multi-core scale-out lives one layer up: the
cluster router (:mod:`repro.service.cluster`) spreads shards over N
``serve`` processes by crc32 shard affinity.

The server speaks both wire formats of :mod:`repro.service.protocol`
(v1 length-prefixed JSON and v2 binary with delta frames) on one port
and answers each request in the format it arrived in.

Decisions are byte-identical to in-process
:func:`repro.core.partition.m_partition_rebalance` calls on the same
snapshots (the engine's transparent-acceleration contract, plus the
batcher's dedupe only collapsing byte-identical snapshots); the
end-to-end websim differential test pins this across v1-JSON,
v2-binary, and v2-delta transports.

:class:`ServerConfig.naive` is the control: batch size 1, no dedupe,
no warm engine — every decide is a from-scratch ``m_partition_rebalance``
on the resident arrays, the one-request-per-solve server benchmark E14
measures against.
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any

from .. import telemetry
from ..core.engine import RebalanceEngine, snapshot_fingerprint
from ..core.instance import Instance
from ..core.partition import m_partition_rebalance
from ..core.result import RebalanceResult
from ..parallel import run_sweep
from .admission import AdmissionQueue, PendingRequest
from .batching import BatchConfig, MicroBatcher, ShardLane, UniqueSolve
from .resident import ResidentShard, SolveResident
from .protocol import (
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    read_frame_versioned,
)

__all__ = [
    "RebalanceServer",
    "ServerConfig",
    "ServerHandle",
    "ShardState",
    "start_background",
]


@dataclass(frozen=True)
class ServerConfig:
    """Everything the service's behavior depends on."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; read it back from Server.port
    max_batch: int = 16
    max_wait_ms: float = 2.0
    dedupe: bool = True
    use_engine: bool = True
    max_queue: int = 128
    solver_workers: int = 4
    engine_cache_size: int = 64
    # Event-loop response memo: a repeated ``(shard, k, fingerprint,
    # moves_only)`` decide answers without admission, batching or a
    # solve-thread hop — the steady-state fast path that keeps p50 at
    # loop latency when the cluster barely changes.  0 disables.
    decision_cache_size: int = 128
    # Synthetic per-solve service-time floor: each solve sleeps this
    # long on the solve thread after computing.  Sleeping releases the
    # GIL and the core, so a node's capacity becomes ~1/(solve + floor)
    # regardless of host CPU — the knob capacity-pinned benchmarks
    # (E17) use to measure *cluster* scale-out on machines with fewer
    # cores than backend processes.
    solve_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.decision_cache_size < 0:
            raise ValueError("decision_cache_size must be non-negative")
        if self.solve_delay_s < 0:
            raise ValueError("solve_delay_s must be non-negative")

    @classmethod
    def naive(cls, **overrides: Any) -> "ServerConfig":
        """The one-request-per-solve control server: no batching, no
        dedupe, no warm engine — every request is a from-scratch
        ``m_partition_rebalance`` call."""
        return replace(
            cls(
                max_batch=1, dedupe=False, use_engine=False,
                decision_cache_size=0,
            ),
            **overrides,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "dedupe": self.dedupe,
            "use_engine": self.use_engine,
            "max_queue": self.max_queue,
            "solver_workers": self.solver_workers,
            "engine_cache_size": self.engine_cache_size,
            "decision_cache_size": self.decision_cache_size,
            "solve_delay_s": self.solve_delay_s,
        }


@dataclass
class ShardState:
    """One named shard: a move budget and (optionally) a warm engine."""

    name: str
    k: int
    engine: RebalanceEngine | None
    decisions: int = 0

    def stats(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "decisions": self.decisions,
            "engine": self.engine.stats.as_dict() if self.engine else None,
        }


def _get_shard_state(
    shards: dict[str, ShardState],
    name: str,
    k: int,
    use_engine: bool,
    engine_cache_size: int,
) -> tuple[ShardState, bool]:
    """The shard's state, (re)building its engine on a ``k`` change.

    An engine is pinned to one move budget; a request that switches a
    shard's ``k`` retires the warm engine and starts cold (counted in
    ``service.shard_rebuilds`` — keep per-``k`` streams on separate
    shards to avoid the churn).  Returns ``(state, rebuilt)``.
    """
    state = shards.get(name)
    rebuilt = False
    if state is None:
        state = ShardState(
            name=name,
            k=k,
            engine=RebalanceEngine(k=k, cache_size=engine_cache_size)
            if use_engine else None,
        )
        shards[name] = state
    elif state.k != k:
        rebuilt = True
        state.k = k
        if use_engine:
            state.engine = RebalanceEngine(k=k, cache_size=engine_cache_size)
    return state, rebuilt


def _result_response(state: ShardState, result: RebalanceResult) -> dict[str, Any]:
    return ok_response(
        mapping=result.assignment.mapping,
        guessed_opt=float(result.guessed_opt),
        planned_moves=int(result.planned_moves),
        algorithm=result.algorithm,
        shard=state.name,
    )


def _moves_response(
    state: ShardState, result: RebalanceResult, instance: Instance
) -> dict[str, Any]:
    """Compact response form: the moved sites instead of the mapping.

    O(moves) on the wire instead of O(n) — at a million sites the full
    mapping is the response's dominant cost.  The client reconstructs
    ``mapping = initial.copy(); mapping[moves_idx] = moves_to``.
    """
    mapping = result.assignment.mapping
    # O(moves) when the solver cached its relocation set; identical to
    # the flatnonzero diff (ascending actual relocations) either way.
    moved = result.assignment.moved_jobs
    return ok_response(
        moves_idx=moved,
        moves_to=mapping[moved],
        num_jobs=int(mapping.shape[0]),
        guessed_opt=float(result.guessed_opt),
        planned_moves=int(result.planned_moves),
        algorithm=result.algorithm,
        shard=state.name,
    )


class RebalanceServer:
    """Dual-protocol TCP server around a pool of shard engines."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.metrics = telemetry.Collector()
        self.shards: dict[str, ShardState] = {}
        self.queue = AdmissionQueue(self.config.max_queue, self.metrics)
        self.batcher = MicroBatcher(
            self.queue,
            BatchConfig(
                max_batch=self.config.max_batch,
                max_wait_ms=self.config.max_wait_ms,
                dedupe=self.config.dedupe,
            ),
            self.metrics,
        )
        # Resident shard plane: per-shard writable arrays + rolling
        # fingerprint on the event loop, their solve-thread mirrors, and
        # an event-loop response memo keyed by ``(shard, k, fingerprint
        # hex, moves_only)``.
        self._residents: dict[str, ResidentShard] = {}
        self._solve_residents: dict[str, SolveResident] = {}  # solve thread
        self._responses: OrderedDict[
            tuple[str, int, str, bool], dict[str, Any]
        ] = OrderedDict()
        self._server: asyncio.AbstractServer | None = None
        self._batch_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._stop_event: asyncio.Event | None = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (only meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind, start accepting connections, and start the batch loop."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()
        self._batch_task = asyncio.create_task(self._batch_loop())

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return (same-loop callers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Block until :meth:`request_stop`, then shut down cleanly."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, fail queued work, and release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
            self._batch_task = None
        # Fail anything still queued so no handler awaits forever.
        for request in self.queue.drain_nowait():
            if not request.future.done():
                request.future.set_result(error_response("shutting down"))
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.add("service.connections")
        try:
            while True:
                try:
                    frame = await read_frame_versioned(reader)
                except ProtocolError as exc:
                    self.metrics.add("service.protocol_errors")
                    writer.write(encode_frame(error_response(
                        "protocol error", message=str(exc))))
                    await writer.drain()
                    break
                if frame is None:
                    break
                message, version = frame
                response = await self._dispatch(message)
                # Answer in the format the request arrived in: implicit
                # per-frame negotiation, old JSON clients never see v2.
                writer.write(encode_frame(response, version=version))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

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
        if op == "replicate":
            return self._op_replicate(message)
        if op == "migrate":
            return self._op_migrate(message)
        self.metrics.add("service.protocol_errors")
        return error_response("unknown op", op=op)

    def _tip_for(self, shard: str, delta: dict[str, Any]) -> ResidentShard | None:
        """The shard's resident when ``delta`` is based on its tip.

        ``None`` (counted in ``service.delta_misses``) is not an error
        in the protocol sense: the client holds a fingerprint that is
        not (or no longer) this server's tip for the shard, and falls
        back to one full snapshot.
        """
        res = self._residents.get(shard)
        if res is not None and str(delta.get("base", "")) == res.fp_hex:
            return res
        self.metrics.add("service.delta_misses")
        return None

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _op_rebalance(self, message: dict[str, Any]) -> dict[str, Any]:
        self.metrics.add("service.requests")
        try:
            shard = str(message.get("shard", "default"))
            k = int(message.get("k", 2))
            if k < 0:
                raise ValueError("k must be non-negative")
            # Deadline parsing lives inside the guarded block: a
            # non-numeric deadline is a bad request, not a connection-
            # killing TypeError.
            deadline_ms = message.get("deadline_ms")
            if deadline_ms is not None:
                if isinstance(deadline_ms, bool) or not isinstance(
                    deadline_ms, (int, float)
                ):
                    raise ValueError("deadline_ms must be a number")
                deadline_ms = float(deadline_ms)
                if not math.isfinite(deadline_ms):
                    raise ValueError("deadline_ms must be finite")
            moves_only = bool(message.get("moves_only", False))
            delta = message.get("delta")
            if delta is not None:
                res = self._tip_for(shard, delta)
                if res is None:
                    return error_response("unknown base", shard=shard)
                # The O(churn) path: the delta lands on the resident
                # tip — no Instance is ever built.
                return await self._resident_delta(
                    shard, k, deadline_ms, moves_only, res, delta
                )
            instance = Instance.from_dict(message["instance"])
            fingerprint = snapshot_fingerprint(instance)
        except (KeyError, TypeError, ValueError) as exc:
            self.metrics.add("service.bad_requests")
            return error_response("bad request", message=str(exc))
        return await self._resident_full(
            shard, k, deadline_ms, moves_only, instance, fingerprint
        )

    # ------------------------------------------------------------------
    # Resident request paths
    # ------------------------------------------------------------------
    def _memo_hit(
        self,
        key: tuple[str, int, str, bool],
        started: float,
        loop: asyncio.AbstractEventLoop,
    ) -> dict[str, Any] | None:
        """Event-loop response-memo lookup; annotates a hit in place."""
        if not self.config.decision_cache_size:
            return None
        cached = self._responses.get(key)
        if cached is None:
            return None
        self._responses.move_to_end(key)
        self.metrics.add("service.decision_hits")
        self.metrics.add("service.ok")
        self.metrics.observe("service.latency_ms", 1e3 * (loop.time() - started))
        response = dict(cached)
        response["fingerprint"] = key[2]
        return response

    async def _await_resident(
        self, request: PendingRequest, fp_hex: str
    ) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        response = await request.future
        self.metrics.observe(
            "service.latency_ms", 1e3 * (loop.time() - request.enqueued_at)
        )
        if response.get("ok"):
            self.metrics.add("service.ok")
            # The fingerprint names this snapshot as a future delta
            # base.  Copy before annotating: deduped requests share one
            # response object.
            response = dict(response)
            response["fingerprint"] = fp_hex
        return response

    async def _resident_delta(
        self,
        shard: str,
        k: int,
        deadline_ms: float | None,
        moves_only: bool,
        res: ResidentShard,
        delta: dict[str, Any],
    ) -> dict[str, Any]:
        """Apply a wire delta straight onto the shard's resident arrays.

        O(changed sites) on the event loop: gather the old values,
        roll the fingerprint, and ship the frame — never an Instance —
        to the solve plane.  The commit happens only after admission
        (or a memo hit), so a rejected request leaves the tip unchanged
        and the client's retry of the same delta still resolves.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        try:
            frame, fp = res.preview(delta)
        except (KeyError, TypeError, ValueError) as exc:
            self.metrics.add("service.bad_requests")
            return error_response("bad request", message=str(exc))
        fingerprint = fp.digest()
        fp_hex = fingerprint.hex()
        self.metrics.add("service.delta_applied")
        self.metrics.add("service.resident_deltas")
        hit = self._memo_hit((shard, k, fp_hex, moves_only), now, loop)
        if hit is not None:
            # The decision is known but the state still advanced: commit
            # the frame and park it for the next admitted request.
            res.commit(frame, fp)
            res.defer(frame)
            return hit
        request = PendingRequest(
            shard=shard,
            k=k,
            instance=None,
            fingerprint=fingerprint,
            enqueued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
            future=loop.create_future(),
            moves_only=moves_only,
        )
        if not self.queue.try_submit(request):
            return error_response(
                "overloaded", retry_after_ms=self.queue.retry_after_ms()
            )
        # No await separates the submit from the commit, so the batch
        # loop can never observe a submitted-but-uncommitted frame.
        res.commit(frame, fp)
        if res.needs_install:
            # The solve plane has never seen (or gave up tracking) this
            # shard: ship a full copy of the tip instead of frames.
            request.install = True
            request.instance = res.install_instance()
            res.pending.clear()
            res.needs_install = False
            self.metrics.add("service.resident_installs")
        else:
            request.frames = res.claim_frames(frame)
        return await self._await_resident(request, fp_hex)

    async def _resident_full(
        self,
        shard: str,
        k: int,
        deadline_ms: float | None,
        moves_only: bool,
        instance: Instance,
        fingerprint: bytes,
    ) -> dict[str, Any]:
        """Full-snapshot request on the resident path: (re)seed the tip."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        fp_hex = fingerprint.hex()
        res = self._residents.get(shard)
        in_sync = (
            res is not None
            and res.fp_hex == fp_hex
            and not res.needs_install
            and not res.pending
        )
        if res is None or res.fp_hex != fp_hex:
            res = ResidentShard(instance)
            self._residents[shard] = res
        hit = self._memo_hit((shard, k, fp_hex, moves_only), now, loop)
        if hit is not None:
            # needs_install stays as-is: the next miss ships the state.
            return hit
        request = PendingRequest(
            shard=shard,
            k=k,
            instance=instance,
            fingerprint=fingerprint,
            enqueued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
            future=loop.create_future(),
            moves_only=moves_only,
            # A duplicate of an in-sync tip solves without reinstalling
            # (the engine will almost surely answer from its decision
            # cache); anything else reseeds the solve plane.
            install=not in_sync,
        )
        if not self.queue.try_submit(request):
            return error_response(
                "overloaded", retry_after_ms=self.queue.retry_after_ms()
            )
        if request.install:
            res.pending.clear()
            res.needs_install = False
            self.metrics.add("service.resident_installs")
        return await self._await_resident(request, fp_hex)

    def _op_health(self) -> dict[str, Any]:
        """Liveness probe for the cluster router's health loop.

        Unlike ``status`` this never hops to the solve thread, so it
        answers at event-loop latency even while a batch is solving — a
        health check must not queue behind the work it is checking.
        """
        return ok_response(
            op="health",
            uptime_s=time.monotonic() - self._started_at,
            queue_depth=self.queue.depth,
        )

    def _op_replicate(self, message: dict[str, Any]) -> dict[str, Any]:
        """Advance a shard's resident tip without solving.

        This is the standby half of cluster replication: the router
        replays a shard's fingerprinted delta frames here (the delta
        log *is* the replication log), so on promotion the standby
        already holds the tip and the first failover request can go
        out as a delta.  Same decode path as ``rebalance`` — including
        the ``unknown base`` degradation to one full snapshot — minus
        admission, batching, and the solve.
        """
        self.metrics.add("service.replicate_requests")
        try:
            shard = str(message.get("shard", "default"))
            delta = message.get("delta")
            if delta is not None:
                res = self._tip_for(shard, delta)
                if res is None:
                    return error_response("unknown base", shard=shard)
                # Standby O(churn) path: advance the resident tip in
                # place.  A standby's solve plane is never installed (it
                # does not decide), so the frame only needs deferring
                # when a solve plane is actually tracking this shard.
                frame, fp = res.preview(delta)
                res.commit(frame, fp)
                if not res.needs_install:
                    res.defer(frame)
                self.metrics.add("service.delta_applied")
                self.metrics.add("service.resident_deltas")
                self.metrics.add("service.replicated")
                return ok_response(
                    op="replicate", shard=shard, fingerprint=res.fp_hex
                )
            instance = Instance.from_dict(message["instance"])
            fingerprint = snapshot_fingerprint(instance)
        except (KeyError, TypeError, ValueError) as exc:
            self.metrics.add("service.bad_requests")
            return error_response("bad request", message=str(exc))
        fp_hex = fingerprint.hex()
        res = self._residents.get(shard)
        if res is None or res.fp_hex != fp_hex:
            # Seed the resident so later replicate deltas (and the first
            # post-promotion client delta) land on the O(churn) path.
            # ``needs_install`` stays True: the solve plane only learns
            # the state once a real decide asks for it.
            self._residents[shard] = ResidentShard(instance)
        self.metrics.add("service.replicated")
        return ok_response(op="replicate", shard=shard, fingerprint=fp_hex)

    def _op_migrate(self, message: dict[str, Any]) -> dict[str, Any]:
        """Export a shard's resident tip for live migration.

        The router drains the shard's lane, pulls the tip from the
        current owner here, ships it to the new owner as a
        ``replicate`` frame, and flips routing.  ``found: false`` (not
        an error) when this node never saw the shard — the router then
        falls back to its own copy of the snapshot.
        """
        shard = str(message.get("shard", "default"))
        res = self._residents.get(shard)
        if res is None:
            return ok_response(op="migrate", shard=shard, found=False)
        self.metrics.add("service.migrations")
        return ok_response(
            op="migrate",
            shard=shard,
            found=True,
            fingerprint=res.fp_hex,
            instance=res.export_instance().to_wire(),
        )

    async def _op_status(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        # Shard states are created by the solve thread mid-batch;
        # snapshot them on that same thread so status never iterates
        # the dict during an insert.
        shards = await loop.run_in_executor(self._executor, self._shard_stats)
        residents = {
            name: {
                "fingerprint": res.fp_hex,
                "pending_frames": len(res.pending),
                "needs_install": res.needs_install,
                "num_jobs": res.num_jobs,
            }
            for name, res in self._residents.items()
        }
        return ok_response(
            uptime_s=time.monotonic() - self._started_at,
            config=self.config.as_dict(),
            queue=self.queue.stats(),
            shards=shards,
            residents=residents,
            metrics=self.metrics.as_dict(),
        )

    def _shard_stats(self) -> dict[str, Any]:
        return {name: state.stats() for name, state in self.shards.items()}

    async def _op_reset(self, message: dict[str, Any]) -> dict[str, Any]:
        shard = message.get("shard")
        names = [str(shard)] if shard is not None else None
        if names is None:
            self._responses.clear()
            self._residents.clear()
        else:
            for key in [k for k in self._responses if k[0] in names]:
                del self._responses[key]
            for name in names:
                self._residents.pop(name, None)
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        # Engines and solve-side residents belong to the solve thread;
        # resetting them there serializes with any batch.
        reset = await loop.run_in_executor(
            self._executor, self._reset_shards, names
        )
        self.metrics.add("service.resets")
        return ok_response(reset=sorted(reset))

    def _reset_shards(self, names: list[str] | None) -> list[str]:
        reset = []
        for name in (names if names is not None else list(self.shards)):
            state = self.shards.get(name)
            if state is None:
                continue
            if state.engine is not None:
                state.engine.reset()
            state.decisions = 0
            self._solve_residents.pop(name, None)
            reset.append(name)
        return reset

    # ------------------------------------------------------------------
    # Batch loop and solving
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.batcher.next_batch()
            try:
                await self._serve_batch(batch, loop)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # must never strand awaiting
                # handlers: fail the whole batch and keep serving.
                self.metrics.add("service.solve_errors")
                failure = error_response(
                    "internal error", message=f"{type(exc).__name__}: {exc}"
                )
                for request in batch:
                    if not request.future.done():
                        request.future.set_result(failure)

    async def _serve_batch(
        self, batch: list[PendingRequest], loop: asyncio.AbstractEventLoop
    ) -> None:
        batch = self.queue.shed_expired(batch, loop.time())
        if not batch:
            return
        lanes = self.batcher.plan(batch)
        start = loop.time()
        assert self._executor is not None
        outcomes = await loop.run_in_executor(
            self._executor, self._solve_lanes, lanes
        )
        elapsed = loop.time() - start
        self.metrics.record_span("service.solve", elapsed)
        self.queue.note_service_time(elapsed / len(batch))
        batch_info = {
            "size": len(batch),
            "unique": sum(len(lane.solves) for lane in lanes),
            "solve_ms": 1e3 * elapsed,
        }
        memo = self.config.decision_cache_size
        for lane, lane_outcomes in zip(lanes, outcomes):
            for solve, outcome in zip(lane.solves, lane_outcomes):
                if outcome is None:
                    # Apply-only solve: every requester already got its
                    # "deadline exceeded"; there is nothing to fan out.
                    continue
                if isinstance(outcome, dict) and outcome.get("ok"):
                    if memo:
                        # Memo before the batch annotation: a replayed
                        # response describes no batch it was part of.
                        key = (
                            lane.shard, solve.k,
                            solve.requests[0].fingerprint.hex(),
                            solve.moves_only,
                        )
                        self._responses[key] = dict(outcome)
                        while len(self._responses) > memo:
                            self._responses.popitem(last=False)
                    outcome["batch"] = batch_info
                else:
                    self.metrics.add("service.solve_errors")
                for request in solve.requests:
                    if not request.future.done():
                        request.future.set_result(outcome)

    def _solve_lanes(
        self, lanes: list[ShardLane]
    ) -> list[list[dict[str, Any] | None]]:
        """Executor-side: fan independent shard lanes out.

        Returns, per lane, one response dict per unique solve (in lane
        order).  Runs on the dedicated solve thread; shard states are
        only ever touched from here (one batch at a time), so engines
        need no locking.
        """
        workers = min(self.config.solver_workers, max(1, len(lanes)))
        if not self.config.solve_delay_s:
            # Real CPU-bound solves past the core count add no
            # throughput — they only interleave O(n)-footprint passes
            # and thrash caches/GIL (measured ~2x per-solve CPU at
            # 167k sites with 4 threads on 1 core).  A synthetic
            # service-time floor sleeps off-GIL, so that mode keeps
            # the configured fan-out.
            workers = min(workers, max(1, os.cpu_count() or 1))
        return run_sweep(
            self._solve_lane,
            lanes,
            workers=workers,
            executor="thread",
        )

    def _solve_lane(self, lane: ShardLane) -> list[dict[str, Any] | None]:
        responses: list[dict[str, Any] | None] = []
        for solve in lane.solves:
            state, rebuilt = _get_shard_state(
                self.shards, lane.shard, solve.k,
                self.config.use_engine, self.config.engine_cache_size,
            )
            if rebuilt:
                self.metrics.add("service.shard_rebuilds")
            responses.append(self._solve_resident(state, lane.shard, solve))
            if self.config.solve_delay_s:
                time.sleep(self.config.solve_delay_s)
        return responses

    def _solve_resident(
        self, state: ShardState, shard: str, solve: UniqueSolve
    ) -> dict[str, Any] | None:
        """One solve on the resident solve plane (solve thread only).

        Applies the solve's frames — or reinstalls from a shipped
        snapshot — onto the shard's solve-side arrays, then decides
        with the accumulated churn hint (or, with no engine, solves
        from scratch).  Never raises; ``None`` for an apply-only solve
        (every requester already expired).
        """
        engine = state.engine
        try:
            sres = self._solve_residents.get(shard)
            # A full snapshot whose solve-side resident was reset while
            # it queued reinstalls from the snapshot it carries.
            if solve.install or (sres is None and solve.instance is not None):
                sres = SolveResident(solve.instance)
                self._solve_residents[shard] = sres
                hint = None
                if engine is not None and (
                    solve.apply_only or engine.has_pending_churn
                ):
                    # An arbitrary replacement snapshot invalidates the
                    # warm tables: pending churn only describes the
                    # sites it names, and an apply-only install leaves
                    # no decide to re-anchor them.  Start cold.
                    engine.reset()
            else:
                if sres is None:
                    return error_response(
                        "solve failed", shard=shard,
                        message="resident solve without installed state",
                    )
                hint = sres.apply(solve.frames)
            if solve.apply_only:
                if hint is not None and engine is not None:
                    engine.note_churn(*hint)
                return None
            instance = sres.view()
            if engine is None:
                result = m_partition_rebalance(instance, solve.k)
            else:
                result = engine.rebalance(
                    instance,
                    fingerprint=solve.requests[0].fingerprint,
                    changed=hint,
                )
            state.decisions += 1
            if solve.moves_only:
                return _moves_response(state, result, instance)
            return _result_response(state, result)
        except Exception as exc:
            # The engine may be mid-patch: drop its state so the next
            # decide rebuilds from the resident arrays.
            if engine is not None:
                engine.reset()
            return error_response(
                "solve failed", message=f"{type(exc).__name__}: {exc}"
            )


# ----------------------------------------------------------------------
# Background-thread embedding (tests, benchmarks, loadgen --spawn)
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on a private event loop in a daemon thread."""

    def __init__(
        self,
        server: RebalanceServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self.host = server.config.host
        self.port = server.port

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def start_background(config: ServerConfig | None = None) -> ServerHandle:
    """Start a :class:`RebalanceServer` on a daemon thread.

    Blocks until the listener is bound (so ``handle.port`` is valid the
    moment this returns) and re-raises any startup failure in the
    caller.  Use as a context manager for scoped teardown.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        async def main() -> None:
            server = RebalanceServer(config)
            try:
                await server.start()
            except Exception as exc:
                box["error"] = exc
                started.set()
                return
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(
        target=runner, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=60.0):  # pragma: no cover
        raise RuntimeError("server failed to start within 60s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], thread)
