"""Admission control: the bounded front door of the service, and the
point where duplicate requests coalesce.

A production rebalancing service must fail *sideways*, not *down*:
when requests arrive faster than the solver pool drains them, the
queue must stay bounded (constant memory, bounded worst-case latency)
and the overflow must be told to come back later instead of silently
waiting forever.  This module implements that policy:

* :class:`AdmissionQueue` — a bounded FIFO of :class:`SolveGroup`
  objects, one per solve.  :meth:`AdmissionQueue.try_submit` either
  admits a new group or rejects it with a ``retry_after_ms`` hint
  derived from the current backlog and an EWMA of recent per-solve
  service time — the client-visible backpressure signal.
* **Single-flight coalescing** — the first admitted request for a
  ``(shard, k, fingerprint, moves_only)`` key opens a group; every
  later request with that key joins it (:meth:`AdmissionQueue.join`)
  while it is queued or solving, and is answered by its one solve.
  The queue bound counts queued solves, not waiting callers: a joiner
  adds no solve work, takes no slot and is never rejected.  A group
  leaves the in-flight table when it is answered
  (:meth:`AdmissionQueue.finish`); finished keys are the server's
  response memo's to answer.
* **Deadline shedding** — every waiter carries its own deadline; once
  it expires the answer is useless to it, so
  :meth:`AdmissionQueue.shed_expired` resolves it with a ``deadline
  exceeded`` error when its group is drained, *before* the solver runs.
  The group still solves for its live waiters; one left with none never
  decides.  Under overload this converts queue delay into explicit,
  early failures instead of late-and-useless answers.

Counters (on the server's metrics collector): ``service.admitted``,
``service.rejected``, ``service.shed``, ``service.deduped`` (joiners).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from .. import telemetry
from ..core.instance import Instance

__all__ = ["AdmissionQueue", "GroupKey", "PendingRequest", "SolveGroup"]

# ``(shard, k, fingerprint hex, moves_only)``: requests with equal keys
# are answered by one solve.  ``moves_only`` is part of the key because
# the two response shapes for one snapshot cannot share a response.
GroupKey = tuple[str, int, str, bool]


@dataclass
class PendingRequest:
    """One caller awaiting a decision.

    ``deadline`` is an absolute :func:`asyncio.AbstractEventLoop.time`
    instant (``None`` = no deadline).  ``future`` resolves to the
    response dict the connection handler writes back.
    """

    future: asyncio.Future = field(repr=False)
    enqueued_at: float
    deadline: float | None = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class SolveGroup:
    """One admitted solve and every request awaiting it."""

    key: GroupKey
    instance: Instance | None
    waiters: list[PendingRequest]
    # Resident-path fields: ``frames`` are the committed delta frames
    # this solve carries to the solve plane (``instance`` is then
    # ``None`` — the solve plane replays frames instead of decoding a
    # snapshot); ``install`` asks the solve plane to reseed its
    # resident arrays from ``instance`` first.
    install: bool = False
    frames: list = field(default_factory=list)
    # Set when every waiter expired in the queue but the frames (or
    # install) must still reach the solve plane: it applies them
    # without deciding.
    apply_only: bool = False

    @property
    def shard(self) -> str:
        return self.key[0]

    @property
    def k(self) -> int:
        return self.key[1]

    @property
    def moves_only(self) -> bool:
        return self.key[3]

    def resolve(self, response: dict[str, Any]) -> None:
        """Answer every waiter still awaiting (one shared object)."""
        for request in self.waiters:
            if not request.future.done():
                request.future.set_result(response)


class AdmissionQueue:
    """Bounded solve queue with coalescing, backpressure and shedding."""

    def __init__(
        self,
        max_depth: int,
        metrics: telemetry.Collector,
        *,
        min_retry_after_ms: float = 5.0,
    ) -> None:
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self.metrics = metrics
        self.min_retry_after_ms = min_retry_after_ms
        self._queue: asyncio.Queue[SolveGroup] = asyncio.Queue(maxsize=max_depth)
        # Admitted, not yet answered (queued or solving), by key.
        self._in_flight: dict[GroupKey, SolveGroup] = {}
        # EWMA of per-solve service time, seeded pessimistically so the
        # first retry hints are conservative rather than zero.
        self._service_time_ewma = 0.010

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Solves currently queued (admitted, not yet drained)."""
        return self._queue.qsize()

    def retry_after_ms(self) -> float:
        """Backpressure hint: expected time for the backlog to drain."""
        estimate = 1e3 * self.depth * self._service_time_ewma
        return max(self.min_retry_after_ms, estimate)

    def note_service_time(self, seconds_per_solve: float) -> None:
        """Feed the drain-rate estimate after a batch completes.

        The sample is clamped to >= 0: a backwards clock adjustment can
        hand us a negative duration, and repeatedly averaging those in
        would drag the EWMA toward (or below) zero and collapse every
        ``retry_after_ms`` hint to the floor.
        """
        self._service_time_ewma += 0.2 * (
            max(0.0, seconds_per_solve) - self._service_time_ewma
        )

    # ------------------------------------------------------------------
    def try_submit(self, group: SolveGroup) -> bool:
        """Admit ``group`` or reject it (caller sends ``overloaded``)."""
        try:
            self._queue.put_nowait(group)
        except asyncio.QueueFull:
            self.metrics.add("service.rejected")
            return False
        self._in_flight[group.key] = group
        self.metrics.add("service.admitted")
        self.metrics.observe("service.queue_depth", float(self.depth))
        return True

    def join(self, key: GroupKey, request: PendingRequest) -> bool:
        """Add ``request`` to the group in flight for ``key``, if any."""
        group = self._in_flight.get(key)
        if group is None:
            return False
        group.waiters.append(request)
        self.metrics.add("service.deduped")
        return True

    def finish(self, group: SolveGroup) -> None:
        """Take ``group`` out of the in-flight table: later requests for
        its key no longer join it."""
        if self._in_flight.get(group.key) is group:
            del self._in_flight[group.key]

    async def get(self) -> SolveGroup:
        """Wait for the next admitted solve (FIFO)."""
        return await self._queue.get()

    def drain_nowait(self) -> list[SolveGroup]:
        """Empty the queue without waiting (server shutdown path)."""
        drained: list[SolveGroup] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return drained

    async def get_nowait_or_wait(self, timeout: float) -> SolveGroup | None:
        """Next solve, or ``None`` once ``timeout`` elapses."""
        try:
            return self._queue.get_nowait()
        except asyncio.QueueEmpty:
            pass
        if timeout <= 0:
            return None
        try:
            return await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    # ------------------------------------------------------------------
    def shed_expired(
        self, batch: list[SolveGroup], now: float
    ) -> list[SolveGroup]:
        """Resolve expired waiters; return the groups still to solve.

        Called after draining a batch and before solving it: a waiter
        whose deadline passed while queued is answered immediately with
        ``deadline exceeded``.  A group left with no live waiter leaves
        the in-flight table at once — a later request for its key opens
        a fresh group instead of joining a solve that will not decide —
        and stays in the batch only to apply its committed state.
        """
        from .protocol import error_response

        alive: list[SolveGroup] = []
        for group in batch:
            live: list[PendingRequest] = []
            for request in group.waiters:
                if not request.expired(now):
                    live.append(request)
                    continue
                self.metrics.add("service.shed")
                if not request.future.done():
                    request.future.set_result(
                        error_response(
                            "deadline exceeded",
                            queued_ms=1e3 * (now - request.enqueued_at),
                        )
                    )
            group.waiters = live
            if live:
                alive.append(group)
                continue
            self.finish(group)
            if group.frames or group.install:
                # The admission plane already committed this solve's
                # state advance; the solve plane must still apply it
                # (without deciding) or the two would diverge.
                group.apply_only = True
                alive.append(group)
        return alive

    def stats(self) -> dict[str, Any]:
        """Introspection snapshot for the ``status`` operation."""
        return {
            "depth": self.depth,
            "max_depth": self.max_depth,
            "service_time_ewma_ms": 1e3 * self._service_time_ewma,
            "retry_after_ms": self.retry_after_ms(),
        }
