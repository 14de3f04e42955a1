"""Admission control: the bounded front door of the service.

A production rebalancing service must fail *sideways*, not *down*:
when requests arrive faster than the solver pool drains them, the
queue must stay bounded (constant memory, bounded worst-case latency)
and the overflow must be told to come back later instead of silently
waiting forever.  This module implements that policy:

* :class:`AdmissionQueue` — a bounded FIFO of
  :class:`PendingRequest` objects.  :meth:`AdmissionQueue.try_submit`
  either admits a request or rejects it with a ``retry_after_ms`` hint
  derived from the current backlog and an EWMA of recent per-request
  service time — the client-visible backpressure signal.
* **Deadline shedding** — a request may carry a deadline; once it
  expires the solve is pure waste, so :meth:`AdmissionQueue.shed_expired`
  drops it from a drained batch *before* the solver runs and resolves
  its future with a ``deadline exceeded`` error.  Under overload this
  converts queue delay into explicit, early failures instead of
  late-and-useless answers.

Counters (on the server's metrics collector): ``service.admitted``,
``service.rejected``, ``service.shed``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from .. import telemetry
from ..core.instance import Instance

__all__ = ["AdmissionQueue", "PendingRequest"]


@dataclass
class PendingRequest:
    """One admitted rebalance request waiting for a batch slot.

    ``deadline`` is an absolute :func:`asyncio.AbstractEventLoop.time`
    instant (``None`` = no deadline).  ``future`` resolves to the
    response dict the connection handler writes back.
    """

    shard: str
    k: int
    instance: Instance | None
    fingerprint: bytes
    enqueued_at: float
    deadline: float | None
    future: asyncio.Future = field(repr=False)
    # Resident-path fields: ``frames`` are the committed delta frames
    # this request carries to the solve plane (``instance`` is then
    # ``None`` — the solve plane replays frames instead of decoding a
    # snapshot); ``install`` asks the solve plane to reseed its
    # resident arrays from ``instance`` first; ``moves_only`` requests
    # the compact response form (moved sites, not the full mapping).
    install: bool = False
    moves_only: bool = False
    frames: list = field(default_factory=list)
    # Set by the server when this request expired in the queue but its
    # frames (or install) must still reach the solve plane: the future
    # is already resolved, the solve plane applies without deciding.
    apply_only: bool = False

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class AdmissionQueue:
    """Bounded request queue with backpressure and deadline shedding."""

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
        self._queue: asyncio.Queue[PendingRequest] = asyncio.Queue(maxsize=max_depth)
        # EWMA of per-request service time, seeded pessimistically so
        # the first retry hints are conservative rather than zero.
        self._service_time_ewma = 0.010

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued (admitted, not yet drained)."""
        return self._queue.qsize()

    def retry_after_ms(self) -> float:
        """Backpressure hint: expected time for the backlog to drain."""
        estimate = 1e3 * self.depth * self._service_time_ewma
        return max(self.min_retry_after_ms, estimate)

    def note_service_time(self, seconds_per_request: float) -> None:
        """Feed the drain-rate estimate after a batch completes.

        The sample is clamped to >= 0: a backwards clock adjustment can
        hand us a negative duration, and repeatedly averaging those in
        would drag the EWMA toward (or below) zero and collapse every
        ``retry_after_ms`` hint to the floor.
        """
        self._service_time_ewma += 0.2 * (
            max(0.0, seconds_per_request) - self._service_time_ewma
        )

    # ------------------------------------------------------------------
    def try_submit(self, request: PendingRequest) -> bool:
        """Admit ``request`` or reject it (caller sends ``overloaded``)."""
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self.metrics.add("service.rejected")
            return False
        self.metrics.add("service.admitted")
        self.metrics.observe("service.queue_depth", float(self.depth))
        return True

    async def get(self) -> PendingRequest:
        """Wait for the next admitted request (FIFO)."""
        return await self._queue.get()

    def drain_nowait(self) -> list[PendingRequest]:
        """Empty the queue without waiting (server shutdown path)."""
        drained: list[PendingRequest] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return drained

    async def get_nowait_or_wait(self, timeout: float) -> PendingRequest | None:
        """Next request, or ``None`` once ``timeout`` elapses."""
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
        self, batch: list[PendingRequest], now: float
    ) -> list[PendingRequest]:
        """Resolve already-expired requests, return the live remainder.

        Called by the batcher after draining and before solving: work
        whose deadline passed while queued is answered immediately with
        ``deadline exceeded`` and never reaches an engine.
        """
        from .protocol import error_response

        alive: list[PendingRequest] = []
        for request in batch:
            if request.expired(now):
                self.metrics.add("service.shed")
                if not request.future.done():
                    request.future.set_result(
                        error_response(
                            "deadline exceeded",
                            queued_ms=1e3 * (now - request.enqueued_at),
                        )
                    )
                if request.frames or request.install:
                    # The admission plane already committed this
                    # request's state advance; the solve plane must
                    # still apply it (without deciding) or the two
                    # would diverge.
                    request.apply_only = True
                    alive.append(request)
            else:
                alive.append(request)
        return alive

    def stats(self) -> dict[str, Any]:
        """Introspection snapshot for the ``status`` operation."""
        return {
            "depth": self.depth,
            "max_depth": self.max_depth,
            "service_time_ewma_ms": 1e3 * self._service_time_ewma,
            "retry_after_ms": self.retry_after_ms(),
        }
