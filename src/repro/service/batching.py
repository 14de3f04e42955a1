"""Dynamic micro-batching for the rebalancing service.

The same shape an inference-serving stack uses: admitted solves
accumulate in the admission queue for at most ``max_wait_ms`` (or until
``max_batch`` are in hand), then the whole batch is solved in one
executor hop — one event-loop → executor round-trip per batch instead
of per solve, so the event loop stays responsive while the solve
thread chews.

Duplicates never reach a batch: byte-identical snapshots collapse at
admission, where every request for an in-flight ``(shard, k,
fingerprint, moves_only)`` key joins that key's solve group
(:mod:`repro.service.admission`).  A batch is therefore one entry per
distinct solve.

A batch is *planned* into per-shard lanes: shards are independent (one
warm engine each), so the server fans lanes out across its lane
threads, while solves within a lane stay serial and in arrival order —
each shard's engine sees the same snapshot sequence it would have seen
unbatched, which is what keeps its table-patching effective and its
decisions reproducible.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from .admission import AdmissionQueue, SolveGroup

__all__ = ["BatchConfig", "MicroBatcher", "ShardLane"]


@dataclass(frozen=True)
class BatchConfig:
    """Knobs of the micro-batcher.

    ``max_batch`` bounds how many solves one pass may serve;
    ``max_wait_ms`` bounds how long the first solve of a batch may wait
    for company.
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")


@dataclass
class ShardLane:
    """A batch's slice for one shard: solves in arrival order."""

    shard: str
    solves: list[SolveGroup] = field(default_factory=list)


class MicroBatcher:
    """Drains the admission queue into per-shard lanes."""

    def __init__(self, queue: AdmissionQueue, config: BatchConfig) -> None:
        self.queue = queue
        self.config = config

    async def next_batch(self) -> list[SolveGroup]:
        """Block for the next batch: the first solve opens a window of
        ``max_wait_ms`` that closes early at ``max_batch``."""
        first = await self.queue.get()
        batch = [first]
        if self.config.max_batch == 1:
            return batch
        loop = asyncio.get_running_loop()
        window_closes = loop.time() + self.config.max_wait_ms / 1e3
        while len(batch) < self.config.max_batch:
            group = await self.queue.get_nowait_or_wait(
                window_closes - loop.time()
            )
            if group is None:
                break
            batch.append(group)
        return batch

    @staticmethod
    def plan(batch: list[SolveGroup]) -> list[ShardLane]:
        """Split an (already shed) batch into per-shard lanes."""
        lanes: dict[str, ShardLane] = {}
        for group in batch:
            lane = lanes.get(group.shard)
            if lane is None:
                lane = lanes[group.shard] = ShardLane(shard=group.shard)
            lane.solves.append(group)
        return list(lanes.values())
