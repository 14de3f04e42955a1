"""Tests for admission control and the dynamic micro-batcher."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import telemetry
from repro.core import make_instance
from repro.core.engine import snapshot_fingerprint
from repro.service import AdmissionQueue, BatchConfig, MicroBatcher, SolveGroup


def _instance(seed: int = 0):
    rng = np.random.default_rng(seed)
    return make_instance(
        sizes=rng.uniform(1.0, 9.0, 12),
        initial=rng.integers(0, 3, 12),
        num_processors=3,
    )


def _waiter(loop, deadline: float | None = None):
    from repro.service.admission import PendingRequest

    return PendingRequest(
        future=loop.create_future(), enqueued_at=loop.time(), deadline=deadline
    )


def _key(instance, *, shard: str = "default", k: int = 2):
    return (shard, k, snapshot_fingerprint(instance).hex(), False)


def _request(
    loop,
    *,
    shard: str = "default",
    k: int = 2,
    instance=None,
    deadline: float | None = None,
):
    """A solve group opened by one fresh request."""
    instance = _instance() if instance is None else instance
    return SolveGroup(
        key=_key(instance, shard=shard, k=k),
        instance=instance,
        waiters=[_waiter(loop, deadline)],
    )


def run(coro_fn):
    """Run an async test body on a fresh loop."""
    return asyncio.run(coro_fn())


class TestAdmissionQueue:
    def test_rejects_beyond_max_depth(self):
        async def go():
            loop = asyncio.get_running_loop()
            metrics = telemetry.Collector()
            queue = AdmissionQueue(2, metrics)
            assert queue.try_submit(_request(loop))
            assert queue.try_submit(_request(loop))
            assert not queue.try_submit(_request(loop))
            assert metrics.counters["service.admitted"] == 2
            assert metrics.counters["service.rejected"] == 1
            assert queue.depth == 2

        run(go)

    def test_rejects_zero_depth_config(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0, telemetry.Collector())

    def test_retry_after_scales_with_backlog(self):
        async def go():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(64, telemetry.Collector())
            assert queue.retry_after_ms() == queue.min_retry_after_ms
            queue.note_service_time(0.050)
            for _ in range(10):
                queue.try_submit(_request(loop))
            # 10 queued requests at an EWMA near 50ms/request.
            assert queue.retry_after_ms() > 100.0

        run(go)

    def test_ewma_tracks_service_time(self):
        queue = AdmissionQueue(4, telemetry.Collector())
        for _ in range(50):
            queue.note_service_time(0.2)
        assert queue._service_time_ewma == pytest.approx(0.2, rel=0.05)

    def test_negative_service_time_sample_is_clamped(self):
        """Regression: a backwards clock adjustment hands the queue a
        negative duration; averaging it in raw would drag the EWMA
        below zero and collapse every retry_after_ms hint to the
        floor.  The sample must be clamped to zero, not trusted."""
        queue = AdmissionQueue(4, telemetry.Collector())
        for _ in range(50):
            queue.note_service_time(0.2)
        settled = queue._service_time_ewma
        queue.note_service_time(-60.0)
        # A -60s sample averaged in raw would leave the EWMA at about
        # -11.8s; clamped to a 0s sample it decays by one EWMA step.
        assert queue._service_time_ewma == pytest.approx(0.8 * settled)
        queue.note_service_time(-1e9)
        assert queue._service_time_ewma > 0.0

    def test_shed_expired_resolves_only_stale_requests(self):
        async def go():
            loop = asyncio.get_running_loop()
            metrics = telemetry.Collector()
            queue = AdmissionQueue(8, metrics)
            stale = _request(loop, deadline=loop.time() - 0.1)
            fresh = _request(loop, deadline=loop.time() + 10.0)
            unbounded = _request(loop, deadline=None)
            stale_future = stale.waiters[0].future
            now = loop.time()
            alive = queue.shed_expired([stale, fresh, unbounded], now)
            assert alive == [fresh, unbounded]
            assert stale_future.done()
            response = stale_future.result()
            assert response["ok"] is False
            assert response["error"] == "deadline exceeded"
            assert response["queued_ms"] >= 0.0
            assert not fresh.waiters[0].future.done()
            assert metrics.counters["service.shed"] == 1

        run(go)

    def test_shed_keeps_group_for_live_joiner(self):
        """Deadlines are per waiter: an expired leader is answered
        ``deadline exceeded`` while its group still solves for a live
        joiner, and stays joinable."""
        async def go():
            loop = asyncio.get_running_loop()
            metrics = telemetry.Collector()
            queue = AdmissionQueue(8, metrics)
            group = _request(loop, deadline=loop.time() - 0.1)
            leader = group.waiters[0]
            assert queue.try_submit(group)
            joiner = _waiter(loop)
            assert queue.join(group.key, joiner)
            assert queue.shed_expired([group], loop.time()) == [group]
            assert leader.future.result()["error"] == "deadline exceeded"
            assert group.waiters == [joiner] and not group.apply_only
            assert queue.join(group.key, _waiter(loop))
            assert metrics.counters["service.deduped"] == 2

        run(go)

    def test_shed_group_with_no_live_waiter_leaves_in_flight_table(self):
        """A group whose every waiter expired applies its committed
        state without deciding, and a later request for its key opens a
        fresh group instead of joining a solve that will not answer."""
        async def go():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(8, telemetry.Collector())
            carrying = _request(loop, deadline=loop.time() - 0.1)
            carrying.install = True
            empty = _request(
                loop, instance=_instance(seed=5), deadline=loop.time() - 0.1
            )
            for group in (carrying, empty):
                assert queue.try_submit(group)
            alive = queue.shed_expired([carrying, empty], loop.time())
            assert alive == [carrying]
            assert carrying.apply_only and carrying.waiters == []
            assert not queue.join(carrying.key, _waiter(loop))
            assert not queue.join(empty.key, _waiter(loop))

        run(go)

    def test_join_until_finished(self):
        async def go():
            loop = asyncio.get_running_loop()
            metrics = telemetry.Collector()
            queue = AdmissionQueue(1, metrics)
            group = _request(loop)
            assert not queue.join(group.key, _waiter(loop))
            assert queue.try_submit(group)
            # A joiner takes no queue slot: the full queue still admits it.
            assert queue.join(group.key, _waiter(loop))
            assert len(group.waiters) == 2 and queue.depth == 1
            queue.finish(group)
            assert not queue.join(group.key, _waiter(loop))
            assert metrics.counters["service.deduped"] == 1

        run(go)

    def test_drain_nowait_empties_fifo(self):
        async def go():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(8, telemetry.Collector())
            requests = [_request(loop) for _ in range(3)]
            for request in requests:
                queue.try_submit(request)
            assert queue.drain_nowait() == requests
            assert queue.depth == 0

        run(go)

    def test_stats_snapshot(self):
        async def go():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(8, telemetry.Collector())
            queue.try_submit(_request(loop))
            stats = queue.stats()
            assert stats["depth"] == 1
            assert stats["max_depth"] == 8
            assert stats["retry_after_ms"] >= queue.min_retry_after_ms

        run(go)


class TestBatchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(max_wait_ms=-1.0)


class TestMicroBatcher:
    def _batcher(self, max_depth=64, **config):
        metrics = telemetry.Collector()
        queue = AdmissionQueue(max_depth, metrics)
        return MicroBatcher(queue, BatchConfig(**config)), queue

    def test_batch_closes_at_max_batch(self):
        async def go():
            loop = asyncio.get_running_loop()
            batcher, queue = self._batcher(max_batch=3, max_wait_ms=1000.0)
            for _ in range(5):
                queue.try_submit(_request(loop))
            batch = await batcher.next_batch()
            assert len(batch) == 3
            assert queue.depth == 2

        run(go)

    def test_batch_closes_at_window(self):
        async def go():
            loop = asyncio.get_running_loop()
            batcher, queue = self._batcher(max_batch=64, max_wait_ms=10.0)
            queue.try_submit(_request(loop))
            start = loop.time()
            batch = await batcher.next_batch()
            assert len(batch) == 1
            assert loop.time() - start < 5.0  # closed by window, not hang

        run(go)

    def test_max_batch_one_skips_window(self):
        async def go():
            loop = asyncio.get_running_loop()
            batcher, queue = self._batcher(max_batch=1, max_wait_ms=1000.0)
            queue.try_submit(_request(loop))
            batch = await batcher.next_batch()
            assert len(batch) == 1

        run(go)

    @staticmethod
    def _admit(queue, loop, instance, k=2):
        """What the server does per request: join the key's group in
        flight, or open one."""
        if not queue.join(_key(instance, k=k), _waiter(loop)):
            assert queue.try_submit(_request(loop, instance=instance, k=k))

    def test_plan_dedupes_identical_snapshots(self):
        """Identical snapshots collapse at admission, so the planned
        lane holds one solve per distinct snapshot."""
        async def go():
            loop = asyncio.get_running_loop()
            batcher, queue = self._batcher()
            shared = _instance(seed=1)
            other = _instance(seed=2)
            for instance in (shared, shared, other):
                self._admit(queue, loop, instance)
            lanes = batcher.plan(await batcher.next_batch())
            assert len(lanes) == 1
            solves = lanes[0].solves
            assert [len(s.waiters) for s in solves] == [2, 1]
            assert queue.metrics.counters["service.deduped"] == 1

        run(go)

    def test_plan_does_not_dedupe_across_k(self):
        async def go():
            loop = asyncio.get_running_loop()
            batcher, queue = self._batcher()
            shared = _instance(seed=1)
            self._admit(queue, loop, shared, k=2)
            self._admit(queue, loop, shared, k=3)
            lanes = batcher.plan(await batcher.next_batch())
            assert len(lanes[0].solves) == 2
            assert "service.deduped" not in queue.metrics.counters

        run(go)

    def test_plan_without_dedupe_keeps_every_request(self):
        """Requests admitted without joining (``ServerConfig.dedupe``
        off) stay one solve each, even for one key."""
        async def go():
            loop = asyncio.get_running_loop()
            batcher, _ = self._batcher()
            shared = _instance(seed=1)
            lanes = batcher.plan([
                _request(loop, instance=shared),
                _request(loop, instance=shared),
            ])
            assert [len(s.waiters) for s in lanes[0].solves] == [1, 1]

        run(go)

    def test_plan_splits_lanes_by_shard_preserving_order(self):
        async def go():
            loop = asyncio.get_running_loop()
            batcher, _ = self._batcher()
            a1 = _request(loop, shard="a", instance=_instance(seed=1))
            b1 = _request(loop, shard="b", instance=_instance(seed=2))
            a2 = _request(loop, shard="a", instance=_instance(seed=3))
            lanes = {lane.shard: lane for lane in batcher.plan([a1, b1, a2])}
            assert set(lanes) == {"a", "b"}
            assert lanes["a"].solves == [a1, a2]
            assert lanes["b"].solves == [b1]

        run(go)
