"""Single-flight coalescing, the resident tip under rejection, and the
server's lane threads.

The tests that need a request to be *in flight* hold a solve open with
``solve_delay_s`` or hold the server's one solve thread with a gate
(:func:`_solve_thread_held`): a batch drained meanwhile waits in its
executor hop with its groups in flight.  Every ordering below is
sequenced on server state (batches started, queue depth from
``health``, joiners counted); the only sleeps let a short deadline
pass.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import Instance, m_partition_rebalance, make_instance
from repro.core.engine import snapshot_fingerprint
from repro.service import (
    AsyncServiceClient,
    Overloaded,
    ServerConfig,
    ShardLane,
    SolveGroup,
    start_background,
)
from repro.service.protocol import write_frame_sync

K = 2


def _instance(seed: int, n: int = 40, m: int = 4) -> Instance:
    rng = np.random.default_rng(seed)
    return make_instance(
        sizes=rng.uniform(1.0, 9.0, n),
        initial=rng.integers(0, m, n),
        num_processors=m,
    )


def _with_size(inst: Instance, site: int, factor: float) -> Instance:
    sizes = inst.sizes.copy()
    sizes[site] *= factor
    return Instance(
        sizes=sizes, costs=inst.costs,
        num_processors=inst.num_processors, initial=inst.initial,
    )


def _delta(base: Instance, new: Instance) -> dict:
    """The v1 delta body taking ``base`` to ``new``."""
    idx = np.flatnonzero(
        (base.sizes != new.sizes) | (base.costs != new.costs)
        | (base.initial != new.initial)
    )
    return {
        "base": snapshot_fingerprint(base).hex(),
        "idx": idx.tolist(),
        "sizes": new.sizes[idx].tolist(),
        "costs": new.costs[idx].tolist(),
        "initial": new.initial[idx].tolist(),
    }


def _full(shard: str, inst: Instance, **extra) -> dict:
    return {"op": "rebalance", "shard": shard, "k": K,
            "instance": inst.to_dict(), **extra}


def _assert_decides(response: dict, inst: Instance) -> None:
    assert response["ok"] is True, response
    scratch = m_partition_rebalance(inst, K)
    assert np.array_equal(response["mapping"], scratch.assignment.mapping)
    assert response["guessed_opt"] == scratch.guessed_opt
    assert response["fingerprint"] == snapshot_fingerprint(inst).hex()


@contextmanager
def _solve_thread_held(handle):
    """Block the server's solve thread until the block exits."""
    gate = threading.Event()
    handle.server._executor.submit(gate.wait)
    try:
        yield
    finally:
        gate.set()


def _counter(handle, name: str) -> float:
    return handle.server.metrics.counters.get(name, 0)


async def _until(predicate, timeout: float = 30.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not await predicate():
        assert loop.time() < deadline, "server never reached the state"
        await asyncio.sleep(0.002)


def _queue_depth_is(client, depth: int):
    async def check() -> bool:
        return (await client.call({"op": "health"}))["queue_depth"] == depth
    return check


def _counter_reaches(handle, name: str, value: float):
    async def check() -> bool:
        return _counter(handle, name) >= value
    return check


def _run(coro):
    """Run a test body, failing instead of hanging on a lost answer."""
    return asyncio.run(asyncio.wait_for(coro, 60.0))


def _solve_calls(status: dict) -> int:
    return status["metrics"]["spans"].get("service.solve", {}).get("calls", 0)


@pytest.fixture()
def handle():
    with start_background(ServerConfig()) as handle:
        yield handle


class TestSingleFlight:
    def test_duplicate_joins_running_solve(self):
        """A duplicate that arrives while the first request's solve runs
        is answered by that solve: one ``service.solve`` call and one
        decision.  The joiner carries its leader's ``batch``; a later
        memo answer carries none."""
        inst = _instance(seed=40)

        async def go(handle):
            async with AsyncServiceClient(handle.host, handle.port) as probe, \
                    AsyncServiceClient(handle.host, handle.port) as a, \
                    AsyncServiceClient(handle.host, handle.port) as b:
                before = await probe.status()
                first = asyncio.ensure_future(a.rebalance(inst, K, shard="c"))
                await _until(_counter_reaches(handle, "service.batches", 1))
                second = await b.rebalance(inst, K, shard="c")
                first = await first
                after = await probe.status()
                memo = await b.rebalance(inst, K, shard="c")
                return before, first, second, after, memo

        # The delay keeps the first solve running well past the
        # duplicate's arrival on any host.
        with start_background(ServerConfig(solve_delay_s=0.5)) as handle:
            before, first, second, after, memo = _run(go(handle))
        assert _solve_calls(after) - _solve_calls(before) == 1
        assert after["shards"]["c"]["decisions"] == 1
        counters = after["metrics"]["counters"]
        assert counters["service.deduped"] == 1
        scratch = m_partition_rebalance(inst, K)
        for result in (first, second, memo):
            assert np.array_equal(
                result.assignment.mapping, scratch.assignment.mapping
            )
        batch = first.meta["service"]["batch"]
        assert second.meta["service"]["batch"] == batch
        assert batch["size"] == 2 and batch["unique"] == 1
        assert "batch" not in memo.meta["service"]

    def test_joiner_answered_when_leader_deadline_expires(self, handle):
        blocker, inst = _instance(seed=41), _instance(seed=42)

        async def go():
            async with AsyncServiceClient(handle.host, handle.port) as probe, \
                    AsyncServiceClient(handle.host, handle.port) as x, \
                    AsyncServiceClient(handle.host, handle.port, retries=0) as a, \
                    AsyncServiceClient(handle.host, handle.port) as b:
                with _solve_thread_held(handle):
                    held = asyncio.ensure_future(x.call(_full("blk", blocker)))
                    await _until(_counter_reaches(handle, "service.batches", 1))
                    leader = asyncio.ensure_future(
                        a.call(_full("c", inst, deadline_ms=20.0))
                    )
                    await _until(_queue_depth_is(probe, 1))
                    joiner = asyncio.ensure_future(b.call(_full("c", inst)))
                    await _until(_counter_reaches(handle, "service.deduped", 1))
                    await asyncio.sleep(0.03)  # past the leader's deadline
                return await held, await leader, await joiner

        held, leader, joiner = _run(go())
        _assert_decides(held, blocker)
        assert leader["ok"] is False
        assert leader["error"] == "deadline exceeded"
        _assert_decides(joiner, inst)

    def test_joiner_answered_when_leader_disconnects(self, handle):
        inst = _instance(seed=43)

        async def go():
            async with AsyncServiceClient(handle.host, handle.port) as b:
                with _solve_thread_held(handle):
                    with socket.create_connection(
                        (handle.host, handle.port), timeout=10.0
                    ) as leader:
                        write_frame_sync(leader, _full("c", inst))
                        await _until(
                            _counter_reaches(handle, "service.batches", 1)
                        )
                        joiner = asyncio.ensure_future(b.call(_full("c", inst)))
                        await _until(
                            _counter_reaches(handle, "service.deduped", 1)
                        )
                return await joiner

        _assert_decides(_run(go()), inst)

    def test_request_after_apply_only_drain_gets_decision(self):
        """Every waiter of the first group expired in the queue, so it
        was drained to install its snapshot only; a request for the same
        key arriving while that apply-only solve runs opens a fresh
        group and is decided, not parked on a solve that never
        answers."""
        blocker, inst = _instance(seed=44), _instance(seed=45)

        async def go(handle):
            async with AsyncServiceClient(handle.host, handle.port) as probe, \
                    AsyncServiceClient(handle.host, handle.port) as x, \
                    AsyncServiceClient(handle.host, handle.port, retries=0) as a, \
                    AsyncServiceClient(handle.host, handle.port) as b:
                with _solve_thread_held(handle):
                    held = asyncio.ensure_future(x.call(_full("blk", blocker)))
                    await _until(_counter_reaches(handle, "service.batches", 1))
                    leader = asyncio.ensure_future(
                        a.call(_full("c", inst, deadline_ms=20.0))
                    )
                    await _until(_queue_depth_is(probe, 1))
                    await asyncio.sleep(0.03)  # past the leader's deadline
                # The apply-only batch holds the solve thread for the
                # synthetic delay.
                await _until(_counter_reaches(handle, "service.batches", 2))
                late = await b.call(_full("c", inst))
                return await held, await leader, late

        with start_background(ServerConfig(solve_delay_s=0.3)) as handle:
            held, leader, late = _run(go(handle))
            counters = handle.server.metrics.counters
        _assert_decides(held, blocker)
        assert leader["error"] == "deadline exceeded"
        _assert_decides(late, inst)
        assert counters["service.shed"] == 1
        assert "service.deduped" not in counters

    def test_delta_joiner_parks_frame_and_next_delta_uses_hint(self, handle):
        """A delta whose post-frame fingerprint is in flight commits
        its frame, parks it and joins; the shard's next delta carries
        the parked frame and still decides from the churn hint."""
        a = _instance(seed=46)
        b = _with_size(a, 3, 2.0)
        c = _with_size(b, 7, 0.5)
        e = _with_size(b, 11, 3.0)

        def delta(base, new):
            return {"op": "rebalance", "shard": "d", "k": K,
                    "delta": _delta(base, new)}

        async def go():
            async with AsyncServiceClient(handle.host, handle.port) as probe, \
                    AsyncServiceClient(handle.host, handle.port) as c1, \
                    AsyncServiceClient(handle.host, handle.port) as c2, \
                    AsyncServiceClient(handle.host, handle.port) as c3:
                seeded = await c1.call(_full("d", a))
                before = await probe.status()
                with _solve_thread_held(handle):
                    to_b = asyncio.ensure_future(c1.call(delta(a, b)))
                    await _until(_counter_reaches(handle, "service.batches", 2))
                    to_c = asyncio.ensure_future(c2.call(delta(b, c)))
                    await _until(_queue_depth_is(probe, 1))
                    back_to_b = asyncio.ensure_future(c3.call(delta(c, b)))
                    await _until(_counter_reaches(handle, "service.deduped", 1))
                answers = [seeded, await to_b, await to_c, await back_to_b]
                answers.append(await c1.call(delta(b, e)))
                return before, answers, await probe.status()

        before, answers, after = _run(go())
        for response, inst in zip(answers, (a, b, c, b, e)):
            _assert_decides(response, inst)
        engine = {
            name: status["shards"]["d"]["engine"]
            for name, status in (("before", before), ("after", after))
        }
        # b, c and e decided from hints, on tables built once for a.
        assert (
            engine["after"]["incremental_decides"]
            - engine["before"]["incremental_decides"]
        ) == 3
        assert engine["after"]["full_builds"] == 1
        assert after["shards"]["d"]["decisions"] == 4
        resident = after["residents"]["d"]
        assert resident["fingerprint"] == snapshot_fingerprint(e).hex()
        assert resident["pending_frames"] == 0

    def test_memo_written_before_group_leaves_in_flight_table(self, handle):
        server = handle.server
        seen = []
        finish = server.queue.finish

        def recording(group):
            seen.append(group.key in server._responses)
            finish(group)

        server.queue.finish = recording
        inst = _instance(seed=47)

        async def go():
            async with AsyncServiceClient(handle.host, handle.port) as client:
                return await client.call(_full("m", inst))

        _assert_decides(_run(go()), inst)
        assert seen == [True]


class TestResidentTip:
    def test_rejected_full_snapshot_leaves_tip(self):
        """A full snapshot answered ``overloaded`` never reseeds the
        shard's tip: the last admitted snapshot stays the base the
        shard's delta clients rebase on."""
        first, second, third = (_instance(seed=s) for s in (48, 49, 50))

        async def go(handle):
            async with AsyncServiceClient(handle.host, handle.port) as probe, \
                    AsyncServiceClient(handle.host, handle.port) as c1, \
                    AsyncServiceClient(handle.host, handle.port) as c2, \
                    AsyncServiceClient(handle.host, handle.port, retries=0) as c3:
                with _solve_thread_held(handle):
                    solving = asyncio.ensure_future(c1.call(_full("t", first)))
                    await _until(_counter_reaches(handle, "service.batches", 1))
                    queued = asyncio.ensure_future(c2.call(_full("t", second)))
                    await _until(_queue_depth_is(probe, 1))
                    with pytest.raises(Overloaded):
                        await c3.call(_full("t", third))
                return [await solving, await queued], await probe.status()

        with start_background(ServerConfig(max_queue=1)) as handle:
            (solving, queued), status = _run(go(handle))
        _assert_decides(solving, first)
        _assert_decides(queued, second)
        assert status["residents"]["t"]["fingerprint"] == (
            snapshot_fingerprint(second).hex()
        )


def _lanes(shards: dict, k: int) -> list:
    """One installing solve per shard, as the batch planner lays out."""
    return [
        ShardLane(shard=name, solves=[SolveGroup(
            key=(name, k, snapshot_fingerprint(inst).hex(), False),
            instance=inst, waiters=[], install=True,
        )])
        for name, inst in shards.items()
    ]


class TestLanePool:
    def test_lane_threads_lose_no_update(self):
        """More lane threads than cores and a tiny switch interval: every
        lane rebuilds its shard's engine for a new ``k`` at once, and no
        shard state, solve-side resident or rebuild count goes missing."""
        shards = {f"s{i}": _instance(seed=60 + i, n=20) for i in range(8)}
        interval = sys.getswitchinterval()
        # A synthetic delay keeps the configured fan-out on any core count.
        config = ServerConfig(solver_workers=8, solve_delay_s=0.001)
        with start_background(config) as handle:
            server = handle.server
            sys.setswitchinterval(1e-6)
            try:
                for k in range(1, 21):
                    for (outcome,) in server._solve_lanes(_lanes(shards, k)):
                        assert outcome["ok"] is True
            finally:
                sys.setswitchinterval(interval)
            assert sorted(server.shards) == sorted(shards)
            assert sorted(server._solve_residents) == sorted(shards)
            assert all(state.k == 20 for state in server.shards.values())
            rebuilds = server.metrics.counters["service.shard_rebuilds"]
        assert rebuilds == 19 * len(shards)

    def test_multi_lane_batches_construct_no_executor(self, monkeypatch):
        """The lane threads are built once, at start: solving batches
        that span several shards constructs no thread pool."""
        from concurrent.futures import ThreadPoolExecutor

        shards = {name: _instance(seed=51 + i) for i, name in enumerate("pq")}
        # A synthetic delay keeps the configured fan-out on any core count.
        with start_background(ServerConfig(solve_delay_s=0.001)) as handle:
            built = []
            init = ThreadPoolExecutor.__init__

            def counting(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)

            monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting)
            for _ in range(2):
                outcomes = handle.server._solve_lanes(_lanes(shards, K))
                for (name, inst), (outcome,) in zip(shards.items(), outcomes):
                    scratch = m_partition_rebalance(inst, K)
                    assert np.array_equal(
                        outcome["mapping"], scratch.assignment.mapping
                    )
        assert built == []
