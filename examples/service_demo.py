#!/usr/bin/env python
"""The rebalancing service, end to end in one process.

`repro.service` puts the paper's online setting on the wire: a
stdlib-asyncio TCP server holds one warm `RebalanceEngine` per named
shard behind an admission queue that coalesces duplicate requests and
a micro-batcher.  This demo walks the whole loop:

1. start a server in a background thread,
2. solve one snapshot remotely and check it matches the in-process
   solver byte for byte (the service's core contract),
3. fan out duplicate submissions with the async client and check that
   they cost at most one shard decision (they join the first one's
   solve, or the server's response memo answers them),
4. read the server's own account of all that from ``status``,
5. run a short open-loop load-generation burst and print the report.

Run:  python examples/service_demo.py
"""

import asyncio

import numpy as np

from repro import make_instance
from repro.core import m_partition_rebalance
from repro.service import (
    AsyncServiceClient,
    LoadGenConfig,
    ServerConfig,
    ServiceClient,
    run_loadgen,
    start_background,
)

K = 4
rng = np.random.default_rng(11)
instance = make_instance(
    sizes=rng.integers(1, 50, 200).astype(float),
    initial=rng.integers(0, 8, 200),
    num_processors=8,
)

with start_background(ServerConfig()) as server:
    print(f"-- server listening on {server.host}:{server.port}\n")

    # 1. one remote solve, checked against the in-process solver ------
    with ServiceClient(server.host, server.port) as client:
        remote = client.rebalance(instance, K, shard="demo")
        local = m_partition_rebalance(instance, K)
        assert np.array_equal(
            remote.assignment.mapping, local.assignment.mapping
        ), "wire changed the decision!"
        svc = remote.meta["service"]
        print(
            f"remote makespan {remote.makespan:.0f} == local "
            f"{local.makespan:.0f}  (round trip "
            f"{svc['latency_s'] * 1e3:.1f} ms, batch {svc.get('batch')})"
        )

        # 2. duplicate submissions collapse into one solve ------------
        async def storm(copies: int = 6):
            clients = [
                AsyncServiceClient(server.host, server.port)
                for _ in range(copies)
            ]
            try:
                return await asyncio.gather(
                    *(c.rebalance(instance, K, shard="demo") for c in clients)
                )
            finally:
                for c in clients:
                    await c.close()

        def fresh_decisions() -> int:
            return client.status()["shards"]["demo"]["decisions"]

        before = fresh_decisions()
        results = asyncio.run(storm())
        fresh = fresh_decisions() - before
        for r in results:
            assert np.array_equal(
                r.assignment.mapping, local.assignment.mapping
            )
        # A memo answer describes no batch; a solved answer and every
        # joiner of its solve carry the batch that decided it.
        batches = [
            r.meta["service"]["batch"]
            for r in results if "batch" in r.meta["service"]
        ]
        print(
            f"6 concurrent identical requests -> {fresh} shard "
            f"decision(s), {len(results) - len(batches)} memo answers"
            + (f", batches {batches[0]} ..." if batches else "")
        )
        assert fresh <= 1, "duplicates were solved more than once"

        # 3. the server's own view ------------------------------------
        status = client.status()
        shard = status["shards"]["demo"]
        print(
            f"shard 'demo': {shard['decisions']} decisions, engine stats "
            f"{shard['engine']}"
        )
        print(f"queue: {status['queue']}\n")

# 4. a short open-loop burst against a fresh server -------------------
with start_background(ServerConfig()) as server:
    config = LoadGenConfig(
        rate=40.0, duration_s=1.5, duplicates=4,
        num_sites=300, num_servers=8, k=K, deadline_ms=500.0, seed=3,
    )
    report = run_loadgen(server.host, server.port, config)
    print("-- loadgen (open loop, 40 req/s for 1.5 s, 4x duplicates)")
    print(report.render())
    assert report.errors == 0
