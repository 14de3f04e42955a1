"""Due-time latency: a stall charges every epoch queued behind it."""

import asyncio
from dataclasses import replace
from pathlib import Path

import numpy as np

from perfbench.service import DELTA_CHURN, Phase, ServiceRun
from perfbench.traffic import ChurnShard
from repro.service.protocol import RebalanceEncoder

INTERVAL = 0.02
STALL = 0.12
STALLED_EPOCH = 3


class StallingClient:
    """Answers at once, except one request that stalls."""

    def __init__(self, shard: ChurnShard) -> None:
        self.shard = shard
        self.calls = 0

    async def call_encoded(self, frame, *, shard=None) -> dict:
        self.calls += 1
        if self.calls == STALLED_EPOCH:
            await asyncio.sleep(STALL)
        return {"ok": True, "fingerprint": self.shard.res.fp_hex,
                "moves_idx": np.empty(0, np.int64),
                "moves_to": np.empty(0, np.int64)}


def test_stall_is_charged_to_later_epochs(tmp_path: Path) -> None:
    run = ServiceRun(replace(DELTA_CHURN, interval_s=INTERVAL), 0, 1.0, False,
                     tmp_path, tmp_path)
    shard = ChurnShard(0, 0, 500, 4, 4)
    encoder = RebalanceEncoder({"op": "rebalance", "shard": "s", "k": 2})

    async def main() -> None:
        # Stream 0 is due at anchor + j * interval.
        anchor = asyncio.get_running_loop().time() + 0.01
        await run._churn_epochs(0, StallingClient(shard), shard, encoder,
                                anchor, 1, 14, Phase(), True)

    asyncio.run(main())
    lat = run.latency_ms
    assert len(lat) == 14
    stalled = STALLED_EPOCH - 1
    assert lat[stalled] >= 1e3 * STALL * 0.9
    # The next epochs were due while the stall held the stream: timed
    # from their due time they wait for it too.  A clock started after
    # the pacing sleep would read them as ~0.
    for behind in range(1, 4):
        assert lat[stalled + behind] >= 1e3 * (STALL - behind * INTERVAL) * 0.8
    assert run.late_fires >= 3
    # Once the backlog drains, epochs are on time again.
    assert min(lat[-3:]) < 1e3 * INTERVAL
