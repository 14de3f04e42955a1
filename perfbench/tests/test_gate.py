"""The correctness gate rejects exactly the tampered decision."""

import numpy as np

from perfbench import gate
from perfbench.traffic import ChurnShard, DriftCluster
from repro.core.engine import RebalanceEngine, snapshot_fingerprint
from repro.service.resident import SolveResident

K = 24
N, M = 3000, 8


def _served_churn(epochs: int):
    """Serve a short churn stream the way the backend does."""
    shard = ChurnShard(seed=2, index=0, n=N, m=M, churn=16)
    engine = RebalanceEngine(K)
    solve = SolveResident(shard.seed_instance)
    served, deltas = [], []
    result = engine.rebalance(solve.view())
    served.append(gate.Served(0, gate.moves_of(result)))
    shard.note_moves(*gate.moves_of(result))
    for epoch in range(1, epochs + 1):
        delta = shard.step()
        frame, fp = shard.res.preview(delta)
        shard.res.commit(frame, fp)
        deltas.append(delta)
        result = engine.rebalance(solve.view(), fingerprint=fp.digest(),
                                  changed=solve.apply([frame]))
        moves = gate.moves_of(result)
        served.append(gate.Served(epoch, moves))
        shard.note_moves(*moves)
    return shard, served, deltas


def _tamper(moves: gate.Moves) -> gate.Moves:
    idx, to = moves
    if idx.shape[0]:
        return idx, (to + 1) % M
    return np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)


def test_churn_gate_passes_honest_and_rejects_tampered() -> None:
    shard, served, deltas = _served_churn(12)
    seed = ChurnShard(seed=2, index=0, n=N, m=M, churn=16).seed_instance
    honest = gate.GateReport()
    gate.replay_churn(seed, deltas, served, K, honest, 1, False)
    assert honest.decisions == 13 and not honest.failed
    assert honest.mismatches == honest.violations == 0

    served[5] = gate.Served(5, _tamper(served[5].moves))
    report = gate.GateReport()
    gate.replay_churn(seed, deltas, served, K, report, 1, False)
    assert report.mismatches == 1
    assert report.failed == [5]


def test_drift_gate_rejects_tampered_mapping() -> None:
    cluster = DriftCluster(seed=3, n=N, m=M)
    engine = RebalanceEngine(K)
    served = []
    for epoch in range(6):
        instance = cluster.snapshot(epoch)
        mapping = engine.rebalance(instance).assignment.mapping
        moved = np.flatnonzero(mapping != instance.initial)
        served.append(gate.Served(epoch, (moved, mapping[moved]),
                                  snapshot_fingerprint(instance).hex()))
        cluster.placement = np.asarray(mapping, dtype=np.int64).copy()
    served[3] = gate.Served(3, _tamper(served[3].moves), served[3].fingerprint)
    report = gate.GateReport()
    gate.replay_drift(3, N, M, 6, served, K, report, 1, False)
    assert report.decisions == 6
    assert report.failed == [3]

