"""The correctness gate: replay what was served through the public
engine, resident and instance APIs, in process, after the window.

Every served decision must equal the replay's byte for byte (the moved
sites and their targets; for full mappings that is the same as equal
mappings, since both start from the placement the request carried),
and every decision is certified by :func:`repro.core.certify.certify`.

Service decisions are certified with the structural lower bounds
(average load, largest site) plus an explicit move-budget check: the
k-dependent bound of Lemma 1 is a pure-Python O(n) loop, about 70 ms
per decision at 200k sites, which would dwarf the window.  On these
Zipf loads the largest site dominates it anyway.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.certify import certify
from repro.core.engine import RebalanceEngine, snapshot_fingerprint
from repro.core.instance import Instance
from repro.core.result import RebalanceResult
from repro.service.protocol import (
    PROTOCOL_V2,
    decode_body,
    encode_frame,
    frame_header,
)
from repro.service.resident import ResidentShard, SolveResident

from .traffic import DriftCluster, changed_share

Moves = tuple[np.ndarray, np.ndarray]


def moves_of(result: RebalanceResult) -> Moves:
    moved = np.asarray(result.assignment.moved_jobs, dtype=np.int64)
    return moved, np.asarray(result.assignment.mapping[moved], dtype=np.int64)


def same_moves(a: Moves, b: Moves) -> bool:
    return a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


@dataclass
class Served:
    """What the generator saw for one request: its epoch and moves, or
    ``None`` moves when the request already failed."""

    epoch: int
    moves: Moves | None
    fingerprint: str | None = None


@dataclass
class GateReport:
    decisions: int = 0
    mismatches: int = 0
    violations: int = 0
    failed: list[int] = field(default_factory=list)   # epoch per failure
    ratios: list[float] = field(default_factory=list)
    decide_s: list[float] = field(default_factory=list)
    seed_s: list[float] = field(default_factory=list)
    changed: list[float] = field(default_factory=list)
    # The engine's own spans and counters over the replay's timed epochs.
    telemetry: telemetry.Collector = field(default_factory=telemetry.Collector)
    decode_s: list[float] = field(default_factory=list)
    fingerprint_s: list[float] = field(default_factory=list)

    def judge(self, served: list[Served], result: RebalanceResult, k: int,
              fingerprint: str | None = None) -> None:
        """Hold every decision served for one epoch to the replay's
        ``result`` and its certificate; list each failure by epoch."""
        if all(req.moves is None for req in served):
            return
        cert = certify(result)
        certified = cert.valid and cert.moves <= k
        expected = moves_of(result)
        for req in served:
            if req.moves is None:
                continue
            self.decisions += 1
            self.ratios.append(cert.proven_ratio)
            same = same_moves(req.moves, expected) and (
                fingerprint is None or req.fingerprint == fingerprint)
            self.mismatches += not same
            self.violations += not certified
            if not (same and certified):
                self.failed.append(req.epoch)


def _timed_decide(engine: RebalanceEngine, instance: Instance,
                  **kwargs) -> tuple[RebalanceResult, float]:
    start = time.perf_counter()
    result = engine.rebalance(instance, **kwargs)
    return result, time.perf_counter() - start


def time_decode(instance: Instance, report: GateReport, repeats: int) -> None:
    """Time the receive side of a full snapshot frame: v2 decode plus
    ``Instance`` validation, then the snapshot fingerprint."""
    frame = encode_frame(
        {"op": "rebalance", "shard": "s", "k": 1, "instance": instance.to_wire()},
        version=PROTOCOL_V2,
    )
    body = memoryview(frame)[len(frame_header(0, PROTOCOL_V2)):]
    for _ in range(repeats):
        start = time.perf_counter()
        decoded = Instance.from_dict(decode_body(body, PROTOCOL_V2)["instance"])
        mid = time.perf_counter()
        snapshot_fingerprint(decoded)
        report.decode_s.append(mid - start)
        report.fingerprint_s.append(time.perf_counter() - mid)


def replay_churn(seed_instance: Instance, deltas: list[dict],
                 served: list[Served], k: int, report: GateReport,
                 first_timed: int, traced: bool) -> None:
    """Replay one delta-churn shard: epoch 0 is the seed snapshot, epoch
    ``e >= 1`` applies ``deltas[e - 1]`` through the same resident
    frames the server uses and decides with their churn hint."""
    tip = ResidentShard(seed_instance)
    solve = SolveResident(seed_instance)
    engine = RebalanceEngine(k)
    n = seed_instance.num_jobs
    by_epoch = _by_epoch(served)
    with telemetry.collect() if traced else nullcontext() as col:
        mark = col.mark() if col is not None else None
        result, seconds = _timed_decide(
            engine, solve.view(), fingerprint=tip.fp.digest()
        )
        report.seed_s.append(seconds)
        report.judge(by_epoch.get(0, []), result, k)
        for epoch, delta in enumerate(deltas, start=1):
            frame, fp = tip.preview(delta)
            tip.commit(frame, fp)
            report.changed.append(frame.idx.shape[0] / n)
            hint = solve.apply([frame])
            if epoch == first_timed and col is not None:
                mark = col.mark()
            result, seconds = _timed_decide(
                engine, solve.view(), fingerprint=fp.digest(), changed=hint
            )
            if epoch >= first_timed:
                report.decide_s.append(seconds)
            # The view aliases arrays the next frame mutates, so the
            # decision is judged before the replay moves on.
            report.judge(by_epoch.get(epoch, []), result, k)
        if col is not None:
            report.telemetry.merge(col.since(mark))


def _by_epoch(served: list[Served]) -> dict[int, list[Served]]:
    out: dict[int, list[Served]] = {}
    for req in served:
        out.setdefault(req.epoch, []).append(req)
    return out


def replay_drift(seed: int, n: int, m: int, epochs: int,
                 served: list[Served], k: int, report: GateReport,
                 first_timed: int, traced: bool) -> None:
    """Replay the full-drift stream: regenerate each epoch's snapshot
    from the seed and the placement the served decision produced."""
    cluster = DriftCluster(seed, n, m)
    engine = RebalanceEngine(k)
    by_epoch = _by_epoch(served)
    previous: Instance | None = None
    with telemetry.collect() if traced else nullcontext() as col:
        mark = col.mark() if col is not None else None
        for epoch in range(epochs):
            instance = cluster.snapshot(epoch)
            if previous is not None:
                report.changed.append(changed_share(previous, instance))
            previous = instance
            if epoch == first_timed and col is not None:
                mark = col.mark()
            result, seconds = _timed_decide(engine, instance)
            if epoch == 0:
                report.seed_s.append(seconds)
            elif epoch >= first_timed:
                report.decide_s.append(seconds)
            reqs = by_epoch.get(epoch, [])
            report.judge(reqs, result, k, snapshot_fingerprint(instance).hex())
            if traced and epoch >= first_timed:
                time_decode(instance, report, repeats=1)
            # The generator moved on with the first served mapping, if
            # any arrived; on a mismatch the run has already failed.
            if any(req.moves is not None for req in reqs):
                cluster.placement = np.asarray(result.assignment.mapping,
                                               dtype=np.int64).copy()
        if col is not None:
            report.telemetry.merge(col.since(mark))

