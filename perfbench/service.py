"""The two service workloads: the shipped cluster driven from outside.

Deployment: two ``python -m repro serve`` backends behind one
``python -m repro router --backends ...``, every flag at its default
(replication to a standby on, thread executor, one router process).
One generator process drives it over ``STREAMS`` connections.

Pacing: epoch ``e`` of stream ``i`` is due at
``anchor + (e + i / STREAMS) * interval``.  Each stream is a closed loop
(an epoch carries the previous epoch's moves), so an epoch whose
predecessor returned late fires at once; every latency is timed from
the due time, so a stall also charges the epochs queued behind it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_V2,
    ProtocolError,
    RebalanceEncoder,
    encode_frame,
)

from . import gate
from .proc import Deployment
from .stats import beyond, ratio
from .trace import Tracer
from .traffic import ChurnShard, DriftCluster

FAILURES = (ServiceError, ProtocolError, OSError, asyncio.TimeoutError)
TIMEOUT_S = 30.0
SETUPS = 3          # deployments per run; setup_s is their median
EMPTY = np.empty(0, dtype=np.int64)
SERVERS = 64        # m, in both service workloads
K = 512             # move budget per decision, in both service workloads
STREAMS = 2         # generator connections, in both service workloads


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    sites: int
    interval_s: float
    # True: each stream is its own shard sending moves-only deltas;
    # False: all streams submit the same full snapshots of one cluster.
    deltas: bool
    warmup_epochs: int
    # Declared ranges of what defines the workload; a run outside any
    # of them measured some other workload and fails.
    checks: dict[str, tuple[float, float]]


DELTA_CHURN = ServiceSpec(
    "delta-churn", sites=200_000, interval_s=0.050,
    deltas=True, warmup_epochs=20,
    checks={
        "changed_share_max": (0.0, 0.01),
        "repeat_share": (0.0, 0.01),
        "passthrough_share": (0.99, 1.0),
        "incremental_share": (0.99, 1.0),
        "shared_share": (0.0, 0.05),
    },
)
FULL_DRIFT = ServiceSpec(
    "full-drift", sites=50_000, interval_s=0.100,
    deltas=False, warmup_epochs=10,
    checks={
        "changed_share_min": (0.99, 1.0),
        "repeat_share": (0.45, 0.55),
        "passthrough_share": (0.0, 0.01),
        "incremental_share": (0.0, 0.01),
        "shared_share": (0.35, 0.65),
    },
)
CHURN_CHANGE = 16   # sites whose load changes per delta-churn epoch


def check_ranges(checks: dict[str, tuple[float, float]],
                 measured: dict[str, float]) -> list[str]:
    """Every declared self-check that the measurement violates."""
    out = []
    for name, (lo, hi) in checks.items():
        value = measured.get(name)
        if value is None or not lo <= value <= hi:
            out.append(f"{name}={value} outside [{lo}, {hi}]")
    return out


@dataclass
class Phase:
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0


async def wait_due(due: float, lateness: list[float] | None) -> None:
    """Sleep until ``due``.  When the generator had to sleep, how late
    it woke is its own schedule error; an epoch already overdue (its
    predecessor returned late) fires at once and is the system's."""
    loop = asyncio.get_running_loop()
    delay = due - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
        if lateness is not None:
            lateness.append(max(0.0, 1e3 * (loop.time() - due)))


def flatten_status(status: dict[str, Any]) -> dict[str, float]:
    """Router counters plus every backend's counters, histogram sums and
    counts, span totals and per-shard engine stats, summed."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + float(value)

    router = status.get("router")
    if router is not None:
        for key, value in router["metrics"]["counters"].items():
            add(key, value)
    backends = status["backends"].values() if "backends" in status else [status]
    for backend in backends:
        metrics = backend.get("metrics", {})
        for key, value in metrics.get("counters", {}).items():
            add(key, value)
        for key, hist in metrics.get("histograms", {}).items():
            add(key + ".sum", hist["sum"])
            add(key + ".count", hist["count"])
        for key, span in metrics.get("spans", {}).items():
            add(key + ".calls", span["calls"])
            add(key + ".seconds", span["seconds"])
        for shard in (backend.get("shards") or {}).values():
            for key, value in (shard.get("engine") or {}).items():
                add("engine." + key, value)
    return out


def status_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    b, a = flatten_status(before), flatten_status(after)
    return {key: a.get(key, 0.0) - b.get(key, 0.0) for key in set(a) | set(b)}


class ServiceRun:
    """One run of a service workload, from deployment to gate."""

    def __init__(self, spec: ServiceSpec, seed: int, seconds: float,
                 trace: bool, run_dir: Path, src: Path,
                 router: bool = True) -> None:
        self.spec = spec
        self.seed = seed
        self.trace = trace
        # False: one lone ``serve``, the traced run's direct leg.
        self.router = router
        self.run_dir = run_dir
        self.src = src
        self.window_epochs = max(1, round(seconds / spec.interval_s))
        self.phases = {name: Phase() for name in ("seed", "warmup", "window")}
        self.served: list[list[gate.Served]] = [[] for _ in range(STREAMS)]
        self.deltas: list[list[dict]] = [[] for _ in range(STREAMS)]
        self.latency_ms: list[float] = []
        self.lateness_ms: list[float] = []
        self.request_bytes: list[int] = []
        self.response_bytes: list[int] = []
        self.fingerprints: list[str] = []
        self.late_fires = 0
        self.delta_fallbacks = 0
        self.tracer = Tracer(False)
        self.setup_s: list[float] = []
        self.notes: list[str] = []

    # -- requests ------------------------------------------------------
    def _record(self, phase: Phase, stream: int, epoch: int, due: float,
                done: float, moves: gate.Moves | None,
                fingerprint: str | None, timed: bool) -> None:
        self.served[stream].append(gate.Served(epoch, moves, fingerprint))
        if moves is None:
            phase.failed += 1
            return
        phase.succeeded += 1
        if timed:
            self.latency_ms.append(1e3 * (done - due))
            if fingerprint is not None:
                self.fingerprints.append(fingerprint)

    def _full_message(self, shard: str, instance) -> dict[str, Any]:
        return {"op": "rebalance", "shard": shard, "k": K,
                "moves_only": True, "instance": instance.to_wire()}

    async def _churn_epochs(self, i: int, client: AsyncServiceClient,
                            shard: ChurnShard, encoder: RebalanceEncoder,
                            anchor: float, first: int, count: int,
                            phase: Phase, timed: bool) -> None:
        loop = asyncio.get_running_loop()
        tr = self.tracer
        name = f"churn-{i}"
        for j in range(count):
            due = anchor + (j + i / STREAMS) * self.spec.interval_s
            if timed and due <= loop.time():
                self.late_fires += 1
            await wait_due(due, self.lateness_ms if timed else None)
            with tr.span("epoch", root=True):
                with tr.span("gen.step"):
                    delta = shard.step()
                    with tr.span("resident.apply"):
                        shard.commit(delta)
                self.deltas[i].append(delta)
                with tr.span("client.encode"):
                    frame = encoder.encode(delta)
                if tr.enabled:
                    self.request_bytes.append(len(frame))
                phase.attempted += 1
                try:
                    with tr.span("client.rpc"):
                        resp = await client.call_encoded(frame, shard=name)
                        if resp.get("error") == "unknown base":
                            self.delta_fallbacks += 1
                            resp = await client.call(self._full_message(
                                name, shard.res.export_instance()))
                except FAILURES as exc:
                    self.notes.append(f"{name} epoch {first + j}: {exc!r}")
                    resp = None
                done = loop.time()
                # The frame views the encoder's buffer, which the next
                # encode may have to grow.
                del frame
                with tr.span("client.apply"):
                    moves = self._churn_moves(resp, shard.res.fp_hex)
                    shard.note_moves(*(moves or (EMPTY, EMPTY)))
                if tr.enabled and resp is not None:
                    self.response_bytes.append(
                        len(encode_frame(resp, version=PROTOCOL_V2)))
            self._record(phase, i, first + j, due, done, moves,
                         resp.get("fingerprint") if resp else None, timed)

    @staticmethod
    def _churn_moves(resp: dict[str, Any] | None, tip: str) -> gate.Moves | None:
        if resp is None or not resp.get("ok") or resp.get("fingerprint") != tip:
            return None
        return (np.asarray(resp["moves_idx"], dtype=np.int64),
                np.asarray(resp["moves_to"], dtype=np.int64))

    async def _drift_request(self, i: int, client: AsyncServiceClient,
                             instance, epoch: int, due: float, phase: Phase,
                             timed: bool) -> gate.Moves | None:
        tr = self.tracer
        with tr.span("client.encode"):
            frame = encode_frame(
                {"op": "rebalance", "shard": "drift", "k": K,
                 "instance": instance.to_wire()},
                version=PROTOCOL_V2,
            )
        if tr.enabled:
            self.request_bytes.append(len(frame))
        phase.attempted += 1
        try:
            with tr.span("client.rpc"):
                resp = await client.call_encoded(frame, shard="drift")
        except FAILURES as exc:
            self.notes.append(f"frontend {i} epoch {epoch}: {exc!r}")
            resp = None
        done = asyncio.get_running_loop().time()
        moves = None
        if resp is not None and resp.get("ok") and "mapping" in resp:
            mapping = np.asarray(resp["mapping"], dtype=np.int64)
            if mapping.shape == instance.initial.shape:
                moved = np.flatnonzero(mapping != instance.initial)
                moves = (moved, mapping[moved])
        self._record(phase, i, epoch, due, done, moves,
                     resp.get("fingerprint") if resp else None, timed)
        if tr.enabled and resp is not None:
            self.response_bytes.append(len(encode_frame(resp, version=PROTOCOL_V2)))
        return moves

    async def _drift_epochs(self, clients: list[AsyncServiceClient],
                            cluster: DriftCluster, anchor: float, first: int,
                            count: int, phase: Phase, timed: bool) -> None:
        loop = asyncio.get_running_loop()
        tr = self.tracer
        for j in range(count):
            epoch = first + j
            due = anchor + j * self.spec.interval_s
            if timed and due <= loop.time():
                self.late_fires += 1
            await wait_due(due, self.lateness_ms if timed else None)
            with tr.span("epoch", root=True):
                with tr.span("gen.step"):
                    instance = cluster.snapshot(epoch)
                results = await asyncio.gather(*(
                    self._drift_request(i, c, instance, epoch, due, phase, timed)
                    for i, c in enumerate(clients)
                ))
                with tr.span("client.apply"):
                    for moves in results:
                        if moves is not None:
                            placement = instance.initial.copy()
                            placement[moves[0]] = moves[1]
                            cluster.placement = placement
                            break

    # -- phases --------------------------------------------------------
    def _traffic(self) -> list[ChurnShard] | DriftCluster:
        spec = self.spec
        if spec.deltas:
            return [ChurnShard(self.seed, i, spec.sites, SERVERS, CHURN_CHANGE)
                    for i in range(STREAMS)]
        return DriftCluster(self.seed, spec.sites, SERVERS)

    async def _deploy(self, traffic
                      ) -> tuple[Deployment, list[AsyncServiceClient]]:
        """Launch the system and seed every shard with a full snapshot;
        the time until the last seed decision arrives is one ``setup_s``
        sample."""
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        dep = await loop.run_in_executor(
            None, Deployment, self.run_dir, self.src,
            2 if self.router else 1, self.router,
        )
        clients = [
            AsyncServiceClient("127.0.0.1", dep.port, timeout=TIMEOUT_S,
                               retries=2, protocol="binary")
            for _ in range(STREAMS)
        ]
        try:
            phase = self.phases["seed"]
            due = loop.time()
            if isinstance(traffic, DriftCluster):
                await self._drift_epochs(clients, traffic, due, 0, 1, phase, False)
            else:
                await asyncio.gather(*(
                    self._seed_churn(i, c, traffic[i], phase, due)
                    for i, c in enumerate(clients)
                ))
        except BaseException:
            await self._close(dep, clients)
            raise
        self.setup_s.append(time.perf_counter() - start)
        return dep, clients

    async def _seed_churn(self, i: int, client: AsyncServiceClient,
                          shard: ChurnShard, phase: Phase, due: float) -> None:
        name = f"churn-{i}"
        phase.attempted += 1
        try:
            resp = await client.call(self._full_message(name, shard.seed_instance))
        except FAILURES as exc:
            self.notes.append(f"{name} seed: {exc!r}")
            resp = None
        moves = self._churn_moves(resp, shard.res.fp_hex)
        self._record(phase, i, 0, due, asyncio.get_running_loop().time(),
                     moves, None, False)
        shard.note_moves(*(moves or (EMPTY, EMPTY)))

    @staticmethod
    async def _close(dep: Deployment, clients: list[AsyncServiceClient]) -> None:
        for client in clients:
            await client.close()
        await asyncio.get_running_loop().run_in_executor(None, dep.stop)

    async def _epochs(self, clients, traffic, first: int, count: int,
                      phase: Phase, timed: bool) -> None:
        anchor = asyncio.get_running_loop().time() + 0.01
        if isinstance(traffic, DriftCluster):
            await self._drift_epochs(clients, traffic, anchor, first, count,
                                     phase, timed)
        else:
            await asyncio.gather(*(
                self._churn_epochs(i, c, traffic[i], RebalanceEncoder(
                    {"op": "rebalance", "shard": f"churn-{i}",
                     "k": K, "moves_only": True}),
                    anchor, first, count, phase, timed)
                for i, c in enumerate(clients)
            ))

    async def drive(self) -> dict[str, Any]:
        """Deploy (``SETUPS`` times untraced), warm up, run the window
        between ``status`` and /proc readings, and stop everything."""
        spec = self.spec
        setups = 1 if self.trace else SETUPS
        for rep in range(setups):
            traffic = self._traffic()
            dep, clients = await self._deploy(traffic)
            if rep < setups - 1:
                # Its seed decisions stay in ``served``: every
                # deployment got the same snapshot, so the gate holds
                # them all to the same replayed decision.
                await self._close(dep, clients)
        out: dict[str, Any] = {}
        try:
            W = spec.warmup_epochs
            await self._epochs(clients, traffic, 1, W, self.phases["warmup"], False)
            first = W + 1
            if self.trace and self.router:
                # Untraced half window in the same deployment: the
                # baseline the tracing overhead is measured against.
                half = max(1, self.window_epochs // 2)
                await self._epochs(clients, traffic, first, half,
                                   self.phases["warmup"], True)
                out["untraced_p50_ms"] = np.median(self.latency_ms or [0.0])
                self.latency_ms.clear()
                self.lateness_ms.clear()
                self.fingerprints.clear()
                self.late_fires = 0
                first += half
            self.tracer = Tracer(self.trace)
            before = await clients[0].status()
            cpu0, gen0 = dep.cpu_s(), time.process_time()
            await self._epochs(clients, traffic, first, self.window_epochs,
                               self.phases["window"], True)
            cpu1, gen1 = dep.cpu_s(), time.process_time()
            after = await clients[0].status()
            out.update(
                first_window_epoch=first,
                last_epoch=first + self.window_epochs - 1,
                status=status_delta(before, after),
                cpu_s={role: cpu1[role] - cpu0[role] for role in cpu0},
                gen_cpu_s=gen1 - gen0,
                rss_mb=dep.hwm_mb(),
            )
        finally:
            await self._close(dep, clients)
        if self.trace and self.router:
            out["direct_rpc_ms"] = await self._direct_leg()
        return out

    async def _direct_leg(self) -> float:
        """The same seeded traffic at one lone ``serve``: the round-trip
        p50 the router hop is measured against.  Its decisions must
        equal the routed run's, epoch for epoch."""
        direct = ServiceRun(self.spec, self.seed,
                            self.window_epochs * self.spec.interval_s / 2,
                            True, self.run_dir, self.src, router=False)
        await direct.drive()
        routed = {(i, s.epoch): s.moves for i, reqs in enumerate(self.served)
                  for s in reqs if s.moves is not None}
        mismatched = sum(
            1 for i, reqs in enumerate(direct.served) for s in reqs
            if s.moves is not None and (
                (i, s.epoch) not in routed
                or not gate.same_moves(s.moves, routed[(i, s.epoch)]))
        )
        for name, phase in direct.phases.items():
            mine = self.phases[name]
            mine.attempted += phase.attempted
            mine.succeeded += phase.succeeded
            mine.failed += phase.failed
        self.phases["window"].succeeded -= mismatched
        self.phases["window"].failed += mismatched
        if mismatched:
            self.notes.append(f"direct leg: {mismatched} decisions differ")
        self.notes.extend(direct.notes)
        return direct.tracer.median_ms("client.rpc")

    # -- gate ----------------------------------------------------------
    def replay(self, first_timed: int, last_epoch: int) -> gate.GateReport:
        spec = self.spec
        report = gate.GateReport()
        if spec.deltas:
            for i, shard in enumerate(self._traffic()):
                gate.replay_churn(shard.seed_instance, self.deltas[i],
                                  self.served[i], K, report,
                                  first_timed, self.trace)
            if self.trace:
                for shard in self._traffic():
                    gate.time_decode(shard.seed_instance, report, repeats=5)
        else:
            served = [s for reqs in self.served for s in reqs]
            gate.replay_drift(self.seed, spec.sites, SERVERS,
                              last_epoch + 1, served, K, report,
                              first_timed, self.trace)
        return report


def run_service(spec: ServiceSpec, seed: int, seconds: float, trace: bool,
                run_dir: Path, src: Path) -> dict[str, Any]:
    run = ServiceRun(spec, seed, seconds, trace, run_dir, src)
    drive = asyncio.run(run.drive())
    report = run.replay(drive["first_window_epoch"], drive["last_epoch"])
    return summarize(run, drive, report)


def _phase_of(epoch: int, drive: dict) -> str:
    if epoch == 0:
        return "seed"
    return "window" if epoch >= drive["first_window_epoch"] else "warmup"


def summarize(run: ServiceRun, drive: dict[str, Any],
              report: gate.GateReport) -> dict[str, Any]:
    spec = run.spec
    # Gate failures join the request failures of their phase.
    for epoch in report.failed:
        phase = run.phases[_phase_of(epoch, drive)]
        phase.failed += 1
        phase.succeeded -= 1
    st = drive["status"]
    epochs = run.window_epochs * (STREAMS if spec.deltas else 1)
    requests = st.get("service.requests", 0.0)
    fresh = st.get("engine.decisions", 0.0) - st.get("engine.cache_hits", 0.0)
    repeats = len(run.fingerprints) - len(set(run.fingerprints))
    measured = {
        "changed_share_max": max(report.changed) if report.changed else None,
        "changed_share_min": min(report.changed) if report.changed else None,
        "repeat_share": ratio(repeats, len(run.fingerprints)),
        "passthrough_share": ratio(st.get("router.resident_deltas", 0.0),
                                   st.get("router.requests", 0.0)),
        "incremental_share": ratio(st.get("engine.incremental_decides", 0.0), fresh),
        "shared_share": ratio(
            st.get("service.deduped", 0.0) + st.get("service.decision_hits", 0.0)
            + st.get("engine.cache_hits", 0.0), requests),
    }
    problems = check_ranges(spec.checks, measured)
    lateness_p99 = np.percentile(run.lateness_ms, 99) if run.lateness_ms else 0.0
    if lateness_p99 > 0.25 * 1e3 * spec.interval_s:
        problems.append(f"generator lateness p99 {lateness_p99:.2f} ms: "
                        "the generator missed its schedule")
    if len(run.latency_ms) < 100:
        problems.append(f"only {len(run.latency_ms)} latency samples")
    # A run whose every request failed still reports (and fails).
    lat = run.latency_ms or [0.0]
    attempted = sum(p.attempted for p in run.phases.values())
    failed = sum(p.failed for p in run.phases.values())
    cpu = drive["cpu_s"]
    e2e = {
        "setup_s": (np.median(run.setup_s), "s"),
        "decide_p50_ms": (np.median(lat), "ms"),
        "cpu_ms_per_epoch": (1e3 * (cpu["router"] + cpu["server"]) / epochs, "ms"),
        "rss_mb": (drive["rss_mb"], "MB"),
        "proven_ratio": (ratio(sum(report.ratios), len(report.ratios)), "1"),
        # Solve seconds the backends spent on the window's batch, from
        # their own ``service.solve`` span: spread over the whole window,
        # so a few seconds of host slowdown move it less than a replay.
        "batch_s": (st.get("service.solve.seconds", 0.0), "s"),
    }
    lines = [
        f"{spec.name}: {STREAMS} streams x {run.window_epochs} window epochs "
        f"every {1e3 * spec.interval_s:g} ms, {len(run.latency_ms)} samples",
        f"decide ms: mean {sum(lat) / len(lat):.3f}, p50 {np.median(lat):.3f}, "
        f"p90 {np.percentile(lat, 90):.3f}, "
        f"p99 {np.percentile(lat, 99):.3f} ({beyond(lat, 99)} samples beyond p99)",
        "phases: " + ", ".join(
            f"{name} {p.attempted}/{p.succeeded}/{p.failed}"
            for name, p in run.phases.items()) + " (attempted/succeeded/failed)",
        f"failed_frac {ratio(failed, attempted):.6f}; gate: {report.decisions} "
        f"decisions, {report.mismatches} mismatches, {report.violations} violations",
        "self-checks: " + ", ".join(
            f"{k}={v:.4g}" for k, v in measured.items() if v is not None),
        f"generator: lateness p99 {lateness_p99:.3f} ms, cpu "
        f"{1e3 * drive['gen_cpu_s'] / epochs:.3f} ms/epoch, "
        f"{run.late_fires} overdue fires, {run.delta_fallbacks} full resends "
        "after an unknown delta base",
    ] + [f"problem: {p}" for p in problems] + run.notes[:10]
    out = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "lines": lines,
    }
    if run.trace:
        out["layers"] = layer_metrics(run, drive, report, measured, epochs,
                                      lateness_p99, lat)
        run.tracer.write(run.run_dir.parent / f"trace-{spec.name}-{run.seed}.json")
    return out


def layer_metrics(run: ServiceRun, drive: dict[str, Any],
                  report: gate.GateReport, measured: dict[str, float],
                  epochs: int, lateness_p99: float,
                  lat: list[float]) -> dict[str, tuple[float, str]]:
    st = drive["status"]
    tr = run.tracer
    cpu = drive["cpu_s"]
    requests = st.get("service.requests", 0.0)
    fresh = st.get("engine.decisions", 0.0) - st.get("engine.cache_hits", 0.0)
    latency_n = st.get("service.latency_ms.count", 0.0)
    solve_s = st.get("service.solve.seconds", 0.0)
    decides = len(report.decide_s)
    spans = report.telemetry.spans

    def span_ms(*names: str) -> float:
        return ratio(1e3 * sum(spans.get(n, (0, 0.0))[1] for n in names), decides)

    server_latency = ratio(st.get("service.latency_ms.sum", 0.0), latency_n)
    rpc_ms = tr.median_ms("client.rpc")
    return {
        "client.encode_ms": (tr.median_ms("client.encode"), "ms"),
        "client.rpc_ms": (rpc_ms, "ms"),
        "client.request_kb": (np.median(run.request_bytes or [0]) / 1024, "KiB"),
        "client.response_kb": (np.median(run.response_bytes or [0]) / 1024, "KiB"),
        "router.hop_ms": (rpc_ms - drive["direct_rpc_ms"], "ms"),
        "router.cpu_ms_per_epoch": (1e3 * cpu["router"] / epochs, "ms"),
        "router.passthrough_share": (measured["passthrough_share"], "1"),
        "router.relay_share": (ratio(st.get("router.relayed_fulls", 0.0),
                                     st.get("router.requests", 0.0)), "1"),
        "router.replicated_per_epoch": (st.get("router.replicated", 0.0) / epochs, "1"),
        "router.replication_errors": (st.get("router.replication_errors", 0.0), "count"),
        "router.replication_collapses": (
            st.get("router.replication_collapses", 0.0), "count"),
        "router.delta_fallbacks": (st.get("router.delta_fallbacks", 0.0), "count"),
        "router.tip_races": (st.get("router.tip_races", 0.0), "count"),
        "server.latency_ms": (server_latency, "ms"),
        "server.solve_ms": (ratio(1e3 * solve_s, st.get("service.solve.calls", 0.0)),
                            "ms"),
        "server.wait_ms": (server_latency - ratio(1e3 * solve_s, latency_n), "ms"),
        "server.batch_size": (ratio(st.get("service.batch_size.sum", 0.0),
                                    st.get("service.batch_size.count", 0.0)), "1"),
        "server.shared_share": (measured["shared_share"], "1"),
        # A standby's O(churn) replicate also counts a resident delta
        # (and a replication); only the request path's share is wanted.
        "server.resident_share": (ratio(max(0.0, st.get("service.resident_deltas", 0.0)
                                            - st.get("service.replicated", 0.0)),
                                        requests), "1"),
        "server.installs": (st.get("service.resident_installs", 0.0), "count"),
        "server.cpu_ms_per_epoch": (1e3 * cpu["server"] / epochs, "ms"),
        "server.rejected": (st.get("service.rejected", 0.0), "count"),
        "server.shed": (st.get("service.shed", 0.0), "count"),
        "server.delta_misses": (st.get("service.delta_misses", 0.0), "count"),
        "resident.apply_us": (1e3 * tr.median_ms("resident.apply"), "us"),
        "engine.decide_ms": (1e3 * np.median(report.decide_s), "ms"),
        "engine.patch_ms": (span_ms("engine.patch_tables", "engine.build_tables"), "ms"),
        "engine.scan_ms": (span_ms("engine.scan", "engine.scan_incremental"), "ms"),
        "engine.construct_ms": (span_ms("engine.construct"), "ms"),
        "engine.seed_ms": (1e3 * np.median(report.seed_s), "ms"),
        "engine.incremental_share": (measured["incremental_share"], "1"),
        "engine.cache_hit_share": (ratio(st.get("engine.cache_hits", 0.0),
                                         st.get("engine.decisions", 0.0)), "1"),
        "engine.buckets_per_decide": (ratio(st.get("engine.buckets_patched", 0.0),
                                            fresh), "1"),
        "engine.thresholds_per_decide": (ratio(st.get("engine.thresholds_tried", 0.0),
                                               fresh), "1"),
        "engine.churn_fallbacks": (st.get("engine.churn_fallbacks", 0.0), "count"),
        "instance.decode_ms": (1e3 * np.median(report.decode_s), "ms"),
        "instance.fingerprint_ms": (1e3 * np.median(report.fingerprint_s), "ms"),
        "decide.p90_ms": (np.percentile(lat, 90), "ms"),
        "decide.p99_ms": (np.percentile(lat, 99), "ms"),
        "gen.lateness_p99_ms": (lateness_p99, "ms"),
        "gen.cpu_ms_per_epoch": (1e3 * drive["gen_cpu_s"] / epochs, "ms"),
        "gen.changed_share": (measured["changed_share_max"]
                              if run.spec.deltas
                              else measured["changed_share_min"], "1"),
        "gen.repeat_share": (measured["repeat_share"], "1"),
        "trace.overhead_ms": (np.median(lat) - drive["untraced_p50_ms"], "ms"),
    }
