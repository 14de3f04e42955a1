"""Open-loop load generator for the rebalancing service.

*Open-loop* means arrivals follow the configured rate no matter how the
server is doing — request ``i`` is dispatched at ``start + i/rate``
even if every earlier request is still in flight.  That is the only
honest way to measure a service under overload: a closed loop slows its
own arrival rate to match the server and hides the collapse.

The synthetic workload mirrors the paper's setting: one simulated web
cluster whose site loads drift epoch by epoch (diurnal + flash-crowd
traffic), observed by ``duplicates`` independent frontends — so every
epoch snapshot is submitted ``duplicates`` times, back to back, which
is exactly the redundancy the server's single-flight coalescing and
response memo exist to collapse.

The report records client-observed latency percentiles (via
:class:`repro.telemetry.Histogram`), completions, rejections
(admission backpressure), shed requests (server-side deadline
expiries), transport/protocol errors, and **goodput**: completed
requests per second that made their deadline — the number a capacity
plan actually cares about.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .. import telemetry
from ..core.instance import Instance
from .client import AsyncServiceClient, Overloaded, ServiceError, _WireState
from .protocol import ProtocolError, RebalanceEncoder
from .resident import ResidentShard

__all__ = [
    "CALIBRATIONS",
    "ChurnStreamConfig",
    "ChurnStreamReport",
    "LoadGenConfig",
    "LoadGenReport",
    "LocalChurnStream",
    "build_snapshots",
    "calibrate_workload",
    "calibrate_wire_workload",
    "churn_delta",
    "run_churn_stream",
    "run_loadgen",
]


@dataclass(frozen=True)
class LoadGenConfig:
    """Arrival process, workload shape, and per-request policy."""

    rate: float = 50.0           # arrivals per second, open loop
    duration_s: float = 2.0      # arrival window
    connections: int = 8         # persistent connection pool size
    shard: str = "default"
    shards: int = 1              # distinct server shards round-robined
    k: int = 8
    deadline_ms: float | None = 500.0
    duplicates: int = 4          # identical submissions per snapshot
    num_sites: int = 600
    num_servers: int = 12
    epochs: int = 64             # distinct snapshots, cycled
    seed: int = 0
    timeout: float = 30.0
    retries: int = 0             # retrying would distort the open loop
    protocol: str = "json"       # "json" (v1) | "binary" (v2)
    delta: bool = False          # changed-site snapshots (binary only)
    traffic: str = "drift"       # "drift" | "steady" (sparse churn)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.duplicates <= 0:
            raise ValueError("duplicates must be positive")
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.protocol not in ("json", "binary"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.delta and self.protocol != "binary":
            raise ValueError("delta snapshots require the binary protocol")
        if self.traffic not in ("drift", "steady", "churn"):
            raise ValueError(f"unknown traffic model {self.traffic!r}")

    def shard_for(self, index: int) -> str:
        """The shard request ``index`` goes to.

        With ``shards == 1`` every request hits ``shard`` (the original
        single-lane workload).  With more, consecutive ``duplicates``
        requests share one shard and the shards round-robin, so each of
        the ``shards`` lanes sees its own coherent snapshot stream —
        the multi-shard workload a router spreads over backends.
        """
        if self.shards == 1:
            return self.shard
        return f"{self.shard}-{(index // self.duplicates) % self.shards}"

    def snapshot_index(self, index: int) -> int:
        """Which epoch snapshot request ``index`` carries (all shards
        advance through the same epoch stream in lockstep)."""
        return index // (self.duplicates * self.shards)


@dataclass
class LoadGenReport:
    """Everything one load-generation run measured."""

    offered: int = 0
    completed: int = 0           # ok within deadline (goodput numerator)
    late: int = 0                # ok but past the client deadline
    rejected: int = 0            # admission backpressure ("overloaded")
    shed: int = 0                # server-side deadline expiry
    errors: int = 0              # transport / protocol / internal
    deltas_sent: int = 0         # requests shipped as delta frames
    fulls_sent: int = 0          # requests shipped as full snapshots
    duration_s: float = 0.0
    latency_ms: telemetry.Histogram = field(default_factory=telemetry.Histogram)

    @property
    def goodput_per_s(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def p50_ms(self) -> float:
        return self.latency_ms.quantile(0.50)

    @property
    def p95_ms(self) -> float:
        return self.latency_ms.quantile(0.95)

    @property
    def p99_ms(self) -> float:
        return self.latency_ms.quantile(0.99)

    def as_dict(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "late": self.late,
            "rejected": self.rejected,
            "shed": self.shed,
            "errors": self.errors,
            "deltas_sent": self.deltas_sent,
            "fulls_sent": self.fulls_sent,
            "duration_s": self.duration_s,
            "goodput_per_s": self.goodput_per_s,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "latency_ms": self.latency_ms.as_dict(),
        }

    def render(self) -> str:
        text = (
            f"offered {self.offered} in {self.duration_s:.2f}s | "
            f"goodput {self.goodput_per_s:.1f}/s "
            f"(ok {self.completed}, late {self.late}, "
            f"rejected {self.rejected}, shed {self.shed}, "
            f"errors {self.errors}) | latency ms "
            f"p50 {self.p50_ms:.1f} p95 {self.p95_ms:.1f} "
            f"p99 {self.p99_ms:.1f}"
        )
        if self.deltas_sent:
            text += f" | deltas {self.deltas_sent}/{self.deltas_sent + self.fulls_sent}"
        return text


def build_snapshots(config: LoadGenConfig) -> list[Instance]:
    """Pre-generate the epoch snapshot stream the frontends observe.

    One cluster, placement held at round-robin (the load generator
    measures the service, not the policy — migrating between snapshots
    would entangle the two).  Two traffic models:

    * ``"drift"`` (default) — diurnal cycle plus flash crowds.  The
      diurnal term moves *every* site's load every epoch: the original
      E14 workload, and the worst case for delta snapshots.
    * ``"steady"`` — flash crowds only.  Non-spiked sites keep their
      baseline popularity bit for bit, so consecutive epochs differ in
      a handful of sites: the steady-state sparse-churn regime delta
      snapshots exist for.
    * ``"churn"`` — flash crowds every epoch (probability one).  Like
      ``"steady"`` the churn is sparse, but *every* snapshot is
      guaranteed distinct, so no two consecutive requests share a
      fingerprint and the server can never collapse them: the
      regime that isolates per-request transport cost.
    """
    from ..websim.simulator import build_cluster
    from ..websim.traffic import (
        ComposedTraffic,
        DiurnalTraffic,
        FlashCrowdTraffic,
    )

    rng = np.random.default_rng(config.seed)
    cluster = build_cluster(config.num_sites, config.num_servers, rng)
    if config.traffic == "steady":
        traffic = FlashCrowdTraffic(probability=0.1)
    elif config.traffic == "churn":
        traffic = FlashCrowdTraffic(probability=1.0)
    else:
        traffic = ComposedTraffic(
            (DiurnalTraffic(), FlashCrowdTraffic(probability=0.1))
        )
    snapshots = []
    for epoch in range(config.epochs):
        traffic.step(cluster.sites, epoch, rng)
        snapshots.append(cluster.to_instance())
    return snapshots


def calibrate_workload(
    *,
    seed: int = 14,
    target_solve_s: float = 0.015,
    num_sites: int = 3_000,
    k: int = 8,
    epochs: int = 24,
    max_servers: int = 2_048,
) -> tuple[LoadGenConfig, float]:
    """Grow the server count until one from-scratch solve costs at
    least ``target_solve_s`` on this host; return the config and the
    measured scratch solve time.

    E14 compares serving strategies, not machines: what matters is the
    ratio between the offered rate and the naive server's capacity (one
    from-scratch solve per request).  Pinning the solve *time* rather
    than the instance *size* pins that ratio across hosts — a faster
    machine just gets a proportionally bigger cluster to rebalance.

    The snapshot keeps ``num_sites`` sites and the server count doubles
    from 32, so the per-request JSON cost — which grows only with sites
    and bounds what the *batched* server can absorb — is the same on
    every host.  Solve time now grows only weakly with the server count:
    table build, threshold scan and construction read all servers' table
    rows with whole-array operations, so no per-server Python work is
    left to scale.  At 3,000 sites one solve costs 1-2 ms at 32
    servers and 2-4 ms at 2,048 on a 2-vCPU host, well short of the
    15 ms target, so the doubling stops at the ``max_servers`` cap and
    returns a solve time below the target.
    """
    from ..core.partition import m_partition_rebalance

    num_servers = 32
    while True:
        config = LoadGenConfig(
            num_sites=num_sites, num_servers=num_servers, k=k,
            epochs=epochs, seed=seed,
        )
        snapshot = build_snapshots(replace(config, epochs=1))[0]
        scratch_s = float("inf")
        for _ in range(2):  # best-of-2 strips scheduler spikes
            start = time.perf_counter()
            m_partition_rebalance(snapshot, k)
            scratch_s = min(scratch_s, time.perf_counter() - start)
        if scratch_s >= target_solve_s or num_servers * 2 > max_servers:
            return config, scratch_s
        num_servers *= 2


def calibrate_wire_workload(
    *,
    seed: int = 15,
    target_codec_s: float = 0.0035,
    num_servers: int = 16,
    k: int = 8,
    shards: int = 4,
    duplicates: int = 8,
    epochs: int = 32,
    max_sites: int = 24_000,
) -> tuple[LoadGenConfig, float]:
    """Grow the snapshot until one v1-JSON codec round — encoding a
    rebalance request plus decoding its response — costs at least
    ``target_codec_s`` on this host; return the (steady-traffic,
    multi-shard) config and the measured codec time.

    E15 compares transports, not solvers: what matters is the ratio
    between the offered rate and the rate the v1 JSON codec can push
    through a single event loop.  Pinning the codec *time* pins that
    ratio across hosts, exactly as :func:`calibrate_workload` pins the
    scratch solve time for E14.  The timed round is the client's own
    per-request serialization work — ``to_dict`` + request encode, then
    response ``json.loads`` — which is the v1 pipeline's slowest single
    stage and therefore its capacity bound no matter how many cores the
    server side has.
    """
    import json

    from .protocol import encode_frame, ok_response

    num_sites = 1500
    while True:
        config = LoadGenConfig(
            num_sites=num_sites, num_servers=num_servers, k=k,
            epochs=epochs, seed=seed, shards=shards,
            duplicates=duplicates, traffic="steady",
        )
        snapshot = build_snapshots(replace(config, epochs=1))[0]
        response_frame = encode_frame(ok_response(
            mapping=list(range(num_servers)) * (num_sites // num_servers + 1),
            guessed_opt=1.0, planned_moves=0, algorithm="engine",
            shard="calibrate",
        ))
        codec_s = float("inf")
        for _ in range(2):  # best-of-2 strips scheduler spikes
            start = time.perf_counter()
            encode_frame({
                "op": "rebalance", "shard": "calibrate", "k": k,
                "deadline_ms": 300.0, "instance": snapshot.to_dict(),
            })
            json.loads(response_frame[4:])
            codec_s = min(codec_s, time.perf_counter() - start)
        if codec_s >= target_codec_s or num_sites * 2 > max_sites:
            return config, codec_s
        num_sites *= 2


async def _run_async(
    host: str, port: int, config: LoadGenConfig
) -> LoadGenReport:
    snapshots = build_snapshots(config)
    report = LoadGenReport()
    loop = asyncio.get_running_loop()

    # All connections share one wire state: the delta base belongs to
    # the frontend that observed the snapshot, not to a TCP connection.
    # Without this, every ephemeral overflow connection's first request
    # is a full O(n) snapshot — so a transient latency spike breeds
    # ephemerals, whose fulls deepen the spike, and the open loop
    # collapses into a full-snapshot storm the server never recovers
    # from.  Sharing the base keeps overflow connections on deltas.
    wire = _WireState(config.protocol, config.delta)

    def make_client() -> AsyncServiceClient:
        return AsyncServiceClient(
            host, port, timeout=config.timeout, retries=config.retries,
            wire_state=wire,
        )

    clients: list[AsyncServiceClient] = []
    pool: asyncio.Queue[AsyncServiceClient] = asyncio.Queue()
    for _ in range(config.connections):
        client = make_client()
        clients.append(client)
        pool.put_nowait(client)

    async def one_request(instance: Instance, shard: str) -> None:
        # Open loop: if every pooled connection is busy, open an
        # ephemeral one rather than queueing client-side (which would
        # hide server queueing inside client queueing).
        try:
            client = pool.get_nowait()
            ephemeral = False
        except asyncio.QueueEmpty:
            client = make_client()
            clients.append(client)
            ephemeral = True
        start = loop.time()
        try:
            await client.rebalance(
                instance, config.k,
                shard=shard, deadline_ms=config.deadline_ms,
            )
            latency_ms = 1e3 * (loop.time() - start)
            report.latency_ms.record(latency_ms)
            if config.deadline_ms is None or latency_ms <= config.deadline_ms:
                report.completed += 1
            else:
                report.late += 1
        except Overloaded:
            report.rejected += 1
        except ServiceError as exc:
            if exc.error == "deadline exceeded":
                report.shed += 1
            else:
                report.errors += 1
        except (asyncio.TimeoutError, ProtocolError, OSError):
            report.errors += 1
        finally:
            if ephemeral:
                await client.close()
            else:
                pool.put_nowait(client)

    tasks: list[asyncio.Task] = []
    start = loop.time()
    index = 0
    while True:
        send_at = start + index / config.rate
        if send_at > start + config.duration_s:
            break
        delay = send_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        snapshot = snapshots[config.snapshot_index(index) % len(snapshots)]
        tasks.append(asyncio.create_task(
            one_request(snapshot, config.shard_for(index))
        ))
        index += 1
    report.offered = index
    if tasks:
        await asyncio.gather(*tasks)
    report.duration_s = loop.time() - start

    report.deltas_sent = wire.deltas_sent
    report.fulls_sent = wire.fulls_sent
    for client in clients:
        await client.close()
    return report


def run_loadgen(host: str, port: int, config: LoadGenConfig) -> LoadGenReport:
    """Run one open-loop load generation against a live server."""
    return asyncio.run(_run_async(host, port, config))


# ----------------------------------------------------------------------
# Churn-stream mode: the closed-loop O(churn) steady-state workload.


@dataclass(frozen=True)
class ChurnStreamConfig:
    """The steady-state epoch workload the O(churn) path exists for.

    One *closed-loop* sender per shard — at most one request in flight,
    the next epoch starts only once the previous decide returned — so
    every request's delta base is exactly the server's resident tip and
    the whole pipeline (client -> router -> backend -> engine) stays on
    its incremental path.  Unlike :func:`build_snapshots` the epoch
    stream is never materialized: each sender keeps *one* resident copy
    of its shard's arrays (a client-side :class:`ResidentShard`), a
    per-epoch rng mutates ``churn`` sites in place, and the delta frame
    is built directly from the changed indices in O(churn) — no O(n)
    snapshot diffing, no O(n * epochs) memory.  Returned moves are
    applied to the local placement and ride the *next* epoch's delta,
    closing the control loop the paper's online setting describes.

    ``epoch_interval_ms`` switches a stream from closed-loop saturation
    to *paced* epochs: after the seed install, epoch ``e`` of shard
    ``i`` fires at ``anchor + (e - 1 + i / shards) * interval`` on an
    absolute schedule (a late epoch fires immediately; the schedule
    never skips).  The paper's regime is periodic reconfiguration
    epochs, not back-to-back decides — pacing measures per-decide
    latency without the queueing amplification a saturating closed
    loop adds when many shard streams share the same cores.
    """

    shard: str = "default"
    shards: int = 1              # concurrent closed-loop shard streams
    k: int = 8
    num_sites: int = 600         # per shard
    num_servers: int = 12        # per shard
    churn: int = 16              # sites mutated per shard per epoch
    epochs: int = 64             # decides per shard (incl. warmup)
    warmup_epochs: int = 3       # excluded from the steady histogram
    seed: int = 0
    deadline_ms: float | None = None
    timeout: float = 60.0
    retries: int = 2             # closed loop: overload retry is honest
    epoch_interval_ms: float | None = None  # paced epochs (None = closed loop)
    # Encode each epoch's delta frame through a reusable
    # :class:`RebalanceEncoder` (static meta serialized once, frame
    # buffer reused) instead of rebuilding the message dict and
    # re-serializing the static keys every epoch.  Off = the A side of
    # E19's client-CPU A/B; the wire semantics are identical.
    use_encoder: bool = True

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.churn <= 0:
            raise ValueError("churn must be positive")
        if self.churn >= self.num_sites:
            raise ValueError("churn must be below num_sites")
        if self.epochs <= self.warmup_epochs:
            raise ValueError("epochs must exceed warmup_epochs")
        if self.epoch_interval_ms is not None and self.epoch_interval_ms <= 0:
            raise ValueError("epoch_interval_ms must be positive")

    def shard_name(self, index: int) -> str:
        return self.shard if self.shards == 1 else f"{self.shard}-{index}"


@dataclass
class ChurnStreamReport:
    """What one churn-stream run measured.

    ``steady_ms`` holds client round-trip latencies of post-warmup
    epochs only — the warmup epochs pay the O(n) install (full
    snapshot, engine table build) that the steady state amortizes away,
    and mixing them in would hide exactly the asymptotic the mode
    exists to measure.  ``trajectories`` maps each shard to a digest of
    its (fingerprint, moves) sequence: two runs with the same config
    and seed must produce byte-identical trajectories no matter which
    server — or how many backends — served them.
    """

    shards: int = 0
    epochs: int = 0
    completed: int = 0
    errors: int = 0
    fp_mismatches: int = 0       # server tip disagreed with client tip
    deltas_sent: int = 0
    fulls_sent: int = 0
    moves_applied: int = 0
    duration_s: float = 0.0
    client_cpu_s: float = 0.0    # generator-process CPU (time.process_time)
    steady_ms: telemetry.Histogram = field(default_factory=telemetry.Histogram)
    warmup_ms: telemetry.Histogram = field(default_factory=telemetry.Histogram)
    trajectories: dict[str, str] = field(default_factory=dict)

    @property
    def steady_p50_ms(self) -> float:
        return self.steady_ms.quantile(0.50)

    @property
    def steady_p95_ms(self) -> float:
        return self.steady_ms.quantile(0.95)

    @property
    def steady_p99_ms(self) -> float:
        return self.steady_ms.quantile(0.99)

    def as_dict(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "epochs": self.epochs,
            "completed": self.completed,
            "errors": self.errors,
            "fp_mismatches": self.fp_mismatches,
            "deltas_sent": self.deltas_sent,
            "fulls_sent": self.fulls_sent,
            "moves_applied": self.moves_applied,
            "duration_s": self.duration_s,
            "client_cpu_s": self.client_cpu_s,
            "steady_p50_ms": self.steady_p50_ms,
            "steady_p95_ms": self.steady_p95_ms,
            "steady_p99_ms": self.steady_p99_ms,
            "steady_ms": self.steady_ms.as_dict(),
            "warmup_ms": self.warmup_ms.as_dict(),
            "trajectories": dict(sorted(self.trajectories.items())),
        }

    def render(self) -> str:
        return (
            f"churn-stream {self.shards} shard(s) x {self.epochs} epochs "
            f"in {self.duration_s:.2f}s | ok {self.completed}, "
            f"errors {self.errors}, fp mismatches {self.fp_mismatches} | "
            f"deltas {self.deltas_sent}, fulls {self.fulls_sent}, "
            f"moves {self.moves_applied} | steady ms "
            f"p50 {self.steady_p50_ms:.2f} p95 {self.steady_p95_ms:.2f} "
            f"p99 {self.steady_p99_ms:.2f}"
        )


def _churn_stream_seed_instance(
    config: ChurnStreamConfig, rng: np.random.Generator
) -> Instance:
    """Vectorized seed snapshot: Zipf site loads, unit migration costs,
    round-robin placement — the same distribution websim's
    ``build_cluster`` produces, generated as three numpy arrays.  The
    object-graph path (one ``Website`` per site) costs ~0.5s of CPU and
    hundreds of MB of transient objects per shard at 1M sites; huge-n
    churn streams cannot afford either.
    """
    from ..websim.traffic import zipf_popularities

    n = config.num_sites
    sizes = np.maximum(
        zipf_popularities(n, exponent=0.9), 1e-9
    )
    return Instance(
        sizes=sizes,
        costs=np.ones(n, dtype=np.float64),
        num_processors=config.num_servers,
        initial=np.arange(n, dtype=np.int64) % config.num_servers,
    )


def churn_delta(
    res: ResidentShard,
    rng: np.random.Generator,
    churn: int,
    moves_idx: np.ndarray,
    moves_to: np.ndarray,
) -> dict[str, np.ndarray]:
    """One O(churn) epoch step of a churn stream, as a delta body.

    Draws ``churn`` distinct sites and rescales their loads by
    ``[0.6, 1.8]``, folds in the previous decision's moves
    (``moves_idx`` to ``moves_to``), and builds the changed sites'
    ``idx``/``sizes``/``costs``/``initial`` straight from the changed
    indices of the tip ``res`` — the resident arrays are the state, so
    nothing O(n) happens here.
    """
    c_idx = np.sort(rng.choice(res.num_jobs, size=churn, replace=False))
    c_sizes = np.maximum(res.sizes[c_idx] * rng.uniform(0.6, 1.8, churn), 1e-9)
    idx = np.union1d(c_idx, moves_idx)
    new_sizes = res.sizes[idx].copy()
    new_initial = res.initial[idx].copy()
    new_sizes[np.searchsorted(idx, c_idx)] = c_sizes
    if moves_idx.shape[0]:
        new_initial[np.searchsorted(idx, moves_idx)] = moves_to
    return {
        "idx": idx, "sizes": new_sizes, "costs": res.costs[idx].copy(),
        "initial": new_initial,
    }


class LocalChurnStream:
    """Shard 0 of a churn stream, decided in process.

    The same seed snapshot, per-epoch churn and riding moves as one
    :func:`run_churn_stream` shard, with the server's side of the wire
    in the same process: the client tip the deltas rebase on, the
    solve plane's resident arrays (:class:`SolveResident`) and the warm
    engine ``serve`` builds for a shard
    (:func:`~repro.service.server.shard_engine`) fed each delta's churn
    hint.  :meth:`next_epoch` commits one delta and returns the decide
    arguments; :meth:`decide` runs the hinted engine decide — split so
    a benchmark can time the decide alone.
    """

    def __init__(self, config: ChurnStreamConfig) -> None:
        from .resident import SolveResident
        from .server import shard_engine

        self.rng = np.random.default_rng([config.seed, 0])
        seed_instance = _churn_stream_seed_instance(config, self.rng)
        self.churn = config.churn
        self.tip = ResidentShard(seed_instance)
        self.solve = SolveResident(seed_instance)
        self.engine = shard_engine(config.k)
        self.result = self.decide(self.solve.view(), self.tip.fp.digest(), None)

    def next_epoch(self) -> tuple[Instance, bytes, tuple]:
        """Commit the next delta; returns the arguments of
        :meth:`decide`."""
        mapping = np.asarray(self.result.assignment.mapping)
        moves_idx = np.flatnonzero(mapping != self.tip.initial)
        delta = churn_delta(
            self.tip, self.rng, self.churn, moves_idx, mapping[moves_idx]
        )
        frame, fp = self.tip.preview(delta)
        self.tip.commit(frame, fp)
        hint = self.solve.apply([frame])
        return self.solve.view(), fp.digest(), hint

    def decide(self, view: Instance, fingerprint: bytes, hint):
        self.result = self.engine.rebalance(
            view, fingerprint=fingerprint, changed=hint
        )
        return self.result


async def _churn_stream_shard(
    host: str,
    port: int,
    config: ChurnStreamConfig,
    shard_index: int,
    report: ChurnStreamReport,
    seed_barrier: "asyncio.Barrier | None" = None,
) -> None:
    """One shard's closed loop: mutate, delta, decide, apply, repeat."""
    loop = asyncio.get_running_loop()
    shard = config.shard_name(shard_index)
    rng = np.random.default_rng([config.seed, shard_index])
    res = ResidentShard(_churn_stream_seed_instance(config, rng))
    digest = hashlib.sha256()
    moves_idx = np.empty(0, dtype=np.int64)
    moves_to = np.empty(0, dtype=np.int64)
    client = AsyncServiceClient(
        host, port, timeout=config.timeout, retries=config.retries,
        protocol="binary",
    )
    interval_s = (
        None if config.epoch_interval_ms is None
        else config.epoch_interval_ms / 1e3
    )
    anchor: float | None = None

    def full_message() -> dict[str, Any]:
        return {
            "op": "rebalance", "shard": shard, "k": config.k,
            "moves_only": True,
            "instance": res.export_instance().to_wire(),
        }

    # The static half of every delta epoch's message never changes —
    # serialize it exactly once and splice each epoch's delta into a
    # reusable frame buffer instead of rebuilding the dict and paying
    # json.dumps for the same keys epochs times per shard.
    static_meta: dict[str, Any] = {
        "op": "rebalance", "shard": shard, "k": config.k,
        "moves_only": True,
    }
    if config.deadline_ms is not None:
        static_meta["deadline_ms"] = config.deadline_ms
    encoder = RebalanceEncoder(static_meta) if config.use_encoder else None

    try:
        for epoch in range(config.epochs):
            encoded: memoryview | None = None
            if epoch == 0:
                # Seed the server's resident tip: one full snapshot.
                message = full_message()
                report.fulls_sent += 1
            else:
                if interval_s is not None:
                    # Paced mode: epochs fire on an absolute schedule
                    # anchored once *every* shard's O(n) seed install
                    # has completed (otherwise a fast shard's steady
                    # epochs overlap slower shards' installs and
                    # measure install contention, not decides),
                    # staggered across shard streams so decides don't
                    # land in lockstep.  A late epoch fires
                    # immediately — the schedule never skips.
                    if anchor is None:
                        if seed_barrier is not None:
                            await seed_barrier.wait()
                        anchor = loop.time()
                    next_t = anchor + interval_s * (
                        epoch - 1 + shard_index / config.shards
                    )
                    delay = next_t - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                delta = {
                    "base": res.fp_hex,
                    **churn_delta(res, rng, config.churn, moves_idx, moves_to),
                }
                # Advance the local tip *before* sending: the server
                # answers with the post-delta fingerprint, and the next
                # epoch rebases on it whether or not this response is
                # late.
                frame, fp = res.preview(delta)
                res.commit(frame, fp)
                if encoder is not None:
                    message = None
                    encoded = encoder.encode(delta)
                else:
                    message = {
                        "op": "rebalance", "shard": shard, "k": config.k,
                        "moves_only": True, "delta": delta,
                    }
                report.deltas_sent += 1
            if message is not None and config.deadline_ms is not None:
                message["deadline_ms"] = config.deadline_ms

            start = loop.time()
            try:
                if encoded is not None:
                    response = await client.call_encoded(
                        encoded, shard=shard
                    )
                else:
                    response = await client.call(message)
                if (
                    not response.get("ok")
                    and response.get("error") == "unknown base"
                ):
                    # Server lost (or never had) our base — resync with
                    # the current tip and continue the stream from it.
                    report.fulls_sent += 1
                    message = full_message()
                    if config.deadline_ms is not None:
                        message["deadline_ms"] = config.deadline_ms
                    response = await client.call(message)
            except (ServiceError, asyncio.TimeoutError, ProtocolError,
                    OSError):
                report.errors += 1
                moves_idx = np.empty(0, dtype=np.int64)
                moves_to = np.empty(0, dtype=np.int64)
                continue
            rtt_ms = 1e3 * (loop.time() - start)

            if not response.get("ok"):
                report.errors += 1
                moves_idx = np.empty(0, dtype=np.int64)
                moves_to = np.empty(0, dtype=np.int64)
                continue
            if epoch >= config.warmup_epochs:
                report.steady_ms.record(rtt_ms)
            else:
                report.warmup_ms.record(rtt_ms)
            if response.get("fingerprint") != res.fp_hex:
                report.fp_mismatches += 1

            if "moves_idx" in response:
                moves_idx = np.asarray(response["moves_idx"], dtype=np.int64)
                moves_to = np.asarray(response["moves_to"], dtype=np.int64)
            else:
                # A server that ignores moves_only answers with the
                # full mapping; reduce it to moves locally.
                mapping = np.asarray(response["mapping"], dtype=np.int64)
                moves_idx = np.flatnonzero(mapping != res.initial)
                moves_to = mapping[moves_idx]
            report.moves_applied += int(moves_idx.shape[0])
            report.completed += 1
            digest.update(bytes.fromhex(res.fp_hex))
            digest.update(moves_idx.tobytes())
            digest.update(moves_to.tobytes())
    finally:
        await client.close()
    report.trajectories[shard] = digest.hexdigest()


async def _run_churn_stream_async(
    host: str, port: int, config: ChurnStreamConfig
) -> ChurnStreamReport:
    loop = asyncio.get_running_loop()
    report = ChurnStreamReport(shards=config.shards, epochs=config.epochs)
    seed_barrier = (
        asyncio.Barrier(config.shards)
        if config.epoch_interval_ms is not None and config.shards > 1
        else None
    )
    start = loop.time()
    cpu_start = time.process_time()
    await asyncio.gather(*(
        _churn_stream_shard(host, port, config, i, report, seed_barrier)
        for i in range(config.shards)
    ))
    report.client_cpu_s = time.process_time() - cpu_start
    report.duration_s = loop.time() - start
    return report


def run_churn_stream(
    host: str, port: int, config: ChurnStreamConfig
) -> ChurnStreamReport:
    """Run one closed-loop churn-stream workload against a live server."""
    return asyncio.run(_run_churn_stream_async(host, port, config))


# The scenario catalog's workload-axis registry: a scenario names its
# calibration ("service", "wire") instead of importing a function, so
# record files document which host-speed pin sized the workload.  Each
# entry returns ``(LoadGenConfig, measured_seconds)``.
CALIBRATIONS = {
    "service": calibrate_workload,
    "wire": calibrate_wire_workload,
}
