"""Command-line entry points for the service layer.

``python -m repro serve`` (or the ``repro-serve`` console script)
starts the asyncio server; ``python -m repro loadgen`` drives a server
— an existing one via ``--connect host:port``, a fresh in-process one
via ``--spawn``, or a freshly spawned cluster (router + N backend
processes) via ``--router N`` — with the open-loop generator and
prints the latency/goodput report.  ``loadgen`` doubles as the CI
smoke check: ``--assert-clean`` exits non-zero on any protocol error
and ``--p99-bound`` bounds the observed tail latency.

``python -m repro router`` starts the cluster tier's coordinator: it
speaks the same protocol as ``serve`` toward clients and places shards
on the backends named by ``--backends`` (or spawned by ``--spawn N``)
via consistent hashing, with delta-replay replication and failover
(see :mod:`repro.service.cluster`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
from pathlib import Path

from .client import ServiceClient
from .cluster import (
    BackendSpec,
    ClusterRouter,
    RouterConfig,
    ServeProcess,
    spawn_serve_process,
    start_router_background,
)
from .dataplane import (
    ShardedRouter,
    default_router_workers,
    start_sharded_router,
)
from .loadgen import (
    ChurnStreamConfig,
    LoadGenConfig,
    run_churn_stream,
    run_loadgen,
)
from .server import RebalanceServer, ServerConfig, start_background

__all__ = ["loadgen_main", "router_main", "serve_main"]


def _server_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = let the OS pick a free one)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=16,
        help="micro-batch size ceiling",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="micro-batch accumulation window",
    )
    parser.add_argument(
        "--max-queue", type=int, default=128,
        help="admission queue depth (requests beyond it are rejected)",
    )
    parser.add_argument(
        "--solver-workers", type=int, default=4,
        help="worker threads fanning out independent shard lanes "
             "(capped at the core count unless --solve-delay-ms sets "
             "a synthetic service-time floor)",
    )
    parser.add_argument(
        "--naive", action="store_true",
        help="one-request-per-solve control mode: batch size 1, no "
        "dedupe, no warm engine (the E14 baseline)",
    )
    parser.add_argument(
        "--solve-delay-ms", type=float, default=0.0,
        help="synthetic per-solve service-time floor: sleeps on the "
        "solve thread, releasing the GIL, so a node's capacity is "
        "pinned regardless of host CPU — used by capacity-pinned "
        "benchmarks like E17",
    )


def _config_from(args: argparse.Namespace) -> ServerConfig:
    common = dict(
        host=args.host, port=args.port, max_queue=args.max_queue,
        solver_workers=args.solver_workers,
        solve_delay_s=args.solve_delay_ms / 1e3,
    )
    if args.naive:
        return ServerConfig.naive(**common)
    return ServerConfig(
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms, **common
    )


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve rebalancing decisions over length-prefixed "
        "JSON TCP (ops: rebalance, status, reset, ping).",
    )
    _server_arguments(parser)
    parser.add_argument(
        "--port-file", type=Path, default=None,
        help="write the bound port here once listening (lets scripts "
        "use --port 0 and discover the actual port)",
    )
    args = parser.parse_args(argv)

    async def main() -> None:
        server = RebalanceServer(_config_from(args))
        await server.start()
        print(
            f"repro-serve listening on {server.config.host}:{server.port}",
            flush=True,
        )
        if args.port_file is not None:
            args.port_file.write_text(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_stop)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def _spawn_backends(
    count: int, args: argparse.Namespace
) -> tuple[list[ServeProcess], tuple[BackendSpec, ...]]:
    """Spawn ``count`` real ``serve`` OS processes (cluster scale needs
    processes, not threads) and name them for the ring."""
    extra: list[str] = ["--naive"] if args.naive else []
    processes: list[ServeProcess] = []
    try:
        for _ in range(count):
            processes.append(spawn_serve_process(*extra))
    except BaseException:
        for proc in processes:
            proc.terminate()
        raise
    specs = tuple(
        BackendSpec(name=f"backend-{i}", host=proc.host, port=proc.port)
        for i, proc in enumerate(processes)
    )
    return processes, specs


def router_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-router",
        description="Cluster-tier coordinator: route shards onto N "
        "backend serve nodes (consistent hashing), replicate each "
        "shard's delta stream to a standby, and fail over on backend "
        "death.  Speaks the same protocol as 'serve' toward clients.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = let the OS pick a free one)",
    )
    parser.add_argument(
        "--port-file", type=Path, default=None,
        help="write the bound port here once listening",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--backends", metavar="[NAME=]HOST:PORT,...",
        help="comma-separated running backends to place shards on",
    )
    target.add_argument(
        "--spawn", type=int, metavar="N",
        help="spawn N backend serve processes for the router's lifetime",
    )
    parser.add_argument("--naive", action="store_true")
    parser.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per backend on the hash ring",
    )
    parser.add_argument(
        "--health-interval", type=float, default=0.25, metavar="S",
        help="seconds between health probes per backend",
    )
    parser.add_argument(
        "--health-misses", type=int, default=2,
        help="consecutive probe misses before a backend is declared dead",
    )
    parser.add_argument(
        "--no-replicate", action="store_true",
        help="disable delta-replay replication to shard standbys",
    )
    parser.add_argument(
        "--repl-coalesce-ms", type=float, default=0.0, metavar="MS",
        help="delay each replication drain step to batch frames and "
        "keep standby replay off the decide response tail",
    )
    parser.add_argument(
        "--router-workers", type=int, default=1, metavar="N",
        help="router data-plane worker processes sharing the listening "
        "port, each owning a shard-affine slice of resident tips "
        "(1 = classic single-process router; 0 = auto, min(4, cores))",
    )
    parser.add_argument(
        "--relay-concurrency", type=int, default=0,
        help="per-worker relayed-full concurrency cap (0 = unbounded); "
        "with --relay-delay-ms this pins a worker's relay capacity "
        "regardless of host CPU, the E19 measurement device",
    )
    parser.add_argument(
        "--relay-delay-ms", type=float, default=0.0, metavar="MS",
        help="synthetic per-relay service-time floor held under the "
        "concurrency permit",
    )
    args = parser.parse_args(argv)

    if args.router_workers < 0:
        parser.error("--router-workers must be >= 0")

    processes: list[ServeProcess] = []
    if args.spawn is not None:
        if args.spawn <= 0:
            parser.error("--spawn must be positive")
        processes, specs = _spawn_backends(args.spawn, args)
    else:
        try:
            specs = tuple(
                BackendSpec.parse(text.strip(), i)
                for i, text in enumerate(args.backends.split(","))
            )
        except ValueError as exc:
            parser.error(str(exc))
    config = RouterConfig(
        backends=specs, host=args.host, port=args.port,
        vnodes=args.vnodes, replicate=not args.no_replicate,
        repl_coalesce_s=args.repl_coalesce_ms / 1e3,
        health_interval_s=args.health_interval,
        health_misses=args.health_misses,
        relay_concurrency=args.relay_concurrency,
        relay_delay_s=args.relay_delay_ms / 1e3,
    )
    workers = args.router_workers or default_router_workers()
    backends = ", ".join(f"{b.name}@{b.host}:{b.port}" for b in specs)

    if workers > 1:
        # Sharded data plane: worker processes accept on the shared
        # port; this process is the control plane (health, death
        # declaration, worker respawn).  The control loop is a plain
        # thread, so signal handling is a threading.Event, not asyncio.
        try:
            sharded = start_sharded_router(config, workers)
        except BaseException:
            for proc in processes:
                proc.terminate()
            raise
        stop_event = threading.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, lambda *_: stop_event.set())
        try:
            print(
                f"repro-router listening on {config.host}:{sharded.port} "
                f"({workers} workers) -> [{backends}]",
                flush=True,
            )
            if args.port_file is not None:
                args.port_file.write_text(f"{sharded.port}\n")
            stop_event.wait()
        finally:
            sharded.stop()
            for proc in processes:
                proc.terminate()
        return 0

    async def main() -> None:
        router = ClusterRouter(config)
        await router.start()
        print(
            f"repro-router listening on {config.host}:{router.port} "
            f"-> [{backends}]",
            flush=True,
        )
        if args.port_file is not None:
            args.port_file.write_text(f"{router.port}\n")
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, router.request_stop)
        await router.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    finally:
        for proc in processes:
            proc.terminate()
    return 0


def _schedule_router_worker_kill(
    host: str, port: int, delay_s: float
) -> threading.Timer:
    """Fault injection for the cluster smoke: ``delay_s`` seconds in,
    look up the sharded router's data-plane workers via ``status`` and
    SIGKILL the lowest-indexed one.  The control plane must respawn it
    and the in-flight churn streams must ride out the gap on their
    retry budget for ``--assert-clean`` to pass.
    """

    def kill() -> None:
        try:
            client = ServiceClient(host, port, timeout=5.0, retries=2)
            try:
                status = client.call({"op": "status"})
            finally:
                client.close()
            workers = status.get("router", {}).get("workers") or {}
            if not workers:
                print("no router workers reported; kill skipped", flush=True)
                return
            index = min(workers, key=int)
            pid = int(workers[index]["pid"])
            os.kill(pid, signal.SIGKILL)
            print(f"killed router worker {index} (pid {pid})", flush=True)
        except Exception as exc:  # pragma: no cover - smoke diagnostics
            print(f"router-worker kill failed: {exc}", flush=True)

    timer = threading.Timer(delay_s, kill)
    timer.daemon = True
    timer.start()
    return timer


def loadgen_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Open-loop load generator: drive a rebalancing "
        "server and report goodput and latency percentiles.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--connect", metavar="HOST:PORT",
        help="use a running server at HOST:PORT",
    )
    target.add_argument(
        "--spawn", action="store_true",
        help="start an in-process server for the duration of the run",
    )
    target.add_argument(
        "--router", type=int, metavar="N",
        help="spawn N backend serve processes plus a cluster router "
        "and drive the run through the router",
    )
    _server_arguments(parser)
    parser.add_argument(
        "--router-workers", type=int, default=1, metavar="N",
        help="data-plane worker processes for the spawned router "
        "(with --router; 1 = classic single-process router, 0 = auto)",
    )
    parser.add_argument(
        "--kill-router-worker-after", type=float, default=None,
        metavar="S",
        help="kill -9 one router data-plane worker S seconds into the "
        "run (requires --router with --router-workers > 1); the run "
        "must survive the respawn to pass --assert-clean",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help="per-request retry budget (churn-stream traffic only; "
        "default 2 — raise it so a stream spans a worker respawn)",
    )
    parser.add_argument(
        "--no-encoder", action="store_true",
        help="rebuild each churn-stream epoch's message dict instead "
        "of using the reusable frame encoder (the client-CPU A/B "
        "baseline)",
    )
    parser.add_argument("--rate", type=float, default=50.0,
                        help="arrivals per second (open loop)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="arrival window in seconds")
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--duplicates", type=int, default=4,
                        help="identical submissions per snapshot "
                        "(simulated frontends)")
    parser.add_argument("--sites", type=int, default=600)
    parser.add_argument("--servers", type=int, default=12)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline (<=0 disables; "
                        "default 500 for open-loop traffic, none for "
                        "churn-stream)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--protocol", choices=("json", "binary"),
                        default="json",
                        help="wire format: v1 length-prefixed JSON or "
                        "v2 binary frames with raw array buffers")
    parser.add_argument("--delta", action="store_true",
                        help="send changed-site delta snapshots "
                        "(requires --protocol binary)")
    parser.add_argument("--shards", type=int, default=1,
                        help="distinct server shards to round-robin "
                        "(each gets its own snapshot stream lane)")
    parser.add_argument("--traffic",
                        choices=("drift", "steady", "churn",
                                 "churn-stream"),
                        default="drift",
                        help="drift: diurnal+flash (every site moves "
                        "each epoch); steady: flash crowds only "
                        "(sparse churn, the delta-friendly regime); "
                        "churn: one flash crowd every epoch (sparse "
                        "but every snapshot distinct); churn-stream: "
                        "closed-loop per-shard delta stream (one "
                        "request in flight per shard, O(churn) frames "
                        "built in place, moves applied locally — the "
                        "steady-state regime E18 measures)")
    parser.add_argument("--churn", type=int, default=16,
                        help="sites mutated per shard per epoch "
                        "(churn-stream traffic only)")
    parser.add_argument("--epochs", type=int, default=64,
                        help="decides per shard (churn-stream traffic "
                        "only)")
    parser.add_argument("--warmup-epochs", type=int, default=3,
                        help="leading epochs excluded from the steady "
                        "latency histogram (churn-stream traffic only)")
    parser.add_argument("--epoch-interval-ms", type=float, default=None,
                        metavar="MS",
                        help="pace churn-stream epochs on an absolute "
                        "per-shard-staggered schedule instead of "
                        "closed-loop saturation (churn-stream traffic "
                        "only)")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    parser.add_argument("--assert-clean", action="store_true",
                        help="exit 1 if any protocol/transport error "
                        "occurred")
    parser.add_argument("--p99-bound", type=float, default=None,
                        metavar="MS",
                        help="exit 1 if p99 latency exceeds this bound")
    args = parser.parse_args(argv)

    if args.delta and args.protocol != "binary":
        parser.error("--delta requires --protocol binary")
    deadline_ms = args.deadline_ms
    if deadline_ms is not None and deadline_ms <= 0:
        deadline_ms = None
    if args.kill_router_worker_after is not None and (
        args.router is None or args.router_workers == 1
    ):
        parser.error(
            "--kill-router-worker-after requires --router with "
            "--router-workers > 1"
        )
    if args.traffic == "churn-stream":
        extra = {}
        if args.retries is not None:
            extra["retries"] = args.retries
        config = ChurnStreamConfig(
            shards=args.shards, k=args.k,
            num_sites=args.sites, num_servers=args.servers,
            churn=args.churn, epochs=args.epochs,
            warmup_epochs=args.warmup_epochs,
            seed=args.seed, deadline_ms=deadline_ms,
            epoch_interval_ms=args.epoch_interval_ms,
            use_encoder=not args.no_encoder,
            **extra,
        )
    else:
        if args.deadline_ms is None:
            deadline_ms = 500.0
        config = LoadGenConfig(
            rate=args.rate, duration_s=args.duration,
            connections=args.connections, duplicates=args.duplicates,
            num_sites=args.sites, num_servers=args.servers,
            k=args.k, deadline_ms=deadline_ms, seed=args.seed,
            protocol=args.protocol, delta=args.delta,
            shards=args.shards, traffic=args.traffic,
        )

    handle = None
    router_handle = None
    sharded: ShardedRouter | None = None
    kill_timer: threading.Timer | None = None
    processes: list[ServeProcess] = []
    if args.spawn:
        handle = start_background(_config_from(args))
        host, port = handle.host, handle.port
    elif args.router is not None:
        if args.router <= 0:
            parser.error("--router must be positive")
        processes, specs = _spawn_backends(args.router, args)
        router_workers = args.router_workers or default_router_workers()
        try:
            router_config = RouterConfig(backends=specs)
            if router_workers > 1:
                sharded = start_sharded_router(router_config, router_workers)
                host, port = sharded.host, sharded.port
            else:
                router_handle = start_router_background(router_config)
                host, port = router_handle.host, router_handle.port
        except BaseException:
            for proc in processes:
                proc.terminate()
            raise
    else:
        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            parser.error("--connect must look like HOST:PORT")
        port = int(port_text)
    if args.kill_router_worker_after is not None:
        kill_timer = _schedule_router_worker_kill(
            host, port, args.kill_router_worker_after
        )
    try:
        if args.traffic == "churn-stream":
            report = run_churn_stream(host, port, config)
        else:
            report = run_loadgen(host, port, config)
    finally:
        if kill_timer is not None:
            kill_timer.cancel()
        if handle is not None:
            handle.stop()
        if router_handle is not None:
            router_handle.stop()
        if sharded is not None:
            sharded.stop()
        for proc in processes:
            proc.terminate()

    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())

    failed = False
    mismatches = getattr(report, "fp_mismatches", 0)
    if args.assert_clean and (report.errors or mismatches):
        print(
            f"FAIL: {report.errors} protocol/transport errors, "
            f"{mismatches} fingerprint mismatches",
            flush=True,
        )
        failed = True
    p99_ms = (
        report.steady_p99_ms if args.traffic == "churn-stream"
        else report.p99_ms
    )
    if args.p99_bound is not None and p99_ms > args.p99_bound:
        print(
            f"FAIL: p99 {p99_ms:.1f}ms exceeds bound "
            f"{args.p99_bound:.1f}ms",
            flush=True,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
