"""Rebalancing-as-a-service: the repo's request-path layer.

Everything before this package calls solvers in-process; this package
puts the paper's online setting on the wire.  A stdlib-asyncio TCP
server speaks two negotiated wire formats on one port — v1
length-prefixed JSON and v2 binary frames carrying raw array buffers
and changed-site delta snapshots (``rebalance``, ``status``, ``reset``,
``ping``) — maps requests onto named *shards* — one warm
:class:`~repro.core.engine.RebalanceEngine` each — and runs them
through the same pipeline an inference-serving stack uses::

    connections → admission queue → micro-batcher → engine pool
                  (bounded,         (max size +      (per-shard warm
                   reject,           max wait)        engines over
                   coalesce,                          resident arrays,
                   deadline shed)                     lane threads)

Module map: :mod:`~repro.service.protocol` (framing),
:mod:`~repro.service.admission` (bounded queue, single-flight
coalescing, backpressure),
:mod:`~repro.service.batching` (dynamic micro-batches),
:mod:`~repro.service.server` (the asyncio server),
:mod:`~repro.service.client` (sync + async clients),
:mod:`~repro.service.cluster` (the multi-node router: consistent-hash
shard placement, delta-replay replication, failover, live migration),
:mod:`~repro.service.loadgen` (open-loop load generator),
:mod:`~repro.service.cli` (``repro serve`` / ``repro router`` /
``repro loadgen``).
"""

from .admission import AdmissionQueue, PendingRequest, SolveGroup
from .batching import BatchConfig, MicroBatcher, ShardLane
from .client import (
    AsyncServiceClient,
    ConnectionClosed,
    Overloaded,
    ServiceClient,
    ServiceError,
)
from .cluster import (
    BackendSpec,
    ClusterRouter,
    HashRing,
    RouterConfig,
    RouterHandle,
    ServeProcess,
    spawn_router_process,
    spawn_serve_process,
    start_router_background,
)
from .dataplane import (
    RouterWorker,
    ShardedRouter,
    default_router_workers,
    start_sharded_router,
    worker_for,
)
from .loadgen import (
    CALIBRATIONS,
    ChurnStreamConfig,
    ChurnStreamReport,
    LoadGenConfig,
    LoadGenReport,
    build_snapshots,
    calibrate_workload,
    calibrate_wire_workload,
    run_churn_stream,
    run_loadgen,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_V1,
    PROTOCOL_V2,
    ProtocolError,
    RebalanceEncoder,
    decode_body,
    encode_frame,
    encode_frame_into,
    error_response,
    frame_header,
    ok_response,
    pack_payload,
    peek_meta,
    read_frame,
    read_frame_raw,
    read_frame_sync,
    read_frame_sync_versioned,
    read_frame_versioned,
    unpack_payload,
    write_frame_sync,
)
from .server import (
    RebalanceServer,
    ServerConfig,
    ServerHandle,
    ShardState,
    start_background,
)

__all__ = [
    "AdmissionQueue",
    "CALIBRATIONS",
    "AsyncServiceClient",
    "BackendSpec",
    "BatchConfig",
    "ChurnStreamConfig",
    "ChurnStreamReport",
    "ClusterRouter",
    "ConnectionClosed",
    "HashRing",
    "RebalanceEncoder",
    "RouterWorker",
    "ShardedRouter",
    "RouterConfig",
    "RouterHandle",
    "ServeProcess",
    "LoadGenConfig",
    "LoadGenReport",
    "MAX_FRAME_BYTES",
    "MicroBatcher",
    "Overloaded",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "PendingRequest",
    "ProtocolError",
    "RebalanceServer",
    "ServerConfig",
    "ServerHandle",
    "ServiceClient",
    "ServiceError",
    "ShardLane",
    "ShardState",
    "SolveGroup",
    "build_snapshots",
    "calibrate_workload",
    "calibrate_wire_workload",
    "decode_body",
    "default_router_workers",
    "encode_frame",
    "encode_frame_into",
    "error_response",
    "frame_header",
    "ok_response",
    "pack_payload",
    "peek_meta",
    "read_frame",
    "read_frame_raw",
    "read_frame_sync",
    "read_frame_sync_versioned",
    "read_frame_versioned",
    "run_churn_stream",
    "run_loadgen",
    "spawn_router_process",
    "spawn_serve_process",
    "start_background",
    "start_router_background",
    "start_sharded_router",
    "unpack_payload",
    "worker_for",
    "write_frame_sync",
]
