"""Wire protocol for the rebalancing service.

Two negotiated frame formats share every listening port:

**v1 — length-prefixed JSON** (the original format, kept as the
fallback for old clients): a 4-byte big-endian unsigned length followed
by that many bytes of one UTF-8 JSON object.  Length-prefixing (rather
than newline-delimiting) keeps the framing payload-agnostic and lets
both sides pre-allocate the read.

**v2 — binary frames**: an 8-byte header (2-byte magic ``RB``, version
byte, flags byte, 4-byte little-endian body length) followed by a body
that carries the message's numeric arrays as raw little-endian buffers
instead of JSON lists::

    offset 0   2 bytes   magic b"RB"
    offset 2   1 byte    version (2)
    offset 3   1 byte    flags (reserved, 0)
    offset 4   4 bytes   body length, little-endian uint32
    offset 8   ...       body

    body:
    offset 0   4 bytes   meta length J, little-endian uint32
    offset 4   J bytes   meta: UTF-8 JSON, arrays replaced by
                         {"__nd__": [dtype, count, offset]}
    align(8)   ...       raw array section: the arrays' bytes,
                         each 8-byte aligned, little-endian

The meta JSON is the message with every :class:`numpy.ndarray` value
replaced by a descriptor; the decoder rebuilds each array zero-copy
with :func:`numpy.frombuffer` over the received body.  Supported array
dtypes are ``<f8`` and ``<i8`` (all the wire ever carries: sizes,
costs, initial assignments, mappings, changed-site indices).

Negotiation is per-frame and implicit: the two formats are
distinguishable from the first byte (a v1 length never exceeds
:data:`MAX_FRAME_BYTES` = 64 MiB, so its first byte is at most 0x04,
while the v2 magic starts with 0x52), both readers accept both, and the
server answers every request in the format the request arrived in.  An
old client therefore sees pure v1 traffic; a new client opts into v2 by
simply sending it.

Every request is one message object with an ``op`` field; every
response has an ``ok`` field.  The operations are:

``rebalance``
    ``{"op": "rebalance", "shard": str, "k": int, "instance":
    Instance.to_dict()-shaped, "deadline_ms": float?}`` →
    ``{"ok": true, "mapping": [int], "guessed_opt": float,
    "planned_moves": int, "algorithm": str, "fingerprint": hex,
    "batch": {...}}`` or an error (``overloaded`` carries
    ``retry_after_ms``).  Instead of ``instance`` a request may carry a
    **delta frame**: ``{"delta": {"base": hex, "idx": [int],
    "sizes": [float], "costs": [float], "initial": [int]}}`` — only
    the changed sites, applied server-side to the base snapshot named
    by the fingerprint of a previous response.  A server that no longer
    holds the base answers ``unknown base`` and the client falls back
    to a full snapshot.
``status``
    ``{"op": "status"}`` → uptime, config, queue depth, per-shard
    engine statistics, and the server's telemetry export.
``reset``
    ``{"op": "reset", "shard": str?}`` → drops the named shard's (or
    every shard's) warm engine state and delta bases.

``ping`` additionally answers ``{"ok": true}`` so clients and process
supervisors can probe liveness without touching solver state.

Node-to-node operations (spoken between the cluster router of
:mod:`repro.service.cluster` and its backend ``serve`` nodes — same
codec, same port, no separate control plane):

``health``
    ``{"op": "health"}`` → ``{"ok": true, "uptime_s": float,
    "queue_depth": int}``.  Answered on the event
    loop without touching the solve thread, so the router's health
    loop measures liveness rather than solver backlog.
``replicate``
    ``{"op": "replicate", "shard": str, "instance": ...}`` or the same
    ``delta`` body as ``rebalance`` → ``{"ok": true, "shard": str,
    "fingerprint": hex}``.  Advances the shard's resident tip without
    solving; the router replays each shard's
    fingerprinted delta stream at a standby this way (the delta log
    *is* the replication log), and ``unknown base`` degrades to one
    full snapshot exactly as on the primary path.
``migrate``
    ``{"op": "migrate", "shard": str}`` → ``{"ok": true, "found":
    bool, "fingerprint": hex?, "instance": ...?}``.  Exports the
    shard's resident tip so the router can ship it to a new owner
    during live migration.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

import numpy as np

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "ProtocolError",
    "RebalanceEncoder",
    "decode_body",
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
    "replicate_body",
    "unpack_payload",
    "write_frame_sync",
]

# Generous ceiling: a million-site snapshot is ~25 MB of JSON.  Anything
# larger is a corrupt or hostile frame, not a workload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

PROTOCOL_V1 = 1
PROTOCOL_V2 = 2

# v1 header: big-endian length.  Its first byte is <= 0x04 for any
# length within MAX_FRAME_BYTES, so it can never collide with _MAGIC.
_HEADER = struct.Struct(">I")
# v2 header after the 2-byte magic: version, flags, little-endian length.
_MAGIC = b"RB"
_V2_TAIL = struct.Struct("<BBI")
_V2_HEADER_SIZE = len(_MAGIC) + _V2_TAIL.size
_META_LEN = struct.Struct("<I")

# Wire dtype codes -> numpy dtypes (explicitly little-endian so frames
# are host-order independent; on LE hosts the casts below are no-ops).
_WIRE_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_ND_KEY = "__nd__"


class ProtocolError(Exception):
    """A malformed frame (bad length, bad JSON, or a non-object body)."""


def ok_response(**fields: Any) -> dict[str, Any]:
    """A success response body."""
    return {"ok": True, **fields}


def error_response(error: str, **fields: Any) -> dict[str, Any]:
    """A failure response body; ``error`` is a stable machine code."""
    return {"ok": False, "error": error, **fields}


# ----------------------------------------------------------------------
# v2 body codec: JSON meta + raw little-endian array blobs
# ----------------------------------------------------------------------
def _align8(n: int) -> int:
    return (n + 7) & ~7


def _wire_code(arr: np.ndarray) -> str:
    kind = arr.dtype.kind
    if kind == "f":
        return "<f8"
    if kind in "iu":
        return "<i8"
    raise ProtocolError(f"unsupported array dtype {arr.dtype} on the wire")


def _strip_arrays(obj: Any, blobs: list[tuple[str, bytes]]) -> Any:
    """Replace ndarray values with descriptors, collecting their bytes.

    Offsets are filled in by :func:`pack_payload` once all blobs are
    known (each is 8-byte aligned within the raw array section).
    """
    if isinstance(obj, np.ndarray):
        if obj.ndim != 1:
            raise ProtocolError(
                f"only one-dimensional arrays go on the wire, got shape {obj.shape}"
            )
        code = _wire_code(obj)
        data = np.ascontiguousarray(obj).astype(_WIRE_DTYPES[code], copy=False)
        blobs.append((code, data.tobytes()))
        # Offset placeholder (index 2) is patched by pack_payload.
        return {_ND_KEY: [code, int(obj.shape[0]), len(blobs) - 1]}
    if isinstance(obj, dict):
        return {str(k): _strip_arrays(v, blobs) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strip_arrays(v, blobs) for v in obj]
    return obj


def _patch_offsets(obj: Any, offsets: list[int]) -> None:
    if isinstance(obj, dict):
        nd = obj.get(_ND_KEY)
        if isinstance(nd, list):
            nd[2] = offsets[nd[2]]
            return
        for value in obj.values():
            _patch_offsets(value, offsets)
    elif isinstance(obj, list):
        for value in obj:
            _patch_offsets(value, offsets)


def _section_layout(blobs: list[tuple[str, bytes]]) -> tuple[list[int], int]:
    """Lay the raw array section out: each blob 8-byte aligned, offsets
    relative to the start of the section.  Returns (offsets, size)."""
    offsets: list[int] = []
    cursor = 0
    for _, data in blobs:
        cursor = _align8(cursor)
        offsets.append(cursor)
        cursor += len(data)
    return offsets, cursor


def _write_body_into(
    out: bytearray,
    at: int,
    meta: bytes,
    blobs: list[tuple[str, bytes]],
    offsets: list[int],
    section_size: int,
) -> int:
    """Write one v2 body (meta + aligned blobs) into ``out`` at ``at``.

    ``out`` is grown (never shrunk) so callers can reuse one buffer
    across frames without reallocating; alignment gaps are zeroed so a
    reused buffer stays byte-identical to a fresh encode of the same
    payload.  Returns the end offset.
    """
    section_start = _align8(_META_LEN.size + len(meta))
    end = at + section_start + section_size
    if len(out) < end:
        out.extend(bytes(end - len(out)))
    _META_LEN.pack_into(out, at, len(meta))
    meta_start = at + _META_LEN.size
    out[meta_start:meta_start + len(meta)] = meta
    out[meta_start + len(meta):at + section_start] = bytes(
        section_start - _META_LEN.size - len(meta)
    )
    prev_end = 0
    for (_, data), offset in zip(blobs, offsets):
        start = at + section_start + offset
        out[at + section_start + prev_end:start] = bytes(offset - prev_end)
        out[start:start + len(data)] = data
        prev_end = offset + len(data)
    return end


def _pack_payload_into(payload: dict[str, Any], out: bytearray, at: int) -> int:
    """:func:`pack_payload`, but writing into ``out`` at offset ``at``;
    returns the end offset."""
    blobs: list[tuple[str, bytes]] = []
    meta_obj = _strip_arrays(payload, blobs)
    offsets, section_size = _section_layout(blobs)
    _patch_offsets(meta_obj, offsets)
    meta = json.dumps(meta_obj, separators=(",", ":")).encode("utf-8")
    return _write_body_into(out, at, meta, blobs, offsets, section_size)


def pack_payload(payload: dict[str, Any]) -> bytes:
    """Serialize one message to the v2 binary body (no frame header)."""
    out = bytearray()
    _pack_payload_into(payload, out, 0)
    return bytes(out)


def _revive_arrays(obj: Any, section: memoryview) -> Any:
    if isinstance(obj, dict):
        nd = obj.get(_ND_KEY)
        if isinstance(nd, list):
            try:
                code, count, offset = nd
                dtype = _WIRE_DTYPES[str(code)]
                count = int(count)
                offset = int(offset)
                if count < 0 or offset < 0:
                    raise ValueError("negative array bounds")
                end = offset + count * dtype.itemsize
                if end > len(section):
                    raise ValueError("array extends past the frame")
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"bad array descriptor {nd!r}: {exc}") from exc
            return np.frombuffer(section, dtype=dtype, count=count, offset=offset)
        return {k: _revive_arrays(v, section) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_revive_arrays(v, section) for v in obj]
    return obj


def _parse_meta(view: memoryview) -> tuple[dict[str, Any], int]:
    """Parse a v2 body's meta JSON; return ``(message, section_start)``.

    Array values stay as ``{"__nd__": [dtype, count, offset]}``
    descriptors — the raw array section is not touched.
    """
    if len(view) < _META_LEN.size:
        raise ProtocolError("binary body too short for its meta length")
    (meta_len,) = _META_LEN.unpack_from(view, 0)
    section_start = _align8(_META_LEN.size + meta_len)
    if section_start > len(view):
        raise ProtocolError("binary body shorter than its declared meta")
    meta = view[_META_LEN.size:_META_LEN.size + meta_len]
    try:
        message = json.loads(bytes(meta).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame meta: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message, section_start


def peek_meta(body: bytes | bytearray | memoryview) -> dict[str, Any]:
    """Parse only the meta JSON of a v2 body — no array revival.

    O(meta), independent of the snapshot size: this is how the
    router routes a full-snapshot ``rebalance`` by its shard and
    relays the raw bytes without ever materializing the instance.
    Array values appear as their ``{"__nd__": ...}`` descriptors.
    """
    return _parse_meta(memoryview(body))[0]


def replicate_body(body: bytes | bytearray | memoryview, shard: str) -> bytes:
    """Re-address a v2 full-snapshot ``rebalance`` body as a
    ``replicate`` of ``shard``.

    The meta becomes ``{"op": "replicate", "shard": shard, "instance":
    ...}`` with the request's own array descriptors, and the raw array
    section is reused byte for byte: descriptor offsets are relative to
    the section, so they stay valid behind a meta of any length.  This
    is how the router ships a relayed full to the shard's standby
    without decoding or re-encoding it.  Raises :class:`ProtocolError`
    on a bad meta length, a missing ``instance`` object, or an array
    descriptor that runs past the body.
    """
    view = memoryview(body)
    message, section_start = _parse_meta(view)
    instance = message.get("instance")
    if not isinstance(instance, dict):
        raise ProtocolError("binary body carries no instance object")
    section = view[section_start:]
    _revive_arrays(instance, section)  # bounds-checks every descriptor
    meta = json.dumps(
        {"op": "replicate", "shard": shard, "instance": instance},
        separators=(",", ":"),
    ).encode("utf-8")
    pad = _align8(_META_LEN.size + len(meta)) - _META_LEN.size - len(meta)
    return b"".join((_META_LEN.pack(len(meta)), meta, bytes(pad), section))


def unpack_payload(body: bytes | bytearray | memoryview) -> dict[str, Any]:
    """Inverse of :func:`pack_payload`.

    Arrays are :func:`numpy.frombuffer` views over ``body`` — zero
    copies; they stay valid as long as ``body`` is alive and are
    read-only when ``body`` is immutable ``bytes``.
    """
    view = memoryview(body)
    message, section_start = _parse_meta(view)
    return _revive_arrays(message, view[section_start:])


# ----------------------------------------------------------------------
# Frame encode
# ----------------------------------------------------------------------
def _json_default(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_frame(payload: dict[str, Any], version: int = PROTOCOL_V1) -> bytes:
    """Serialize one message to its on-wire form.

    ``version=1`` emits the JSON format (ndarray values are listified);
    ``version=2`` emits the binary format with raw array buffers.
    """
    if version == PROTOCOL_V1:
        body = json.dumps(
            payload, separators=(",", ":"), default=_json_default
        ).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {len(body)} bytes exceeds the maximum")
        return _HEADER.pack(len(body)) + body
    if version == PROTOCOL_V2:
        body = pack_payload(payload)
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {len(body)} bytes exceeds the maximum")
        return _MAGIC + _V2_TAIL.pack(PROTOCOL_V2, 0, len(body)) + body
    raise ProtocolError(f"unknown protocol version {version}")


def frame_header(body_len: int, version: int = PROTOCOL_V2) -> bytes:
    """The frame header for a ``body_len``-byte body.

    The relay path uses this to forward an already-encoded body
    verbatim: header + raw bytes, no decode/re-encode round trip.
    """
    _check_length(body_len)
    if version == PROTOCOL_V1:
        return _HEADER.pack(body_len)
    if version == PROTOCOL_V2:
        return _MAGIC + _V2_TAIL.pack(PROTOCOL_V2, 0, body_len)
    raise ProtocolError(f"unknown protocol version {version}")


def decode_body(body: bytes | bytearray | memoryview, version: int
                ) -> dict[str, Any]:
    """Decode a raw frame body read by :func:`read_frame_raw`."""
    if version == PROTOCOL_V1:
        return _decode_json_body(bytes(body))
    if version == PROTOCOL_V2:
        return unpack_payload(body)
    raise ProtocolError(f"unknown protocol version {version}")


def encode_frame_into(
    payload: dict[str, Any], buf: bytearray, version: int = PROTOCOL_V1
) -> memoryview:
    """:func:`encode_frame` into a reusable buffer.

    ``buf`` is grown as needed and never shrunk, so a connection can
    keep one scratch buffer and skip the per-frame allocation and the
    header+body concatenation copy.  Returns a memoryview of the
    encoded frame — valid until the next call with the same buffer
    (asyncio transports copy on ``write``, so handing the view straight
    to a transport is safe).
    """
    if version == PROTOCOL_V1:
        body = json.dumps(
            payload, separators=(",", ":"), default=_json_default
        ).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {len(body)} bytes exceeds the maximum")
        end = _HEADER.size + len(body)
        if len(buf) < end:
            buf.extend(bytes(end - len(buf)))
        _HEADER.pack_into(buf, 0, len(body))
        buf[_HEADER.size:end] = body
        return memoryview(buf)[:end]
    if version == PROTOCOL_V2:
        end = _pack_payload_into(payload, buf, _V2_HEADER_SIZE)
        body_len = end - _V2_HEADER_SIZE
        if body_len > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {body_len} bytes exceeds the maximum")
        buf[:len(_MAGIC)] = _MAGIC
        _V2_TAIL.pack_into(buf, len(_MAGIC), PROTOCOL_V2, 0, body_len)
        return memoryview(buf)[:end]
    raise ProtocolError(f"unknown protocol version {version}")


class RebalanceEncoder:
    """Reusable v2 encoder for a fixed rebalance meta + per-epoch delta.

    A steady-state churn stream sends the same static meta ``{"op":
    "rebalance", "shard": ..., "k": ..., ...}`` every epoch; only the
    ``delta`` object (and its arrays) changes.  Re-serializing the
    static keys through ``json.dumps`` every epoch is pure client-side
    CPU, so this caches the static JSON fragment once and splices the
    per-epoch delta fragment into a reusable frame buffer.

    ``encode(delta)`` is byte-identical to ``encode_frame({**static,
    "delta": delta}, version=PROTOCOL_V2)`` — the static fragment
    serializes first (dict insertion order), the delta's arrays are the
    only blobs, and alignment gaps are zeroed.
    """

    def __init__(self, static: dict[str, Any]) -> None:
        if not static:
            raise ValueError("static meta must be non-empty")
        if "delta" in static:
            raise ValueError("'delta' is the per-epoch field, not static")
        blobs: list[tuple[str, bytes]] = []
        static_obj = _strip_arrays(static, blobs)
        if blobs:
            raise ValueError("static meta must not carry arrays")
        prefix = json.dumps(static_obj, separators=(",", ":")).encode("utf-8")
        self._prefix = prefix[:-1] + b',"delta":'
        self._buf = bytearray()

    def encode(self, delta: dict[str, Any]) -> memoryview:
        """One frame; the returned view is valid until the next call."""
        blobs: list[tuple[str, bytes]] = []
        delta_obj = _strip_arrays(delta, blobs)
        offsets, section_size = _section_layout(blobs)
        _patch_offsets(delta_obj, offsets)
        meta = b"".join((
            self._prefix,
            json.dumps(delta_obj, separators=(",", ":")).encode("utf-8"),
            b"}",
        ))
        end = _write_body_into(
            self._buf, _V2_HEADER_SIZE, meta, blobs, offsets, section_size
        )
        body_len = end - _V2_HEADER_SIZE
        if body_len > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {body_len} bytes exceeds the maximum")
        self._buf[:len(_MAGIC)] = _MAGIC
        _V2_TAIL.pack_into(self._buf, len(_MAGIC), PROTOCOL_V2, 0, body_len)
        return memoryview(self._buf)[:end]


def _decode_json_body(body: bytes | bytearray) -> dict[str, Any]:
    try:
        message = json.loads(bytes(body).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


def _check_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared frame length {length} exceeds the maximum")
    return length


def _parse_v2_tail(head: bytes | bytearray) -> int:
    """Validate the post-magic header fields; return the body length."""
    version, _flags, length = _V2_TAIL.unpack_from(head, len(_MAGIC))
    if version != PROTOCOL_V2:
        raise ProtocolError(f"unsupported protocol version {version}")
    return _check_length(length)


# ----------------------------------------------------------------------
# Async reader
# ----------------------------------------------------------------------
async def _read_exactly(reader: asyncio.StreamReader, n: int, what: str) -> bytes:
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(f"connection closed mid-{what}") from exc


async def read_frame_versioned(
    reader: asyncio.StreamReader,
) -> tuple[dict[str, Any], int] | None:
    """Read one message and the protocol version it arrived in.

    ``None`` on clean EOF at a frame boundary.  Raises
    :class:`ProtocolError` on a torn header (``connection closed
    mid-header``), a torn body (``connection closed mid-frame``), an
    oversized declared length, or an undecodable body — the identical
    errors, with the identical messages, as the sync reader.
    """
    try:
        head = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    if head[:len(_MAGIC)] == _MAGIC:
        head += await _read_exactly(
            reader, _V2_HEADER_SIZE - _HEADER.size, "header"
        )
        length = _parse_v2_tail(head)
        body = await _read_exactly(reader, length, "frame")
        return unpack_payload(body), PROTOCOL_V2
    (length,) = _HEADER.unpack(head)
    _check_length(length)
    body = await _read_exactly(reader, length, "frame")
    return _decode_json_body(body), PROTOCOL_V1


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one message (either version); ``None`` on clean EOF."""
    frame = await read_frame_versioned(reader)
    return None if frame is None else frame[0]


async def read_frame_raw(
    reader: asyncio.StreamReader,
) -> tuple[bytes, int] | None:
    """Read one frame without decoding it: ``(raw_body, version)``.

    The v2 body is returned verbatim (:func:`peek_meta` routes on it,
    :func:`unpack_payload` fully decodes it, :func:`frame_header` +
    the raw bytes forward it); the v1 body is the JSON bytes.  Same
    EOF/torn-frame contract as :func:`read_frame_versioned`.
    """
    try:
        head = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    if head[:len(_MAGIC)] == _MAGIC:
        head += await _read_exactly(
            reader, _V2_HEADER_SIZE - _HEADER.size, "header"
        )
        length = _parse_v2_tail(head)
        return await _read_exactly(reader, length, "frame"), PROTOCOL_V2
    (length,) = _HEADER.unpack(head)
    _check_length(length)
    return await _read_exactly(reader, length, "frame"), PROTOCOL_V1


# ----------------------------------------------------------------------
# Sync reader
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, n: int, what: str) -> bytearray | None:
    """Receive exactly ``n`` bytes into one preallocated buffer.

    ``recv_into`` over a ``memoryview`` fills the buffer in place — no
    per-chunk bytes objects and no join copy, which matters at v2 frame
    sizes.  ``None`` on EOF before the first byte; a torn read raises
    ``connection closed mid-{what}``.
    """
    buf = bytearray(n)
    view = memoryview(buf)
    received = 0
    while received < n:
        chunk = sock.recv_into(view[received:], n - received)
        if chunk == 0:
            if received == 0:
                return None
            raise ProtocolError(f"connection closed mid-{what}")
        received += chunk
    return buf


def read_frame_sync_versioned(
    sock: socket.socket,
) -> tuple[dict[str, Any], int] | None:
    """Blocking counterpart of :func:`read_frame_versioned`."""
    head = _recv_exactly(sock, _HEADER.size, "header")
    if head is None:
        return None
    if head[:len(_MAGIC)] == _MAGIC:
        tail = _recv_exactly(sock, _V2_HEADER_SIZE - _HEADER.size, "header")
        if tail is None:
            raise ProtocolError("connection closed mid-header")
        length = _parse_v2_tail(head + tail)
        body = _recv_exactly(sock, length, "frame")
        if body is None:
            raise ProtocolError("connection closed mid-frame")
        return unpack_payload(bytes(body)), PROTOCOL_V2
    (length,) = _HEADER.unpack(head)
    _check_length(length)
    body = _recv_exactly(sock, length, "frame")
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode_json_body(body), PROTOCOL_V1


def read_frame_sync(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking counterpart of :func:`read_frame`."""
    frame = read_frame_sync_versioned(sock)
    return None if frame is None else frame[0]


def write_frame_sync(
    sock: socket.socket, payload: dict[str, Any], version: int = PROTOCOL_V1
) -> None:
    """Blocking send of one message."""
    sock.sendall(encode_frame(payload, version=version))
