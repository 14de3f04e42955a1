"""Tests for the wire protocol: v1 JSON and v2 binary framing."""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance, apply_delta, compute_delta, make_instance
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_V1,
    PROTOCOL_V2,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    pack_payload,
    read_frame,
    read_frame_sync,
    read_frame_sync_versioned,
    read_frame_versioned,
    replicate_body,
    unpack_payload,
    write_frame_sync,
)


def _read_async(data: bytes):
    """Feed raw bytes to an asyncio StreamReader and read one frame."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFraming:
    def test_roundtrip(self):
        message = {"op": "rebalance", "k": 3, "nested": {"a": [1, 2.5]}}
        assert _read_async(encode_frame(message)) == message

    def test_header_is_big_endian_length(self):
        frame = encode_frame({"x": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_compact_encoding(self):
        assert b", " not in encode_frame({"a": 1, "b": 2})

    def test_multiple_frames_stream(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"i": 1}) + encode_frame({"i": 2}))
            reader.feed_eof()
            return await read_frame(reader), await read_frame(reader), \
                await read_frame(reader)

        first, second, third = asyncio.run(go())
        assert (first, second) == ({"i": 1}, {"i": 2})
        assert third is None  # clean EOF at a frame boundary

    def test_clean_eof_returns_none(self):
        assert _read_async(b"") is None

    def test_eof_mid_header_raises(self):
        with pytest.raises(ProtocolError):
            _read_async(b"\x00\x00")

    def test_eof_mid_body_raises(self):
        frame = encode_frame({"x": 1})
        with pytest.raises(ProtocolError):
            _read_async(frame[:-2])

    def test_oversized_frame_rejected_without_reading_body(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            _read_async(header)

    def test_bad_json_raises(self):
        body = b"{not json"
        with pytest.raises(ProtocolError):
            _read_async(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_raises(self):
        body = b"[1, 2, 3]"
        with pytest.raises(ProtocolError):
            _read_async(struct.pack(">I", len(body)) + body)

    def test_encode_rejects_oversized(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})


class TestSyncFraming:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {"op": "ping", "payload": list(range(10))}

            def serve():
                received = read_frame_sync(right)
                write_frame_sync(right, {"echo": received})

            thread = threading.Thread(target=serve)
            thread.start()
            write_frame_sync(left, message)
            reply = read_frame_sync(left)
            thread.join()
            assert reply == {"echo": message}
        finally:
            left.close()
            right.close()

    def test_clean_close_returns_none(self):
        left, right = socket.socketpair()
        right.close()
        try:
            assert read_frame_sync(left) is None
        finally:
            left.close()

    def test_close_mid_frame_raises(self):
        left, right = socket.socketpair()
        frame = encode_frame({"x": 1})
        right.sendall(frame[:-1])
        right.close()
        try:
            with pytest.raises(ProtocolError):
                read_frame_sync(left)
        finally:
            left.close()


def _read_versioned_async(data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame_versioned(reader)

    return asyncio.run(go())


def _read_versioned_sync(data: bytes):
    left, right = socket.socketpair()
    try:
        right.sendall(data)
        right.close()
        return read_frame_sync_versioned(left)
    finally:
        left.close()


def _sync_error_message(data: bytes) -> str:
    left, right = socket.socketpair()
    try:
        right.sendall(data)
        right.close()
        with pytest.raises(ProtocolError) as excinfo:
            read_frame_sync_versioned(left)
        return str(excinfo.value)
    finally:
        left.close()


def _async_error_message(data: bytes) -> str:
    with pytest.raises(ProtocolError) as excinfo:
        _read_versioned_async(data)
    return str(excinfo.value)


class TestBinaryFraming:
    def _message(self):
        return {
            "op": "rebalance",
            "shard": "web",
            "k": 4,
            "instance": {
                "sizes": np.array([1.5, 2.0, 0.25]),
                "costs": np.array([1.0, 1.0, 1.0]),
                "initial": np.array([0, 1, 1], dtype=np.int64),
                "num_processors": 2,
            },
        }

    def test_pack_unpack_roundtrip_bit_exact(self):
        message = self._message()
        out = unpack_payload(pack_payload(message))
        inst = out["instance"]
        assert out["op"] == "rebalance" and out["k"] == 4
        assert inst["sizes"].dtype == np.float64
        assert inst["initial"].dtype == np.int64
        np.testing.assert_array_equal(inst["sizes"], message["instance"]["sizes"])
        np.testing.assert_array_equal(inst["initial"], message["instance"]["initial"])

    def test_v2_frame_roundtrip_async_and_sync(self):
        frame = encode_frame(self._message(), version=PROTOCOL_V2)
        message, version = _read_versioned_async(frame)
        assert version == PROTOCOL_V2
        np.testing.assert_array_equal(
            message["instance"]["sizes"], self._message()["instance"]["sizes"]
        )
        message, version = _read_versioned_sync(frame)
        assert version == PROTOCOL_V2

    def test_v2_magic_and_little_endian_length(self):
        frame = encode_frame({"x": 1}, version=PROTOCOL_V2)
        assert frame[:2] == b"RB"
        assert frame[2] == PROTOCOL_V2
        (length,) = struct.unpack("<I", frame[4:8])
        assert length == len(frame) - 8

    def test_empty_arrays_survive(self):
        message = {"idx": np.array([], dtype=np.int64)}
        out = unpack_payload(pack_payload(message))
        assert out["idx"].shape == (0,)
        assert out["idx"].dtype == np.int64

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ProtocolError):
            pack_payload({"bad": np.array(["a", "b"])})

    def test_truncated_array_section_rejected(self):
        body = pack_payload({"a": np.arange(8, dtype=np.int64)})
        with pytest.raises(ProtocolError):
            unpack_payload(body[:-16])

    def test_non_object_meta_rejected(self):
        meta = b"[1,2]"
        body = struct.pack("<I", len(meta)) + meta
        with pytest.raises(ProtocolError):
            unpack_payload(body)

    def test_unknown_version_byte_rejected(self):
        frame = bytearray(encode_frame({"x": 1}, version=PROTOCOL_V2))
        frame[2] = 9
        with pytest.raises(ProtocolError, match="version"):
            _read_versioned_async(bytes(frame))
        with pytest.raises(ProtocolError, match="version"):
            _read_versioned_sync(bytes(frame))

    def test_encode_unknown_version_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"x": 1}, version=3)


class TestVersionNegotiation:
    def test_v1_frames_report_v1(self):
        message, version = _read_versioned_async(encode_frame({"x": 1}))
        assert (message, version) == ({"x": 1}, PROTOCOL_V1)
        message, version = _read_versioned_sync(encode_frame({"x": 1}))
        assert (message, version) == ({"x": 1}, PROTOCOL_V1)

    def test_mixed_version_stream_async(self):
        data = (
            encode_frame({"i": 1})
            + encode_frame({"i": 2}, version=PROTOCOL_V2)
            + encode_frame({"i": 3})
        )

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            frames = []
            while True:
                frame = await read_frame_versioned(reader)
                if frame is None:
                    return frames
                frames.append(frame)

        frames = asyncio.run(go())
        assert [(m["i"], v) for m, v in frames] == [
            (1, PROTOCOL_V1), (2, PROTOCOL_V2), (3, PROTOCOL_V1),
        ]

    def test_mixed_version_stream_sync(self):
        left, right = socket.socketpair()
        try:
            right.sendall(
                encode_frame({"i": 1}, version=PROTOCOL_V2)
                + encode_frame({"i": 2})
            )
            right.close()
            assert read_frame_sync_versioned(left) == ({"i": 1}, PROTOCOL_V2)
            assert read_frame_sync_versioned(left) == ({"i": 2}, PROTOCOL_V1)
            assert read_frame_sync_versioned(left) is None
        finally:
            left.close()

    def test_oversized_declared_length_rejected_both_versions(self):
        v1_header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        v2_header = b"RB" + struct.pack("<BBI", PROTOCOL_V2, 0, MAX_FRAME_BYTES + 1)
        for header in (v1_header, v2_header):
            with pytest.raises(ProtocolError, match="exceeds the maximum"):
                _read_versioned_async(header)
            with pytest.raises(ProtocolError, match="exceeds the maximum"):
                _read_versioned_sync(header)


class TestEofMessageParity:
    """Sync and async readers must report torn reads identically."""

    def test_mid_header_messages_match(self):
        for data in (b"\x00\x00", b"RB\x02"):
            sync_msg = _sync_error_message(data)
            async_msg = _async_error_message(data)
            assert sync_msg == async_msg == "connection closed mid-header"

    def test_mid_frame_messages_match(self):
        for version in (PROTOCOL_V1, PROTOCOL_V2):
            frame = encode_frame({"x": 1}, version=version)
            sync_msg = _sync_error_message(frame[:-2])
            async_msg = _async_error_message(frame[:-2])
            assert sync_msg == async_msg == "connection closed mid-frame"


class TestDeltaFrames:
    def _instances(self):
        base = make_instance(
            [5.0, 3.0, 2.0, 8.0, 1.0], [0, 0, 1, 1, 2], num_processors=3
        )
        sizes = base.sizes.copy()
        sizes[1] = 3.5
        sizes[4] = 0.75
        new = Instance(
            sizes=sizes, costs=base.costs,
            num_processors=3, initial=base.initial,
        )
        return base, new

    def test_delta_roundtrip_reconstructs_bit_exact(self):
        base, new = self._instances()
        delta = compute_delta(base, new)
        assert delta is not None
        assert delta["idx"].tolist() == [1, 4]
        # Ship the delta through an actual v2 frame and apply it.
        frame = encode_frame({"delta": delta}, version=PROTOCOL_V2)
        message, version = _read_versioned_sync(frame)
        assert version == PROTOCOL_V2
        rebuilt = apply_delta(base, message["delta"])
        assert rebuilt.sizes.tobytes() == new.sizes.tobytes()
        assert rebuilt.costs.tobytes() == new.costs.tobytes()
        assert rebuilt.initial.tobytes() == new.initial.tobytes()
        assert rebuilt.num_processors == new.num_processors

    def test_identical_snapshots_yield_empty_delta(self):
        base, _ = self._instances()
        delta = compute_delta(base, base)
        assert delta is not None and delta["idx"].size == 0
        rebuilt = apply_delta(base, delta)
        assert rebuilt.sizes.tobytes() == base.sizes.tobytes()

    def test_incompatible_shapes_yield_none(self):
        base, _ = self._instances()
        grown = make_instance([1.0] * 6, [0] * 6, num_processors=3)
        assert compute_delta(base, grown) is None

    def test_apply_delta_validates_indices(self):
        base, new = self._instances()
        delta = compute_delta(base, new)
        delta["idx"] = np.array([1, 99], dtype=np.int64)
        with pytest.raises(ValueError):
            apply_delta(base, delta)

    def test_apply_delta_validates_lengths(self):
        base, new = self._instances()
        delta = compute_delta(base, new)
        delta["sizes"] = np.array([1.0], dtype=np.float64)
        with pytest.raises(ValueError):
            apply_delta(base, delta)

    def test_delta_frame_smaller_than_full_at_scale(self):
        rng = np.random.default_rng(7)
        n = 4000
        base = make_instance(
            rng.uniform(0.5, 2.0, n), rng.integers(0, 16, n),
            num_processors=16,
        )
        sizes = base.sizes.copy()
        sizes[:10] *= 1.5  # 10 changed sites out of 4000
        new = base.with_initial(base.initial)
        new = Instance(
            sizes=sizes, costs=base.costs,
            num_processors=16, initial=base.initial,
        )
        full = encode_frame(
            {"op": "rebalance", "instance": new.to_wire()}, version=PROTOCOL_V2
        )
        delta = encode_frame(
            {"op": "rebalance", "delta": {"base": "00" * 16,
                                          **compute_delta(base, new)}},
            version=PROTOCOL_V2,
        )
        assert len(delta) * 5 < len(full)


class TestResponses:
    def test_ok_response(self):
        assert ok_response(op="ping", value=2) == {
            "ok": True, "op": "ping", "value": 2,
        }

    def test_error_response(self):
        response = error_response("overloaded", retry_after_ms=12.0)
        assert response["ok"] is False
        assert response["error"] == "overloaded"
        assert response["retry_after_ms"] == 12.0


_shards = st.text(min_size=0, max_size=12)  # any unicode, non-ASCII included


@st.composite
def _full_bodies(draw):
    """A v2 full-snapshot ``rebalance`` body with random routing fields
    and ``n >= 0`` sites; returns ``(body, shard, instance arrays)``."""
    shard = draw(_shards)
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    instance = {
        "sizes": rng.uniform(0.1, 9.0, n),
        "costs": rng.uniform(0.5, 2.0, n),
        "initial": rng.integers(0, m, n),
        "num_processors": m,
    }
    message = {"op": "rebalance", "shard": shard,
               "k": draw(st.integers(0, 2**31)), "instance": instance}
    deadline = draw(st.none() | st.floats(1.0, 1e4))
    if deadline is not None:
        message["deadline_ms"] = deadline
    if draw(st.booleans()):
        message["moves_only"] = draw(st.booleans())
    return pack_payload(message), shard, instance


class TestReplicateBody:
    """The router re-addresses a relayed full as the standby's
    ``replicate`` without decoding or re-encoding its arrays."""

    @settings(max_examples=60, deadline=None)
    @given(_full_bodies())
    def test_readdressed_body_decodes_to_a_replicate(self, drawn):
        body, shard, instance = drawn
        out = unpack_payload(replicate_body(body, shard))
        assert set(out) == {"op", "shard", "instance"}
        assert out["op"] == "replicate"
        assert out["shard"] == shard
        assert out["instance"]["num_processors"] == instance["num_processors"]
        for key in ("sizes", "costs", "initial"):
            assert out["instance"][key].dtype == instance[key].dtype
            np.testing.assert_array_equal(out["instance"][key], instance[key])

    @settings(max_examples=60, deadline=None)
    @given(_full_bodies(), st.data())
    def test_truncated_body_rejected(self, drawn, data):
        body = drawn[0]
        cut = data.draw(st.integers(0, len(body) - 1))
        with pytest.raises(ProtocolError):
            replicate_body(body[:cut], "s")

    @settings(max_examples=60, deadline=None)
    @given(_full_bodies(), st.data())
    def test_bad_meta_length_rejected(self, drawn, data):
        """A declared meta length shorter than the meta cuts its JSON
        open; one longer than the body overruns it."""
        body = drawn[0]
        (meta_len,) = struct.unpack_from("<I", body)
        bad = data.draw(
            st.integers(0, meta_len - 1)
            | st.integers(len(body) - 3, 2**32 - 1)
        )
        with pytest.raises(ProtocolError):
            replicate_body(struct.pack("<I", bad) + body[4:], "s")

    def test_body_without_an_instance_rejected(self):
        body = pack_payload({"op": "rebalance", "shard": "s", "k": 2,
                             "delta": {"idx": np.arange(3)}})
        with pytest.raises(ProtocolError, match="instance"):
            replicate_body(body, "s")
