"""Tests for the wire format and both transports."""

import threading
import time

import numpy as np
import pytest

from maskreg.errors import TransportFailure
from maskreg.transport import (
    MSG_ESTIMATE,
    MSG_GRAM_RELEASE,
    MSG_RESIDUAL_GRAM,
    MSG_SHARD,
    PROTOCOL_VERSION,
    BusTransport,
    Frame,
    TcpTransport,
    decode_frame,
    encode_frame,
    make_transport,
)


def _sample_frame(rng):
    return Frame(
        msg_type=MSG_SHARD,
        origin=3,
        round=2,
        applied=(3, 1),
        matrices=(
            rng.standard_normal((4, 3)),
            rng.standard_normal((4, 3)),
        ),
    )


def test_message_type_constants():
    assert PROTOCOL_VERSION == 1
    assert (MSG_SHARD, MSG_GRAM_RELEASE, MSG_ESTIMATE, MSG_RESIDUAL_GRAM) == (
        1, 2, 3, 4,
    )


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    frame = _sample_frame(rng)
    out = decode_frame(encode_frame(frame))
    assert out.msg_type == frame.msg_type
    assert out.origin == frame.origin
    assert out.round == frame.round
    assert out.applied == frame.applied
    assert len(out.matrices) == 2
    for got, want in zip(out.matrices, frame.matrices):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)  # bit-exact


def test_roundtrip_preserves_empty_and_single_cases():
    frame = Frame(MSG_ESTIMATE, 0, 0, (), (np.zeros((1, 1)),))
    out = decode_frame(encode_frame(frame))
    assert out.applied == ()
    assert out.matrices[0].shape == (1, 1)


def test_decode_rejects_truncation():
    data = encode_frame(_sample_frame(np.random.default_rng(1)))
    with pytest.raises(TransportFailure):
        decode_frame(data[:-3])


def test_decode_rejects_trailing_bytes():
    data = encode_frame(_sample_frame(np.random.default_rng(2)))
    with pytest.raises(TransportFailure):
        decode_frame(data + b"\x00")


def test_decode_rejects_wrong_version():
    data = bytearray(encode_frame(_sample_frame(np.random.default_rng(3))))
    data[4] ^= 0xFF  # first header byte after the length prefix
    with pytest.raises(TransportFailure):
        decode_frame(bytes(data))


def test_bus_fifo_per_channel():
    bus = BusTransport([0, 1, 2])
    rng = np.random.default_rng(4)
    sent = [Frame(MSG_ESTIMATE, 1, r, (), (rng.standard_normal((2, 2)),))
            for r in range(5)]
    for f in sent:
        bus.send(1, 2, f)
    for f in sent:
        got = bus.recv(1, 2)
        assert got.round == f.round
        assert np.array_equal(got.matrices[0], f.matrices[0])


def test_bus_timeout():
    bus = BusTransport([0, 1])
    with pytest.raises(TransportFailure):
        bus.recv(0, 1, timeout=0.05)


def test_bus_rejects_unknown_channel():
    bus = BusTransport([0, 1])
    frame = Frame(MSG_ESTIMATE, 0, 0, (), (np.zeros((1, 1)),))
    with pytest.raises(TransportFailure):
        bus.send(0, 7, frame)


def test_tcp_roundtrip_all_pairs():
    tcp = TcpTransport([0, 1, 2])
    try:
        rng = np.random.default_rng(5)
        frames = {}
        for src in (0, 1, 2):
            for dst in (0, 1, 2):
                if src == dst:
                    continue
                f = Frame(MSG_GRAM_RELEASE, src, dst, (),
                          (rng.standard_normal((3, 3)),))
                frames[(src, dst)] = f
                tcp.send(src, dst, f)
        for (src, dst), f in frames.items():
            got = tcp.recv(src, dst)
            assert got.origin == f.origin
            assert np.array_equal(got.matrices[0], f.matrices[0])
    finally:
        tcp.close()


def test_tcp_concurrent_large_frames():
    # frames bigger than a socket buffer must still pass when both sides
    # run concurrently, as they do in the shard phase
    tcp = TcpTransport([1, 2])
    try:
        big = np.random.default_rng(6).standard_normal((700, 40))
        frame = Frame(MSG_SHARD, 1, 1, (1,), (big, big))
        result = {}

        def receiver():
            result["frame"] = tcp.recv(1, 2, timeout=10.0)

        thread = threading.Thread(target=receiver)
        thread.start()
        tcp.send(1, 2, frame)
        thread.join(timeout=10.0)
        assert np.array_equal(result["frame"].matrices[0], big)
    finally:
        tcp.close()


def test_tcp_crossing_large_frames():
    # both peers send 8 MB, more than the socket buffers hold, before
    # either one reads
    tcp = TcpTransport([1, 2])
    try:
        rng = np.random.default_rng(8)
        frames = {
            (1, 2): Frame(MSG_SHARD, 1, 1, (1,), (rng.standard_normal((1024, 1024)),)),
            (2, 1): Frame(MSG_SHARD, 2, 1, (2,), (rng.standard_normal((1024, 1024)),)),
        }
        senders = [
            threading.Thread(target=tcp.send, args=(src, dst, f), daemon=True)
            for (src, dst), f in frames.items()
        ]
        for t in senders:
            t.start()
        for t in senders:
            t.join(timeout=10.0)
            assert not t.is_alive()
        for (src, dst), f in frames.items():
            got = tcp.recv(src, dst, timeout=10.0)
            assert np.array_equal(got.matrices[0], f.matrices[0])
    finally:
        tcp.close()


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_abort_wakes_blocked_recv(kind):
    transport = make_transport(kind, [0, 1])
    try:
        exc = ValueError("agency failed")
        caught = {}

        def receiver():
            try:
                transport.recv(0, 1, timeout=10.0)
            except ValueError as err:
                caught["exc"] = err

        thread = threading.Thread(target=receiver, daemon=True)
        thread.start()
        time.sleep(0.05)
        transport.abort(exc)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert caught["exc"] is exc
    finally:
        transport.close()


def test_abort_delivers_queued_frames_first():
    bus = BusTransport([0, 1])
    frame = Frame(MSG_ESTIMATE, 0, 0, (), (np.ones((1, 1)),))
    bus.send(0, 1, frame)
    bus.abort(ValueError("agency failed"))
    assert bus.recv(0, 1).matrices[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        bus.recv(0, 1)


def test_both_transports_carry_identical_bytes():
    # the transports must not transform the payload: decoding what one
    # carried equals decoding what the other carried
    frame = _sample_frame(np.random.default_rng(7))
    bus = make_transport("bus", [0, 1])
    tcp = make_transport("tcp", [0, 1])
    try:
        bus.send(0, 1, frame)
        tcp.send(0, 1, frame)
        a = bus.recv(0, 1)
        b = tcp.recv(0, 1, timeout=10.0)
        assert a.applied == b.applied
        for m1, m2 in zip(a.matrices, b.matrices):
            assert np.array_equal(m1, m2)
    finally:
        tcp.close()


def test_make_transport_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon", [0, 1])
