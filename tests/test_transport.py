"""Tests for the wire format and both transports."""

import hashlib
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from maskreg import transport as transport_module
from maskreg.errors import TransportFailure
from maskreg.matrix_core import REFLECTOR_BLOCKS_PER_THREAD
from maskreg.runner import RunConfig, channels, cross_validate_encrypted
from maskreg.transport import (
    MSG_ESTIMATE,
    MSG_GRAM_RELEASE,
    MSG_RESIDUAL_GRAM,
    MSG_SHARD,
    PROTOCOL_VERSION,
    BusTransport,
    Frame,
    TcpTransport,
    _read_frame,
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
    data = bytes(encode_frame(_sample_frame(np.random.default_rng(1))))
    with pytest.raises(TransportFailure):
        decode_frame(data[:-3])


def test_decode_rejects_trailing_bytes():
    data = bytes(encode_frame(_sample_frame(np.random.default_rng(2))))
    with pytest.raises(TransportFailure):
        decode_frame(data + b"\x00")


def test_decode_rejects_wrong_version():
    data = bytearray(bytes(encode_frame(_sample_frame(np.random.default_rng(3)))))
    data[4] ^= 0xFF  # first header byte after the length prefix
    with pytest.raises(TransportFailure):
        decode_frame(bytes(data))


def test_bus_fifo_per_channel():
    bus = BusTransport([(1, 2)])
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
    bus = BusTransport([(0, 1)])
    with pytest.raises(TransportFailure):
        bus.recv(0, 1, timeout=0.05)


def test_bus_rejects_unknown_channel():
    bus = BusTransport([(0, 1)])
    frame = Frame(MSG_ESTIMATE, 0, 0, (), (np.zeros((1, 1)),))
    with pytest.raises(TransportFailure):
        bus.send(0, 7, frame)


def test_tcp_roundtrip_all_pairs():
    tcp = TcpTransport([(src, dst) for src in (0, 1, 2) for dst in (0, 1, 2)
                        if src != dst])
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
    tcp = TcpTransport([(1, 2)])
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
    tcp = TcpTransport([(1, 2), (2, 1)])
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
    transport = make_transport(kind, [(0, 1)])
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
    bus = BusTransport([(0, 1)])
    frame = Frame(MSG_ESTIMATE, 0, 0, (), (np.ones((1, 1)),))
    bus.send(0, 1, frame)
    bus.abort(ValueError("agency failed"))
    assert bus.recv(0, 1).matrices[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        bus.recv(0, 1)


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_first_abort_sticks_for_every_recv(kind):
    transport = make_transport(kind, [(0, 1)])
    first, second = ValueError("first"), ValueError("second")
    transport.abort(first)
    transport.abort(second)
    transport.close()
    for _ in range(2):
        with pytest.raises(ValueError) as caught:
            transport.recv(0, 1, timeout=1.0)
        assert caught.value is first


def test_concurrent_aborts_give_every_recv_one_failure():
    # aborts race each other and the receivers they wake; one failure
    # must win for every receiver and every later recv
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    bus = BusTransport(pairs)
    caught = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def receiver(src, dst):
            try:
                bus.recv(src, dst, timeout=10.0)
            except ValueError as err:
                caught.append(err)

        threads = [threading.Thread(target=receiver, args=pair, daemon=True)
                   for pair in pairs]
        threads += [threading.Thread(target=bus.abort,
                                     args=(ValueError(i),), daemon=True)
                    for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert len(caught) == len(pairs)
    for src, dst in pairs:
        with pytest.raises(ValueError) as later:
            bus.recv(src, dst, timeout=1.0)
        caught.append(later.value)
    assert all(err is caught[0] for err in caught)


def _header(length_after_prefix):
    """The wire header of a one-matrix shard frame with no applied ids, its
    length prefix saying ``length_after_prefix``."""
    return struct.pack("<IHBBHBB", length_after_prefix, PROTOCOL_VERSION,
                       MSG_SHARD, 0, 0, 0, 1)


def test_send_fails_at_once_after_the_reader_dies():
    tcp = TcpTransport([(0, 1)])
    try:
        # a length prefix shorter than the header kills the reader
        tcp._out[(0, 1)].sendall(_header(0))
        with pytest.raises(TransportFailure, match="shorter than its header"):
            tcp.recv(0, 1, timeout=5.0)
        payload, (matrix,) = transport_module.payload_buffer([(1024, 8192)])
        matrix[...] = 0.0  # 64 MiB, far more than the socket buffers hold
        t0 = time.perf_counter()
        with pytest.raises(TransportFailure, match="send 0 -> 1 failed"):
            tcp.send(0, 1, Frame(MSG_SHARD, 0, 0, (), (matrix,), payload))
        assert time.perf_counter() - t0 < 2.0
    finally:
        tcp.close()


def test_close_ends_a_read_stuck_mid_frame():
    tcp = TcpTransport([(0, 1)])
    # a 1 MiB frame is announced and never sent
    tcp._out[(0, 1)].sendall(_header(8 + 2**20))
    time.sleep(0.2)
    t0 = time.perf_counter()
    tcp.close()
    assert time.perf_counter() - t0 < 2.0
    with pytest.raises(TransportFailure, match="transport closed"):
        tcp.recv(0, 1, timeout=1.0)


def test_reader_fails_the_run_on_any_exception():
    """A frame too big to allocate stops the reader with a MemoryError,
    which must fail every recv at once, naming it, not time it out."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS") or sys.platform != "linux":
        pytest.skip("needs an enforced address-space limit")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import resource, struct, time\n"
        "from maskreg.errors import TransportFailure\n"
        "from maskreg.transport import TcpTransport\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = 2**31 if hard == resource.RLIM_INFINITY else min(2**31, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "tcp = TcpTransport([(0, 1)])\n"
        f"tcp._out[(0, 1)].sendall({_header(2**32 - 1)!r})\n"
        "t0 = time.perf_counter()\n"
        "try:\n"
        "    tcp.recv(0, 1, timeout=5.0)\n"
        "except TransportFailure as exc:\n"
        "    print(time.perf_counter() - t0)\n"
        "    print(exc)\n"
        "finally:\n"
        "    tcp.close()\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    elapsed, message = out.stdout.splitlines()
    assert float(elapsed) < 2.0
    assert "MemoryError" in message and "allocate" in message


def _open_descriptors():
    """How many descriptors this process holds, or None without procfs."""
    fds = "/proc/self/fd"
    return len(os.listdir(fds)) if os.path.isdir(fds) else None


@pytest.mark.parametrize("k", [1, 2, 5])
def test_transports_hold_one_mailbox_and_connection_per_channel(k):
    pairs = channels(k)
    bus = make_transport("bus", pairs)
    before = _open_descriptors()
    tcp = make_transport("tcp", pairs)
    try:
        assert sorted(bus._queues) == sorted(tcp._queues) == pairs
        assert sorted(tcp._out) == pairs
        # one inbound socket per channel
        assert len(tcp._selector.get_map()) == len(pairs)
        # no listener outlives set-up
        assert not any(s.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN)
                       for s in tcp._socks)
        if before is not None:
            # both ends of each channel and the selector
            assert _open_descriptors() - before == 2 * len(pairs) + 1
        frame = Frame(MSG_ESTIMATE, 0, 0, (), (np.zeros((1, 1)),))
        for transport in (bus, tcp):
            with pytest.raises(TransportFailure, match="no channel"):
                transport.send(0, 2, frame)
    finally:
        bus.close()
        tcp.close()


def test_tcp_mesh_rejects_a_stray_connection(monkeypatch):
    """A connection the mesh did not dial, reaching its listener first,
    fails set-up at once rather than being taken for a channel."""
    dial = socket.create_connection
    strays = []

    def dial_after_a_stray(address, *args, **kwargs):
        if not strays:
            strays.append(dial(address, *args, **kwargs))
        return dial(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", dial_after_a_stray)
    try:
        with pytest.raises(TransportFailure, match="unexpected connection"):
            TcpTransport(channels(3))
    finally:
        for stray in strays:
            stray.close()
    assert len(strays) == 1


def test_both_transports_carry_identical_bytes():
    # the transports must not transform the payload: decoding what one
    # carried equals decoding what the other carried
    frame = _sample_frame(np.random.default_rng(7))
    bus = make_transport("bus", [(0, 1)])
    tcp = make_transport("tcp", [(0, 1)])
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
        make_transport("carrier-pigeon", [(0, 1)])


def _wire_bytes(frame):
    """The frame's wire bytes built field by field, as the module
    docstring lays them out."""
    body = struct.pack("<HBBHB", PROTOCOL_VERSION, frame.msg_type,
                       frame.origin, frame.round, len(frame.applied))
    body += bytes(frame.applied) + struct.pack("<B", len(frame.matrices))
    for m in frame.matrices:
        body += struct.pack("<II", *m.shape) + m.astype("<f8").tobytes()
    return struct.pack("<I", len(body)) + body


def test_decoded_matrices_are_writeable_views_of_the_payload():
    wire = encode_frame(_sample_frame(np.random.default_rng(10)))
    frame = decode_frame(wire)
    assert frame.payload is wire.payload
    for m in frame.matrices:
        assert m.flags.writeable and np.shares_memory(m, wire.payload)
    # joined read-only bytes are copied once, so the views stay writeable
    frame = decode_frame(bytes(wire))
    assert all(m.flags.writeable for m in frame.matrices)


def test_encode_rejects_matrices_that_do_not_view_the_payload():
    frame = decode_frame(encode_frame(_sample_frame(np.random.default_rng(11))))
    moved = Frame(frame.msg_type, frame.origin, frame.round, frame.applied,
                  (frame.matrices[0].copy(), frame.matrices[1]), frame.payload)
    with pytest.raises(TransportFailure, match="not the views"):
        encode_frame(moved)


class _TrickleSocket:
    """Takes at most ``limit`` bytes per ``sendmsg`` and serves them back
    at most ``limit`` bytes per ``recv_into``; records each call's buffer
    lengths."""

    def __init__(self, limit):
        self.limit = limit
        self.wire = bytearray()
        self.calls = []
        self._read = 0

    def sendmsg(self, buffers):
        self.calls.append([memoryview(b).nbytes for b in buffers])
        data = b"".join(bytes(b) for b in buffers)[:self.limit]
        self.wire += data
        return len(data)

    def recv_into(self, view):
        n = min(self.limit, len(view), len(self.wire) - self._read)
        view[:n] = self.wire[self._read:self._read + n]
        self._read += n
        return n


def test_tcp_send_resumes_after_partial_sends():
    frame = _sample_frame(np.random.default_rng(12))
    wire = encode_frame(frame)
    header, payload = len(wire.header), wire.payload.nbytes
    fake = _TrickleSocket(limit=5)
    tcp = TcpTransport([(0, 1)])
    try:
        real, tcp._out[(0, 1)] = tcp._out[(0, 1)], fake
        try:
            tcp.send(0, 1, frame)
        finally:
            tcp._out[(0, 1)] = real
    finally:
        tcp.close()
    assert bytes(fake.wire) == _wire_bytes(frame) == bytes(wire)
    assert len(wire) == len(fake.wire)
    # the header and the payload go as separate buffers, and the loop
    # picks up inside each of them
    assert fake.calls[0] == [header, payload]
    assert any(len(c) == 2 and 0 < c[0] < header for c in fake.calls[1:])
    assert any(len(c) == 1 and 0 < c[0] < payload for c in fake.calls)
    got = decode_frame(_read_frame(fake))
    assert got.applied == frame.applied
    for m1, m2 in zip(got.matrices, frame.matrices):
        assert np.array_equal(m1, m2)


#: Rows per agency in the golden run. At the default block size of 16 and
#: k=3, origin 1 has 96 = REFLECTOR_BLOCKS_PER_THREAD·3 full blocks and a
#: tail (the reflector kernel), origin 2 two full blocks and a tail (the
#: batched QR), and origin 3 three whole blocks.
GOLDEN_ROWS = (1541, 40, 48)

#: SHA-256 of the raw numpy results in ``_arithmetic_fingerprint`` on the
#: machine that recorded ``WIRE_SHA256``.
FINGERPRINT = "e25c7d7f50809a10450a87751b63de9bd207341ea21758c6ed13f6e14695da3b"

#: SHA-256 of every frame's wire bytes in the golden run, keyed by
#: (type, origin, round, applied ids), the same over the bus and over TCP.
WIRE_SHA256 = {
    (1, 1, 1, (1,)):
        "6febdbc76cff8565277fe83fcb9b29fceb0b82a3cd851b124a94aaff0763c018",
    (1, 1, 2, (1, 2)):
        "29c3bc677e9b5cc64ee7be4dec3972fa94b637a555b67f3aad4bed7f935a13a1",
    (1, 1, 3, (1, 2, 3)):
        "69ad5214f7b429f8ae765736bf901adba5dff1ab6668086297a1fa28b1901272",
    (1, 2, 1, (2,)):
        "2fd2843e38aa6b438e595a4c806df6d880b4e23b44cf257fc75b77fa82899360",
    (1, 2, 2, (2, 3)):
        "1cf91dc8a4108c76b05b8fe3b200b7fefaf329f0fc91ef03ee184d9c1e5ae8cd",
    (1, 2, 3, (2, 3, 1)):
        "69c1b84cae13c5aef3db1d604b38c89edc2395a6ee344127f9a7780c43783fc9",
    (1, 3, 1, (3,)):
        "b6ad1f5e7a3435415e150d8769148416c272653d511b8edc167266e971ec4c0d",
    (1, 3, 2, (3, 1)):
        "ef14986fbd347f58d56183b9be58fcc01f0e41be31302dd78aba8619bb83b733",
    (1, 3, 3, (3, 1, 2)):
        "ea1faabb2cdeac82ec46cdadae319fbebb41b29e34c81c31c16fad88e9026911",
    (2, 0, 0, ()):
        "4a723924497c89b1d18bfe211a128893565124975237d664b69317461567717f",
    (2, 1, 0, (1,)):
        "7e7545a28e784e8d8dfa33b5035679e7e7a606b15e68641a26638bf9ebc8267c",
    (2, 2, 0, (1, 2)):
        "fc33b4a02a060e44838126f2afb79582b80c0d590f87df5724218f5f4b07427c",
    (2, 3, 0, (1, 2, 3)):
        "0dd8aed2fd5e0645c9561149a06e5a7a9d845e145b51c6add9f9af61af7dce90",
    (3, 0, 0, ()):
        "0d50160df11c1021cdb0013a0e943e31bed7cca8a0fce66dc6d766462b574b3b",
    (3, 1, 0, (1,)):
        "c286afa207fc903dccc6046bcaedf3b04e71b6fbcc03a6a78c8f7ab287319572",
    (3, 2, 0, (1, 2)):
        "68e1bc9286feabbbe934e6a990d1f85a07a1b3bb85281ae581ffe28951fdd526",
    (3, 3, 0, (1, 2, 3)):
        "626e33314e44e1ef1486db7037c12d01b026030e206ae0d49f2d5dc9ccc79940",
    (4, 0, 0, ()):
        "dc17b3b81a95f05663e448df244a0044b5af028bdd88ef4086fb4b30d9fe9a46",
    (4, 1, 0, (1,)):
        "a09bd1093c0e44b6653adb6a8c99702a010245cb70c3075af318541f5f2802a7",
    (4, 2, 0, (1, 2)):
        "c71762caeab1bf0592ad72a539d513bcabf834f2785615eec45db44354b808d8",
    (4, 3, 0, (1, 2, 3)):
        "f4c03a5e05cb9bf5ec17a6c3f534f2819d5d657aff5ffc8fd931d00923a89614",
}


def _arithmetic_fingerprint():
    """SHA-256 of numpy, BLAS and LAPACK results of the kinds a run uses,
    on fixed inputs. Another CPU or BLAS build may round these, and so the
    golden run's frames, differently."""
    rng = np.random.default_rng(11)
    g = rng.standard_normal((5, 16, 16))
    m = rng.standard_normal((5, 16, 6))
    key = rng.standard_normal((6, 6))
    x = rng.standard_normal((16, 40))
    parts = [
        np.linalg.qr(g)[0],
        np.linalg.qr(rng.standard_normal((300, 7)), mode="r"),
        (g @ m) @ key,
        np.einsum("ac,abc->bc", x[:4], rng.standard_normal((4, 4, 40))),
        np.sqrt(np.add.reduceat(x * x, [0, 5, 9], axis=0)),
        np.linalg.solve(key, m[0].T),
    ]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _wire_hashes(kind):
    """SHA-256 of every frame's wire bytes in the golden run, a k=3
    encrypted CV over transport ``kind``, keyed as ``WIRE_SHA256``."""
    rng = np.random.default_rng(2024)
    datasets = [(rng.standard_normal((n, 4)), rng.standard_normal(n))
                for n in GOLDEN_ROWS]
    hashes = {}
    encode = transport_module.encode_frame

    def recording(frame):
        wire = encode(frame)
        key = (frame.msg_type, frame.origin, frame.round, frame.applied)
        assert key not in hashes
        hashes[key] = hashlib.sha256(bytes(wire)).hexdigest()
        return wire

    transport_module.encode_frame = recording
    try:
        cross_validate_encrypted(datasets, RunConfig(
            k=3, mode="ridge", folds=2, seed=5, transport=kind))
    finally:
        transport_module.encode_frame = encode
    return hashes


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_wire_bytes_match_golden(kind):
    block_size, k = RunConfig().block_size, len(GOLDEN_ROWS)
    full = [n // block_size for n in GOLDEN_ROWS]
    assert max(full) >= REFLECTOR_BLOCKS_PER_THREAD * k > min(full)
    assert any(n % block_size for n in GOLDEN_ROWS)
    if _arithmetic_fingerprint() != FINGERPRINT:
        pytest.skip("this numpy/BLAS rounds differently from the one that "
                    "recorded the golden hashes")
    assert _wire_hashes(kind) == WIRE_SHA256
