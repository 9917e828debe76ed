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
from maskreg.runner import (
    RunConfig,
    channels,
    cross_validate_encrypted,
    run_protocol,
)
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
        matrix = np.zeros((1024, 8192))  # 64 MiB, more than sockets buffer
        t0 = time.perf_counter()
        with pytest.raises(TransportFailure, match="send 0 -> 1 failed"):
            tcp.send(0, 1, Frame(MSG_SHARD, 0, 0, (), (matrix,)))
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
    # a received frame's matrices view the wire buffer it arrived in, no copy
    wire = encode_frame(_sample_frame(np.random.default_rng(10)))
    frame = decode_frame(wire)
    for m in frame.matrices:
        assert m.flags.writeable and np.shares_memory(m, wire)


class _TrickleSocket:
    """Keeps what ``sendall`` sends and serves it back at most ``limit``
    bytes per ``recv_into``."""

    def __init__(self, limit):
        self.limit = limit
        self.wire = bytearray()
        self._read = 0

    def sendall(self, data):
        self.wire += memoryview(data).cast("B")

    def recv_into(self, view):
        n = min(self.limit, len(view), len(self.wire) - self._read)
        view[:n] = self.wire[self._read:self._read + n]
        self._read += n
        return n


def test_tcp_send_resumes_after_partial_sends():
    frame = _sample_frame(np.random.default_rng(12))
    wire = encode_frame(frame)
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
    got = decode_frame(_read_frame(fake))
    assert got.applied == frame.applied
    for m1, m2 in zip(got.matrices, frame.matrices):
        assert np.array_equal(m1, m2)


#: Rows per agency in the golden run. At the default block size of 16,
#: origins 1 and 2 end in a tail block, and origin 3 has three whole
#: blocks.
GOLDEN_ROWS = (1541, 40, 48)

#: SHA-256 of the raw numpy results in ``_arithmetic_fingerprint`` on the
#: machine that recorded ``WIRE_SHA256``.
FINGERPRINT = "e25c7d7f50809a10450a87751b63de9bd207341ea21758c6ed13f6e14695da3b"

#: SHA-256 of every frame's wire bytes in the golden run, keyed by
#: (type, origin, round, applied ids), the same over the bus and over TCP.
WIRE_SHA256 = {
    (1, 1, 1, (1,)):
        "031fe0674396334d4b72a6f4c9e35c81400dd585eefc5ea7b97a86a6009e3dab",
    (1, 1, 2, (1, 2)):
        "b70a275c09f5adc047ac7644da6477d530c155d6a7086c2e4815b615987931d7",
    (1, 1, 3, (1, 2, 3)):
        "3998689b4a6f6afe5e3992fe3a27f1e490a2bf2700426aac1d6074068973fe73",
    (1, 2, 1, (2,)):
        "12f6eab645ee579cb626d5bdb05693a8556e6eb3007f4c9abde3781dc4285268",
    (1, 2, 2, (2, 3)):
        "7f6fe3e12286db7831cddcbc71001604fb3576d6614f344d0bfd029829b69cfd",
    (1, 2, 3, (2, 3, 1)):
        "1609b189895f1374ab8b8b3ecc8635b055fae17c307dfc2ba350e254c25c8d3a",
    (1, 3, 1, (3,)):
        "8e7ccc524843096dbb28a709a0d62dd8d0c8e90643984fa510f075e12b0362df",
    (1, 3, 2, (3, 1)):
        "a1193e536c692ba148c1a1b8d648e5626d49b5977e3e85fb10acd168d8c6b9c0",
    (1, 3, 3, (3, 1, 2)):
        "00b22c9104d7160ea9e74a547f641e65f3b29d593ad5e440ea911ab9c10dde53",
    (2, 0, 0, ()):
        "4a723924497c89b1d18bfe211a128893565124975237d664b69317461567717f",
    (2, 1, 0, (1,)):
        "7e7545a28e784e8d8dfa33b5035679e7e7a606b15e68641a26638bf9ebc8267c",
    (2, 2, 0, (1, 2)):
        "fc33b4a02a060e44838126f2afb79582b80c0d590f87df5724218f5f4b07427c",
    (2, 3, 0, (1, 2, 3)):
        "0dd8aed2fd5e0645c9561149a06e5a7a9d845e145b51c6add9f9af61af7dce90",
    (3, 0, 0, ()):
        "37afda33b71a313d3b85a1618cfaa6cfc70b595f434ebc7922da6e851a2337a2",
    (3, 1, 0, (1,)):
        "14339eec6ce9fbf71eb0761c4352126d9a4e7900eee092335bfe659ab4d8b33e",
    (3, 2, 0, (1, 2)):
        "326814f433a355a1596f387ad7323588235066b41e06c6cef446aa0c37f191bb",
    (3, 3, 0, (1, 2, 3)):
        "f5b0ec082c473cc19a5683b90f2cc145f6b093249c838dcc37cee62280ca9816",
    (4, 0, 0, ()):
        "cc21ee210d9cfe65e61be9cb1ca8bbe97b43d4ea2e507e81b40ffd4a74e143ce",
    (4, 1, 0, (1,)):
        "de83bb0ff2eab156c09f9b1c7b24ee1e76e4feaf669a979368b47fef4be027a2",
    (4, 2, 0, (1, 2)):
        "8f5688adda43e97cee4dbaf2cf78cc8aa6a43048d52b7b911bf5cf1092cef459",
    (4, 3, 0, (1, 2, 3)):
        "07f1f27202a638835160534eb20a7d7084725ec164a81f65fd59fc0455be6c2d",
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


def _recorded_run(run, config):
    """``run`` on the golden rows under ``config``: the SHA-256 of every
    frame's wire bytes, keyed as ``WIRE_SHA256``, and the run's report."""
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
        report = run(datasets, config)
    finally:
        transport_module.encode_frame = encode
    return hashes, report


def _wire_hashes(kind):
    """SHA-256 of every frame's wire bytes in the golden run, a k=3
    encrypted CV over transport ``kind``, keyed as ``WIRE_SHA256``."""
    return _recorded_run(cross_validate_encrypted, RunConfig(
        k=3, mode="ridge", folds=2, seed=5, transport=kind))[0]


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_wire_bytes_match_golden(kind):
    block_size = RunConfig().block_size
    assert any(n % block_size for n in GOLDEN_ROWS)
    if _arithmetic_fingerprint() != FINGERPRINT:
        pytest.skip("this numpy/BLAS rounds differently from the one that "
                    "recorded the golden hashes")
    assert _wire_hashes(kind) == WIRE_SHA256


#: SHA-256 over the sorted SHA-256 of every frame's wire bytes and the
#: decrypted estimate's bytes, in a k=3 linear run with an LDP offset on
#: the golden rows, recorded with ``WIRE_SHA256``'s arithmetic.
OFFSET_RUN_SHA256 = (
    "1667c47ff89f15687c30a3ca3b43d75358d69c0eb37ebca6b388dba0a190c876")


def _offset_run_sha256(kind):
    hashes, report = _recorded_run(run_protocol, RunConfig(
        k=3, delta=0.5, seed=5, transport=kind))
    assert report.verify.accepted and len(hashes) == 9 + 4
    digest = hashlib.sha256("".join(sorted(hashes.values())).encode())
    digest.update(report.estimate.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_offset_run_bytes_match_golden(kind):
    """An LDP offset run's frames and decrypted estimate are pinned bit
    for bit, the same over the bus and over TCP."""
    if _arithmetic_fingerprint() != FINGERPRINT:
        pytest.skip("this numpy/BLAS rounds differently from the one that "
                    "recorded the golden hashes")
    assert _offset_run_sha256(kind) == OFFSET_RUN_SHA256
