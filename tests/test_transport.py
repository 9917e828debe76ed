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
        applied=(3, 1),
        matrix=rng.standard_normal((8, 3)),
    )


def test_message_type_constants():
    assert PROTOCOL_VERSION == 3
    assert (MSG_SHARD, MSG_GRAM_RELEASE, MSG_ESTIMATE, MSG_RESIDUAL_GRAM) == (
        1, 2, 3, 4,
    )


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    frame = _sample_frame(rng)
    out = decode_frame(encode_frame(frame))
    assert out.msg_type == frame.msg_type
    assert out.applied == frame.applied
    assert out.matrix.dtype == np.float64
    assert np.array_equal(out.matrix, frame.matrix)  # bit-exact


def test_roundtrip_preserves_empty_and_single_cases():
    frame = Frame(MSG_ESTIMATE, (), np.zeros((1, 1)))
    out = decode_frame(encode_frame(frame))
    assert out.applied == ()
    assert out.matrix.shape == (1, 1)


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


def _wire_bytes(frame, matrices=None):
    """The frame's wire bytes built field by field, as the module
    docstring lays them out, with one matrix section per entry of
    ``matrices`` (default: the frame's one matrix) and the length prefix
    fixed up."""
    body = struct.pack(f"<HBB{len(frame.applied)}B", PROTOCOL_VERSION,
                       frame.msg_type, len(frame.applied), *frame.applied)
    for m in (frame.matrix,) if matrices is None else matrices:
        body += struct.pack("<II", *m.shape) + m.astype("<f8").tobytes()
    return struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("count", [0, 2, 3])
def test_decode_refuses_a_frame_without_exactly_one_matrix(count):
    frame = _sample_frame(np.random.default_rng(13))
    with pytest.raises(TransportFailure):
        decode_frame(_wire_bytes(frame, [frame.matrix] * count))


def test_decode_refuses_a_short_payload_with_a_fixed_up_prefix():
    data = bytearray(encode_frame(_sample_frame(np.random.default_rng(14))))
    del data[-8:]
    struct.pack_into("<I", data, 0, len(data) - 4)
    with pytest.raises(TransportFailure,
                       match="8x3 matrix takes 192 bytes, 184 follow"):
        decode_frame(bytes(data))


def test_decode_refuses_a_version_1_frame():
    """A frame in the first layout, whose header held an origin byte, a u16
    round and a u8 matrix count, is refused by its version."""
    frame = _sample_frame(np.random.default_rng(15))
    body = struct.pack("<HBBHB2sB", 1, frame.msg_type, 3, 2, 2,
                       bytes(frame.applied), 1)
    body += struct.pack("<II", 8, 3) + frame.matrix.astype("<f8").tobytes()
    with pytest.raises(TransportFailure, match="protocol version 1, expected 3"):
        decode_frame(struct.pack("<I", len(body)) + body)


def test_bus_fifo_per_channel():
    bus = BusTransport([(1, 2)])
    rng = np.random.default_rng(4)
    sent = [Frame(MSG_ESTIMATE, (), rng.standard_normal((2, 2)))
            for _ in range(5)]
    for f in sent:
        bus.send(1, 2, f)
    for f in sent:
        assert np.array_equal(bus.recv(1, 2).matrix, f.matrix)


def test_bus_timeout():
    bus = BusTransport([(0, 1)])
    with pytest.raises(TransportFailure):
        bus.recv(0, 1, timeout=0.05)


def test_bus_rejects_unknown_channel():
    bus = BusTransport([(0, 1)])
    frame = Frame(MSG_ESTIMATE, (), np.zeros((1, 1)))
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
                f = Frame(MSG_GRAM_RELEASE, (src, dst),
                          rng.standard_normal((3, 3)))
                frames[(src, dst)] = f
                tcp.send(src, dst, f)
        for (src, dst), f in frames.items():
            got = tcp.recv(src, dst)
            assert got.applied == (src, dst)
            assert np.array_equal(got.matrix, f.matrix)
    finally:
        tcp.close()


def test_tcp_concurrent_large_frames():
    # frames bigger than a socket buffer must still pass when both sides
    # run concurrently, as they do in the shard phase
    tcp = TcpTransport([(1, 2)])
    try:
        big = np.random.default_rng(6).standard_normal((1400, 40))
        frame = Frame(MSG_SHARD, (1,), big)
        result = {}

        def receiver():
            result["frame"] = tcp.recv(1, 2, timeout=10.0)

        thread = threading.Thread(target=receiver)
        thread.start()
        tcp.send(1, 2, frame)
        thread.join(timeout=10.0)
        assert np.array_equal(result["frame"].matrix, big)
    finally:
        tcp.close()


def test_tcp_crossing_large_frames():
    # both peers send 8 MB, more than the socket buffers hold, before
    # either one reads
    tcp = TcpTransport([(1, 2), (2, 1)])
    try:
        rng = np.random.default_rng(8)
        frames = {
            (1, 2): Frame(MSG_SHARD, (1,), rng.standard_normal((1024, 1024))),
            (2, 1): Frame(MSG_SHARD, (2,), rng.standard_normal((1024, 1024))),
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
            assert np.array_equal(got.matrix, f.matrix)
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
    frame = Frame(MSG_ESTIMATE, (), np.ones((1, 1)))
    bus.send(0, 1, frame)
    bus.abort(ValueError("agency failed"))
    assert bus.recv(0, 1).matrix[0, 0] == 1.0
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
    """The wire header of a shard frame with no applied ids, up to its
    matrix section, its length prefix saying ``length_after_prefix``."""
    return struct.pack("<IHBB", length_after_prefix, PROTOCOL_VERSION,
                       MSG_SHARD, 0)


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
            tcp.send(0, 1, Frame(MSG_SHARD, (), matrix))
        assert time.perf_counter() - t0 < 2.0
    finally:
        tcp.close()


def test_send_after_an_abort_names_its_cause_first():
    """A send on a shut-down socket names the channel whose bad frame
    aborted the run before its own broken pipe."""
    tcp = TcpTransport([(0, 1), (1, 0)])
    try:
        tcp._out[(0, 1)].sendall(_header(0))  # kills the reader on 0 -> 1
        with pytest.raises(TransportFailure):
            tcp.recv(0, 1, timeout=5.0)
        tcp._reader.join(timeout=5.0)  # every socket is shut down
        with pytest.raises(TransportFailure) as caught:
            tcp.send(1, 0, Frame(MSG_SHARD, (), np.zeros((2, 2))))
        assert str(caught.value).startswith("0 -> 1: ")
        assert "send 1 -> 0 failed" in str(caught.value)
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
        frame = Frame(MSG_ESTIMATE, (), np.zeros((1, 1)))
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
        assert np.array_equal(a.matrix, b.matrix)
    finally:
        tcp.close()


def test_make_transport_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon", [(0, 1)])


def test_decoded_matrices_are_writeable_views_of_the_payload():
    # a received frame's matrix views the wire buffer it arrived in, no copy
    wire = encode_frame(_sample_frame(np.random.default_rng(10)))
    m = decode_frame(wire).matrix
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
    assert np.array_equal(got.matrix, frame.matrix)


#: Rows per agency in the golden run. At the default block size of 16,
#: origins 1 and 2 end in a tail block, and origin 3 has three whole
#: blocks.
GOLDEN_ROWS = (1541, 40, 48)

#: SHA-256 of the raw numpy results in ``_arithmetic_fingerprint`` on the
#: machine that recorded ``WIRE_SHA256``.
FINGERPRINT = "4c7342d64a6f42aa5c55d58bede8301d9c750237c573339e3d0a0ec0eac65599"

#: SHA-256 of every frame's wire bytes in the golden run, keyed by
#: (type, applied ids), the same over the bus and over TCP. A shard's
#: first applied id is its origin; a ring frame's are those of the agencies
#: before its receiver, so no key repeats.
WIRE_SHA256 = {
    (1, (1,)):
        "5e26c99a1fccc1e66695fed11f05de1a0e8b5a01fea8625b8bff435430865198",
    (1, (1, 2)):
        "22cc1b7d79c42296d48295bf8c4ad58a4741b83542617d342540d5244fbc2eb5",
    (1, (1, 2, 3)):
        "e82098f433e32555dc2889ef01c269da27fd4586c92b91b1e84d609a271ca93f",
    (1, (2,)):
        "29b1bd38fc9ccb34fbe475a3672ba26115bae09a89a740c93d0827490666bb37",
    (1, (2, 3)):
        "34d829d9b5ecf0905b5fdbd834b44cc1eebc4516ce81751ebe31f12e89e1f239",
    (1, (2, 3, 1)):
        "67a88a501647e0c9b00b1e505a5cbc23b7e91d7e48dfc704c9ebe4b335ae0016",
    (1, (3,)):
        "51ca3eea267b129d465caa809a071d4bf641951f50444d29908e0853c87f3515",
    (1, (3, 1)):
        "243a26e84464c47e76f9105256986758abb11833174a8a6b95b893e2286523e0",
    (1, (3, 1, 2)):
        "6cfca4b7b30bbd7fa7f914d5c6263b91d0b393a20ebad89233eadaff677bd3d7",
    (2, ()):
        "49672aa6aed62eaeda09e0f00ec6f55b1c0aac1682f36d1680e904a8868b1e91",
    (2, (1,)):
        "dbbf4087ff8bf926b545468b73de245876c551b06577f6b26bee14876a9a6413",
    (2, (1, 2)):
        "e4e54c732986918ca173e2f498625518e5918cb444543d6771294e43a3f57fe7",
    (2, (1, 2, 3)):
        "2296de5657d54284cc6f7ebec425047465237c1ed483104214d32ea513443f8c",
    (3, ()):
        "55cd70d38dcdf4e95a1e6637d6be84266ff25c92973639f2f60f76aba185d197",
    (3, (1,)):
        "62efa6e7c09c91040dd29e01fffc386079cbea4130ad3dc5d5ef13ae2a95877a",
    (3, (1, 2)):
        "5aa15a41cc1ac422269bdd8598b608b239b82bb0f682222c491a1d875ad5fc11",
    (3, (1, 2, 3)):
        "8cdfaad0b97c1f63c5d990a0a01df4f6a125e81e392335959e45b28aa119f4a0",
    (4, ()):
        "9824bc022f0a29631663cba37aff9e463fb2bed0b5a141e9d269e9bafe4c2827",
    (4, (1,)):
        "a2746e6a8bca56e1f1be80f56e1c99f3d92cdfc7ba7589ec2baf9b533740ebdc",
    (4, (1, 2)):
        "bfe7c0ce0dd8806f7c377d2e03a297ac1e4cedc3a77fef6b679a2f5fb76e21ca",
    (4, (1, 2, 3)):
        "cbe8cb80e4cc64a7ea665e87ee365c3cd6a2b90cfc8bacc872d93fe917e4b089",
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
        *np.linalg.svd(g[:, :6, :6]),
        np.linalg.inv(key[:3, :3]),
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
        key = (frame.msg_type, frame.applied)
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
    "892695fdbef110cf8dd49cda361c37a36908903339e418fd1893d12d516d468e")


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
