"""Length-prefixed binary framing and the two transports that carry it.

Frame layout (all integers little-endian):

    u32  length of everything after this prefix
    u16  protocol version
    u8   message type
    u8   origin (0 = coordinator/cloud, 1..K = agencies)
    u16  round counter
    u8   number of applied-agency ids
    u8[] applied-agency ids
    u8   number of matrix sections
    then per matrix:  u32 rows, u32 cols, rows*cols f64 (row-major)

The same bytes travel over both transports, so a run is reproducible
bit-for-bit regardless of which one carries it.

A transport carries only the channels it is built with: the directed
(src, dst) pairs a run sends on (``runner.channels``), each with one
mailbox and, over TCP, one connection. A send on any other pair fails at
once with "no channel".

A frame travels as two buffers: the header, which is everything up to
and including the matrix count, and the payload, which is the matrix
sections packed into one fresh buffer (``payload_buffer``). No frame is
large: a shard frame carries its fold factors, tens of KB. The bus
queues both buffers, and TCP sends both with one ``sendmsg``. Decoding
returns views into the received payload, with no copy.
"""

import contextlib
import queue
import selectors
import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import TransportFailure

PROTOCOL_VERSION = 1

# Message types.
MSG_SHARD = 1
MSG_GRAM_RELEASE = 2
MSG_ESTIMATE = 3
MSG_RESIDUAL_GRAM = 4

_LEN = struct.Struct("<I")
_HEADER = struct.Struct("<HBBH")
_COUNT = struct.Struct("<B")
_MATRIX = struct.Struct("<II")

#: Header bytes up to and including the applied-id count.
_FIXED = _LEN.size + _HEADER.size + _COUNT.size

#: The origin field is a single byte and 0 is the coordinator.
MAX_PARTICIPANTS = 255

#: What ``abort`` puts in every mailbox, after the frames already there.
_ABORTED = object()


@dataclass(frozen=True)
class Frame:
    """One protocol message: typed header plus a tuple of f64 matrices."""

    msg_type: int
    origin: int
    round: int
    applied: tuple
    matrices: tuple


class EncodedFrame:
    """A frame's wire bytes as its header (length prefix included) and its
    payload; ``len`` is the wire length and ``bytes`` the wire bytes."""

    __slots__ = ("header", "payload")

    def __init__(self, header, payload):
        self.header = header
        self.payload = payload

    def __len__(self):
        return len(self.header) + self.payload.nbytes

    def __bytes__(self):
        return bytes(self.header) + self.payload.tobytes()


def payload_buffer(shapes):
    """A fresh payload for matrices of the given (rows, cols) shapes, with
    their dimensions written and their values uninitialised, and the
    matrices that view it."""
    sizes = [_MATRIX.size + 8 * rows * cols for rows, cols in shapes]
    payload = np.empty(sum(sizes), dtype=np.uint8)
    off = 0
    for (rows, cols), size in zip(shapes, sizes):
        _MATRIX.pack_into(payload, off, rows, cols)
        off += size
    return payload, _matrix_views(payload)


def _matrix_views(payload):
    """Every matrix section of a payload, as views into it."""
    matrices, off = [], 0
    while off < payload.nbytes:
        rows, cols = _MATRIX.unpack_from(payload, off)
        off += _MATRIX.size
        count = rows * cols
        if payload.nbytes - off < 8 * count:
            raise TransportFailure("truncated matrix payload")
        matrices.append(np.frombuffer(payload, "<f8", count, off)
                        .reshape(rows, cols))
        off += 8 * count
    return tuple(matrices)


def encode_frame(frame):
    """A frame's wire bytes as an ``EncodedFrame``: a fresh header and its
    matrices copied into one fresh payload."""
    matrices = [np.asarray(m, dtype="<f8") for m in frame.matrices]
    for m in matrices:
        if m.ndim != 2:
            raise TransportFailure(
                f"matrix payload must be 2-d, got {m.ndim}-d")
    payload, views = payload_buffer([m.shape for m in matrices])
    for view, m in zip(views, matrices):
        view[...] = m
    header = b"".join([
        _HEADER.pack(PROTOCOL_VERSION, frame.msg_type, frame.origin,
                     frame.round),
        _COUNT.pack(len(frame.applied)),
        bytes(frame.applied),
        _COUNT.pack(len(frame.matrices)),
    ])
    return EncodedFrame(_LEN.pack(len(header) + payload.nbytes) + header,
                        payload)


def decode_frame(data):
    """Parse one frame: an ``EncodedFrame``, or its wire bytes joined.

    The matrices returned are views into the payload, not copies.
    """
    try:
        if not isinstance(data, EncodedFrame):
            view = memoryview(data)
            end = _FIXED + view[_FIXED - 1] + _COUNT.size
            data = EncodedFrame(view[:end], np.frombuffer(view[end:], np.uint8))
        header, payload = memoryview(data.header), data.payload
        n_applied = header[_FIXED - 1]
        if len(header) != _FIXED + n_applied + _COUNT.size:
            raise TransportFailure(
                f"frame header has {len(header)} bytes, expected "
                f"{_FIXED + n_applied + _COUNT.size}"
            )
        (length,) = _LEN.unpack_from(header, 0)
        if length != len(data) - _LEN.size:
            raise TransportFailure(
                f"frame length prefix says {length} bytes, got "
                f"{len(data) - _LEN.size}"
            )
        version, msg_type, origin, round_ = _HEADER.unpack_from(header, _LEN.size)
        if version != PROTOCOL_VERSION:
            raise TransportFailure(
                f"protocol version {version}, expected {PROTOCOL_VERSION}"
            )
        matrices = _matrix_views(payload)
        if len(matrices) != header[-1]:
            raise TransportFailure(
                f"frame header says {header[-1]} matrices, got {len(matrices)}")
    except (struct.error, IndexError) as exc:
        raise TransportFailure(f"malformed frame: {exc}") from exc
    return Frame(msg_type=msg_type, origin=origin, round=round_,
                 applied=tuple(header[_FIXED:-1]), matrices=matrices)


class _Mailboxes:
    """One ``queue.SimpleQueue`` of encoded frames per channel, a directed
    (src, dst) pair the run sends on.

    This is the receive side of both transports: the bus puts frames in
    directly, the TCP mesh's reader thread puts in what arrives on the
    sockets, and ``recv`` takes them out the same way for both.
    """

    def __init__(self, channels):
        self._queues = {(src, dst): queue.SimpleQueue() for src, dst in channels}
        self._error = None
        self._error_lock = threading.Lock()

    def _queue(self, src, dst):
        try:
            return self._queues[(src, dst)]
        except KeyError:
            raise TransportFailure(f"no channel {src} -> {dst}") from None

    def _recv(self, src, dst, timeout):
        mailbox = self._queue(src, dst)
        try:
            data = mailbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportFailure(f"timed out waiting on {src} -> {dst}") from None
        if data is _ABORTED:
            mailbox.put(data)  # for the next recv on this channel
            raise self._error
        return decode_frame(data)

    def abort(self, exc):
        """Fail the run: every ``recv`` now waiting, or waiting later on an
        empty channel, raises ``exc`` at once. Frames queued before the
        abort still come out first, and the first failure sticks."""
        with self._error_lock:
            if self._error is not None:
                return
            self._error = exc
        for mailbox in self._queues.values():
            mailbox.put(_ABORTED)


# ``send`` and ``recv`` are defined on each transport class itself, not
# inherited, so that code which patches one class's methods and later
# restores them leaves the other class untouched.


class BusTransport(_Mailboxes):
    """In-process transport: one FIFO per channel.

    Thread-safe, so a run may drive all participants from one thread or one
    thread each; message content is identical either way.
    """

    def send(self, src, dst, frame):
        self._queue(src, dst).put(encode_frame(frame))

    def recv(self, src, dst, timeout=30.0):
        """Receive the next frame sent from ``src`` to ``dst``."""
        return self._recv(src, dst, timeout)

    def close(self):
        self.abort(TransportFailure("transport closed"))


def _read_frame(conn):
    """Read one whole frame from a blocking socket, as an ``EncodedFrame``:
    the header into a small buffer and the payload into its own.

    Once a frame's first bytes arrive its sender is inside ``_send_all``
    of the whole frame, so reading the rest never waits on anything else.
    """
    head = bytearray(_FIXED)
    _fill(conn, memoryview(head))
    rest = bytearray(head[-1] + _COUNT.size)  # applied ids, matrix count
    _fill(conn, memoryview(rest))
    header = head + rest
    size = _LEN.size + _LEN.unpack_from(header)[0] - len(header)
    if size < 0:
        raise TransportFailure("frame length prefix is shorter than its header")
    payload = np.empty(size, dtype=np.uint8)
    _fill(conn, memoryview(payload))
    return EncodedFrame(header, payload)


def _fill(conn, view):
    while view:
        n = conn.recv_into(view)
        if n == 0:
            raise TransportFailure("peer closed the connection")
        view = view[n:]


def _send_all(conn, buffers):
    """``sendall`` of the buffers as one stream, by ``sendmsg`` with no copy
    joining them, resuming wherever a partial send stopped."""
    views = [memoryview(b).cast("B") for b in buffers]
    while views:
        sent = conn.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent:
            views[0] = views[0][sent:]


class TcpTransport(_Mailboxes):
    """Loopback TCP mesh carrying the same frames as the bus.

    One connection per channel, not per participant pair, keeps each
    channel's frames in order; all are set up through one ephemeral
    localhost listener, closed before the constructor returns. One reader
    thread queues whole inbound frames as they arrive, so no sender waits
    on a peer that is itself sending. ``abort`` shuts every connection down.
    """

    def __init__(self, channels):
        super().__init__(channels)
        self._socks = []
        self._out = {}
        self._selector = selectors.DefaultSelector()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        try:
            self._open_mesh()
        except OSError as exc:
            self.close()
            raise TransportFailure(f"could not open loopback mesh: {exc}") from exc
        self._reader.start()

    def _open_mesh(self):
        # One listener serves every channel. Each connection is accepted as
        # soon as it is dialled, so the listener never holds two and the
        # dialer's own address says which channel it is: no hello message
        # is needed. The listener is closed once the last one is accepted.
        with socket.create_server(("127.0.0.1", 0)) as lst:
            lst.settimeout(10)
            for channel in self._queues:
                s = socket.create_connection(lst.getsockname(), timeout=10)
                self._socks.append(s)
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._out[channel] = s
                conn, addr = lst.accept()
                self._socks.append(conn)
                if addr != s.getsockname():
                    raise OSError(f"unexpected connection from {addr}")
                conn.settimeout(10)
                self._selector.register(conn, selectors.EVENT_READ, channel)

    def _pump(self):
        """Reader thread: queue each whole inbound frame until a read fails."""
        try:
            while True:
                for key, _ in self._selector.select():
                    self._queues[key.data].put(_read_frame(key.fileobj))
        except Exception as exc:  # not only OSError: no recv may time out
            failure = TransportFailure(
                f"TCP reader stopped: {type(exc).__name__}: {exc}")
            failure.__cause__ = exc
            self.abort(failure)

    def send(self, src, dst, frame):
        conn = self._out.get((src, dst))
        if conn is None:
            raise TransportFailure(f"no channel {src} -> {dst}")
        wire = encode_frame(frame)
        try:
            _send_all(conn, (wire.header, wire.payload))
        except OSError as exc:
            raise TransportFailure(f"send {src} -> {dst} failed: {exc}") from exc

    def recv(self, src, dst, timeout=30.0):
        """Receive the next frame sent from ``src`` to ``dst``."""
        return self._recv(src, dst, timeout)

    def abort(self, exc):
        """Fail the run, then shut every connection down to end its waits."""
        super().abort(exc)
        for s in self._socks:
            with contextlib.suppress(OSError):  # a socket that never connected
                s.shutdown(socket.SHUT_RDWR)

    def close(self):
        self.abort(TransportFailure("transport closed"))
        if self._reader.is_alive():
            self._reader.join()
        self._selector.close()
        for s in self._socks:
            s.close()


#: Config names of the transports, in the order ``make_transport`` knows them.
TRANSPORTS = ("bus", "tcp")


def make_transport(kind, channels):
    """Build a transport by config name, one of ``TRANSPORTS``, that
    carries exactly ``channels``, the run's (src, dst) pairs."""
    if kind not in TRANSPORTS:
        raise ValueError(f"unknown transport {kind!r}")
    return (BusTransport if kind == "bus" else TcpTransport)(channels)
