"""Length-prefixed binary framing and the two transports that carry it.

Frame layout (all integers little-endian):

    u32  length of everything after this prefix
    u16  protocol version
    u8   message type
    u8   number of applied-agency ids
    u8[] applied-agency ids
    u32  rows, u32 cols of the one matrix
    f64  rows*cols entries (row-major), the rest of the frame

The same bytes travel over both transports, so a run is reproducible
bit-for-bit regardless of which one carries it. A header holds only what
its channel does not say: the sender is the channel's source, so no
field repeats it.

A transport carries only the channels it is built with: the directed
(src, dst) pairs a run sends on (``runner.channels``), each with one
mailbox and, over TCP, one connection. A send on any other pair fails at
once with "no channel".

A frame travels as one buffer, ``encode_frame``'s, whose length is its
wire length. No frame is large: a shard frame carries its fold factors,
tens of KB. The bus queues the buffer and TCP sends it with ``sendall``.
Decoding returns a view into the received buffer, with no copy.
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

PROTOCOL_VERSION = 3

# Message types.
MSG_SHARD = 1
MSG_GRAM_RELEASE = 2
MSG_ESTIMATE = 3
MSG_RESIDUAL_GRAM = 4

_LEN = struct.Struct("<I")
_HEADER = struct.Struct("<HBB")
_MATRIX = struct.Struct("<II")

#: Header bytes up to and including the applied-id count.
_FIXED = _LEN.size + _HEADER.size

#: An applied id is a single byte, and 0 is the cloud, which applies none.
MAX_PARTICIPANTS = 255

#: What ``abort`` puts in every mailbox, after the frames already there.
_ABORTED = object()


@dataclass(frozen=True)
class Frame:
    """One protocol message: its type, the ids of the agencies applied so
    far and one f64 matrix."""

    msg_type: int
    applied: tuple
    matrix: np.ndarray


def encode_frame(frame):
    """A frame's wire bytes, as one fresh ``np.uint8`` buffer."""
    m = np.asarray(frame.matrix, dtype="<f8")
    if m.ndim != 2:
        raise TransportFailure(f"matrix payload must be 2-d, got {m.ndim}-d")
    head = _FIXED + len(frame.applied)
    wire = np.empty(head + _MATRIX.size + m.nbytes, dtype=np.uint8)
    _LEN.pack_into(wire, 0, wire.nbytes - _LEN.size)
    _HEADER.pack_into(wire, _LEN.size, PROTOCOL_VERSION, frame.msg_type,
                      len(frame.applied))
    struct.pack_into(f"{len(frame.applied)}B", wire, _FIXED, *frame.applied)
    _MATRIX.pack_into(wire, head, *m.shape)
    wire[head + _MATRIX.size:].view("<f8").reshape(m.shape)[...] = m
    return wire


def decode_frame(data):
    """Parse one frame from its wire bytes, any buffer.

    The matrix returned is a view into ``data``, not a copy. Exactly
    8·rows·cols bytes must follow its dimensions, which refuses a frame
    with no matrix and one with more than one.
    """
    wire = np.frombuffer(data, np.uint8)
    try:
        (length,) = _LEN.unpack_from(wire, 0)
        if length != wire.nbytes - _LEN.size:
            raise TransportFailure(
                f"frame length prefix says {length} bytes, got "
                f"{wire.nbytes - _LEN.size}"
            )
        version, msg_type, n = _HEADER.unpack_from(wire, _LEN.size)
        if version != PROTOCOL_VERSION:
            raise TransportFailure(
                f"protocol version {version}, expected {PROTOCOL_VERSION}"
            )
        off = _FIXED + n
        applied = tuple(wire[_FIXED:off].tolist())
        rows, cols = _MATRIX.unpack_from(wire, off)
        off += _MATRIX.size
    except struct.error as exc:
        raise TransportFailure(f"malformed frame: {exc}") from exc
    if wire.nbytes - off != 8 * rows * cols:
        raise TransportFailure(
            f"a frame's {rows}x{cols} matrix takes {8 * rows * cols} bytes, "
            f"{wire.nbytes - off} follow its dimensions")
    matrix = np.frombuffer(wire, "<f8", rows * cols, off).reshape(rows, cols)
    return Frame(msg_type, applied, matrix)


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
        try:
            return decode_frame(data)
        except TransportFailure as exc:
            raise TransportFailure(f"{src} -> {dst}: {exc}") from None

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

    Thread-safe, although a run drives every participant from the
    caller's thread; a frame's bytes do not depend on the thread that
    sends it.
    """

    def send(self, src, dst, frame):
        self._queue(src, dst).put(encode_frame(frame))

    def recv(self, src, dst, timeout=30.0):
        """Receive the next frame sent from ``src`` to ``dst``."""
        return self._recv(src, dst, timeout)

    def close(self):
        self.abort(TransportFailure("transport closed"))


def _read_frame(conn):
    """Read one whole frame from a blocking socket: the length prefix, then
    the rest into one ``np.uint8`` buffer that also holds the prefix.

    Once a frame's first bytes arrive its sender is inside ``sendall`` of
    the whole frame, so reading the rest never waits on anything else.
    """
    prefix = bytearray(_LEN.size)
    _fill(conn, memoryview(prefix))
    (length,) = _LEN.unpack(prefix)
    if length < _FIXED - _LEN.size + _MATRIX.size:
        raise TransportFailure("frame length prefix is shorter than its header")
    wire = np.empty(_LEN.size + length, dtype=np.uint8)
    wire[:_LEN.size] = prefix
    _fill(conn, memoryview(wire)[_LEN.size:])
    return wire


def _fill(conn, view):
    while view:
        n = conn.recv_into(view)
        if n == 0:
            raise TransportFailure("peer closed the connection")
        view = view[n:]


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
        """Reader thread: queue each whole inbound frame until a read fails;
        the failure names the channel it was reading, if any."""
        where = ""
        try:
            while True:
                where = ""
                for key, _ in self._selector.select():
                    where = "%d -> %d: " % key.data
                    self._queues[key.data].put(_read_frame(key.fileobj))
        except Exception as exc:  # not only OSError: no recv may time out
            failure = TransportFailure(
                f"{where}TCP reader stopped: {type(exc).__name__}: {exc}")
            failure.__cause__ = exc
            self.abort(failure)

    def send(self, src, dst, frame):
        conn = self._out.get((src, dst))
        if conn is None:
            raise TransportFailure(f"no channel {src} -> {dst}")
        wire = encode_frame(frame)
        try:
            conn.sendall(wire)
        except OSError as exc:
            # after an abort the sockets are shut down: name the cause first
            cause = "" if self._error is None else f"{self._error}; "
            raise TransportFailure(
                f"{cause}send {src} -> {dst} failed: {exc}") from exc

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
