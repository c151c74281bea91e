"""Length-prefixed frame protocol for the ``socket`` backend.

One frame, in wire order::

    header   >BII   kind byte, pickle-stream length, out-of-band count n
    lengths  >nQ    byte length of each out-of-band buffer
    stream          pickle protocol 5 of the payload
    buffers         the n out-of-band buffers, raw, back to back

A buffer of at least :data:`LARGE_BUFFER_BYTES` (:func:`stays_in_band`,
the rule ``shm`` uses for its result slots) leaves the stream: the frame
is one ``sendmsg`` gather over header, stream and the arrays' own
memory, nothing is concatenated, and the receiver ``recv_into``s one
preallocated ``bytearray`` per buffer for ``pickle.loads(buffers=...)``.
A model-sized array crosses with no copy besides the kernel's and
arrives private and writable — or read-only on a ``readonly`` channel
(the daemon side, where one round's tasks share what pickle's memo
deduplicated).  Payloads are pickles because every object on this wire
is Python-to-Python (ndarrays, CSR partitions, RNG generators) and
msgpack is not in this environment's toolchain.

This module and :mod:`repro.engine.daemon` are the only places outside
``repro/perf`` allowed to read the wall clock (the determinism linter's
DET001 exemption is scoped to exactly these files): the whole point of
the socket backend is that each request's bytes-on-wire and elapsed wall
seconds are *measured*, so they can be compared against the simulated
:class:`~repro.cluster.network.NetworkModel` pricing.  An
:class:`Exchange` records one response frame and what preceded it;
trainers never see these — the backend aggregates them into a
:func:`summarize` report after the run, keeping the simulated clock
backend-invariant.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["HELLO", "INSTALL", "ROUND", "RESULT", "ERROR", "SHUTDOWN",
           "BYE", "ACK", "LARGE_BUFFER_BYTES", "stays_in_band", "Exchange",
           "WireRecord", "FrameChannel", "RemoteTaskError",
           "WorkerLostError", "summarize"]

#: Frame header: kind byte, pickle-stream length, out-of-band buffer count.
_HEADER = struct.Struct(">BII")

HELLO, INSTALL, ROUND, RESULT, ERROR, SHUTDOWN, BYE, ACK = range(1, 9)

#: A pickled buffer at least this large travels beside the pickle stream
#: (a socket frame's out-of-band section, an ``shm`` result slot); a
#: smaller one is cheaper left in the stream.
LARGE_BUFFER_BYTES = 1 << 16

#: Buffers per ``sendmsg``: the POSIX floor for IOV_MAX.  The first
#: gather always holds header and stream; model-sized buffers fill the
#: socket however few ride one call.
_IOV_MAX = 16

#: Generous ceiling on a single blocking socket operation; a wedged
#: daemon fails loudly instead of hanging the run.
DEFAULT_TIMEOUT = 300.0


def stays_in_band(buffer: pickle.PickleBuffer) -> bool:
    """The one size rule of every protocol-5 ``buffer_callback`` here."""
    return buffer.raw().nbytes < LARGE_BUFFER_BYTES


class RemoteTaskError(RuntimeError):
    """A daemon's task raised and the original could not be re-raised."""


class WorkerLostError(ConnectionError):
    """A worker daemon's connection failed while it owed the parent
    results (the process died or stopped answering)."""


@dataclass(frozen=True)
class Exchange:
    """Measured facts about one response frame: its bytes, the seconds
    since the request went out or the previous response arrived, and the
    request's bytes if this is the first response to it."""

    bytes_out: int
    bytes_in: int
    seconds: float


@dataclass(frozen=True)
class WireRecord:
    """One accounted wire exchange, tagged for per-superstep grouping.

    ``compute_seconds`` is the daemon-side task execution time (reported
    inside the RESULT payload); ``roundtrip_seconds - compute_seconds``
    is therefore the measured communication cost of the exchange —
    serialization, TCP transit, and dispatch overhead.  A round writes
    one record per RESULT frame, the request's bytes and send time on
    the first, so a superstep's records still sum to what crossed.
    """

    label: str
    worker: int
    superstep: int
    bytes_out: int
    bytes_in: int
    roundtrip_seconds: float
    compute_seconds: float = 0.0

    @property
    def comm_seconds(self) -> float:
        return max(0.0, self.roundtrip_seconds - self.compute_seconds)


def encode(obj: Any) -> bytes:
    """``obj`` as one in-band pickle (every buffer copied into it)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode(payload: bytes) -> Any:
    return pickle.loads(payload)


class FrameChannel:
    """One connected socket speaking the frame protocol.

    Not thread-safe: the socket backend serializes access per daemon
    with a lock, which also guarantees strict request-then-stream order
    on each connection (no interleaved frames, no send/recv deadlock).
    ``readonly`` rebuilds received out-of-band arrays as read-only views.
    """

    def __init__(self, sock: socket.socket,
                 timeout: float = DEFAULT_TIMEOUT,
                 readonly: bool = False) -> None:
        sock.settimeout(timeout)
        # Frames are tiny-header-then-payload; don't wait to coalesce.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - transport without TCP opts
            pass
        self._sock = sock
        self._readonly = readonly

    # -- raw framing ---------------------------------------------------
    def send(self, kind: int, obj: Any) -> int:
        """Send one frame; returns total bytes written."""
        large: list[memoryview] = []

        def in_band(buffer: pickle.PickleBuffer) -> bool:
            if stays_in_band(buffer):
                return True
            large.append(buffer.raw())
            return False

        stream = pickle.dumps(obj, protocol=5, buffer_callback=in_band)
        head = struct.pack(f">BII{len(large)}Q", kind, len(stream),
                           len(large), *(raw.nbytes for raw in large))
        pieces = [memoryview(head), memoryview(stream), *large]
        total = sum(piece.nbytes for piece in pieces)
        # One gather-write per attempt, straight from the arrays' memory:
        # a small frame is one segment, a model crosses uncopied.
        while pieces:
            sent = self._sock.sendmsg(pieces[:_IOV_MAX])
            while pieces and sent >= pieces[0].nbytes:
                sent -= pieces.pop(0).nbytes
            if sent:
                pieces[0] = pieces[0][sent:]
        return total

    def _read(self, n: int) -> bytearray:
        """Exactly ``n`` bytes, received in place."""
        buf = bytearray(n)
        view = memoryview(buf)
        while view:
            got = self._sock.recv_into(view)
            if not got:
                raise ConnectionError("peer closed the wire mid-frame")
            view = view[got:]
        return buf

    def recv(self) -> tuple[int, Any, int]:
        """Receive one frame; returns ``(kind, payload, total_bytes)``."""
        kind, length, count = _HEADER.unpack(self._read(_HEADER.size))
        sizes = struct.unpack(f">{count}Q", self._read(8 * count))
        stream = self._read(length)
        buffers = [self._read(size) for size in sizes]
        total = _HEADER.size + 8 * count + length + sum(sizes)
        if self._readonly:
            buffers = [memoryview(b).toreadonly() for b in buffers]
        return kind, pickle.loads(stream, buffers=buffers), total

    # -- measured round trips ------------------------------------------
    def stream(self, kind: int, obj: Any, replies: int,
               ) -> Iterator[tuple[int, Any, Exchange]]:
        """Send a frame, then yield each of ``replies`` response frames
        with its measured :class:`Exchange`.  Stopping early keeps the
        wire in step only where the peer stops at the same frame (an
        ERROR frame ends a round on both sides)."""
        start = time.perf_counter()
        bytes_out = self.send(kind, obj)
        for _ in range(replies):
            reply_kind, reply, bytes_in = self.recv()
            now = time.perf_counter()
            yield reply_kind, reply, Exchange(bytes_out=bytes_out,
                                              bytes_in=bytes_in,
                                              seconds=now - start)
            bytes_out, start = 0, now

    def request(self, kind: int, obj: Any) -> tuple[int, Any, Exchange]:
        """Send a frame, await the one response, measure the round trip."""
        (reply,) = self.stream(kind, obj, 1)
        return reply

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def summarize(records: list[WireRecord]) -> dict[str, Any]:
    """Aggregate wire records into the measured-transport report.

    Returns totals plus a per-superstep breakdown (superstep 0 holds the
    one-time partition installation).  All numbers are *measured*, never
    simulated.
    """
    supersteps: dict[int, dict[str, float]] = {}
    for rec in records:
        row = supersteps.setdefault(rec.superstep, {
            "superstep": rec.superstep, "messages": 0, "bytes_out": 0,
            "bytes_in": 0, "roundtrip_seconds": 0.0,
            "compute_seconds": 0.0, "comm_seconds": 0.0})
        row["messages"] += 1
        row["bytes_out"] += rec.bytes_out
        row["bytes_in"] += rec.bytes_in
        row["roundtrip_seconds"] += rec.roundtrip_seconds
        row["compute_seconds"] += rec.compute_seconds
        row["comm_seconds"] += rec.comm_seconds
    ordered = [supersteps[key] for key in sorted(supersteps)]
    return {
        "messages": len(records),
        "bytes_out": sum(r.bytes_out for r in records),
        "bytes_in": sum(r.bytes_in for r in records),
        "roundtrip_seconds": sum(r.roundtrip_seconds for r in records),
        "compute_seconds": sum(r.compute_seconds for r in records),
        "comm_seconds": sum(r.comm_seconds for r in records),
        "install_bytes": sum(r.bytes_out + r.bytes_in for r in records
                             if r.label == "install"),
        "per_superstep": ordered,
    }


@dataclass
class WireLog:
    """Mutable accumulator the socket backend appends records to."""

    records: list[WireRecord] = field(default_factory=list)

    def add(self, record: WireRecord) -> None:
        self.records.append(record)

    def summary(self) -> dict[str, Any] | None:
        if not self.records:
            return None
        return summarize(self.records)
