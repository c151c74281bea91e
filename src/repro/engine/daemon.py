"""Long-lived worker daemon for the ``socket`` execution backend.

Each daemon is a separate OS process that dials back to the parent's
localhost listener, identifies itself with a HELLO frame, receives its
partition shards once (INSTALL), then serves one ROUND frame per
superstep — all of its partitions' tasks, run in the order given, one
RESULT frame streamed back per task — until SHUTDOWN.  This is the moral
equivalent of a Spark executor: state (the cached partitions) lives with
the worker across supersteps, and only models/gradients cross the wire,
the broadcast model once per round however many tasks read it.  The
channel is ``readonly``: large arrays (that shared model, the cached
partitions) are read-only here, so a task that writes its input raises
instead of corrupting its neighbour's — the ``shm`` arena's rule.

The daemon times each task's execution (``compute_seconds``) and ships
the timing inside the RESULT payload, so the parent can subtract compute
from the measured round trip and attribute the remainder to the
transport.  This file shares :mod:`repro.engine.wire`'s DET001 wall-clock
exemption — measured seconds never feed the simulated clock; they exist
only for the measured-vs-simulated validation report.
"""

from __future__ import annotations

import pickle
import socket
import time
from typing import Any

from . import wire

__all__ = ["daemon_main"]


def _safe_exception(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return wire.RemoteTaskError(
            f"task raised unpicklable {type(exc).__name__}: {exc!r}")


def daemon_main(port: int, worker_id: int,
                host: str = "127.0.0.1") -> None:
    """Entry point of one worker daemon process.

    Protocol (daemon side):

    * connect, send ``HELLO worker_id``;
    * ``INSTALL {index: partition}`` → merge into the local cache, ACK;
    * ``ROUND (fn, [(index, args), ...])`` → for each task in order run
      ``fn(partitions[index], *args)`` and send ``RESULT (result,
      compute_seconds)``; the first task that raises sends ``ERROR exc``
      and ends the round (the parent stops reading there too);
    * ``SHUTDOWN`` → reply BYE and exit.
    """
    conn = socket.create_connection((host, port),
                                    timeout=wire.DEFAULT_TIMEOUT)
    channel = wire.FrameChannel(conn, readonly=True)
    channel.send(wire.HELLO, worker_id)
    partitions: dict[int, Any] = {}
    try:
        while True:
            kind, payload, _ = channel.recv()
            if kind == wire.INSTALL:
                partitions.update(payload)
                channel.send(wire.ACK, len(partitions))
            elif kind == wire.ROUND:
                fn, tasks = payload
                for index, args in tasks:
                    start = time.perf_counter()
                    try:
                        if index not in partitions:
                            raise RuntimeError(
                                f"partition {index} is not installed on "
                                f"worker daemon {worker_id}")
                        result = fn(partitions[index], *args)
                    except BaseException as exc:  # noqa: BLE001 - shipped
                        channel.send(wire.ERROR, _safe_exception(exc))
                        break
                    compute = time.perf_counter() - start
                    channel.send(wire.RESULT, (result, compute))
            elif kind == wire.SHUTDOWN:
                channel.send(wire.BYE, worker_id)
                return
            else:
                channel.send(wire.ERROR, wire.RemoteTaskError(
                    f"unexpected frame kind {kind} on worker daemon "
                    f"{worker_id}"))
    except (ConnectionError, EOFError, OSError):
        # Parent died or tore the wire down without SHUTDOWN; exit quietly
        # — the backend's close() path reaps us either way.
        return
    finally:
        channel.close()
