"""Execution backends: fan per-worker local solves across real cores.

Every superstep of every system in the study contains an embarrassingly
parallel region — ``k`` independent local solves (batch gradients,
``mgd_epoch``, ``sgd_epoch``, full-pass gradients), one per cached
partition.  An :class:`ExecutionBackend` owns that region:

* ``serial`` — in-process loop (the reference behaviour, zero overhead);
* ``shm`` — a process pool over shared-memory partitions, broadcast
  arena and result slots (:class:`ShmBackend`);
* ``socket`` — worker daemons behind a measured localhost wire, which
  ``repro perf`` compares with the simulated network
  (:class:`SocketBackend`).

Workers never share an address space, as Spark executors do not (a
GIL-bound thread pool trailed ``serial`` on every measured shape;
``docs/performance.md``).

Bit-identity is structural, not statistical: tasks are submitted and
collected in partition-index order, every task receives (and returns) its
worker's private RNG so streams advance exactly as in the serial loop,
and all cross-worker *combining* stays in the parent in the serial code's
float-addition order.  ``tests/test_perf_backend.py`` asserts every
system's ``TrainResult.history`` is bit-identical across all backends,
and the golden convergence test pins the serial numbers.

Task functions must be module-level (pickled by reference); see
:mod:`repro.core.worker`.  Backends are context managers — ``with
make_backend(...) as backend:`` guarantees pool teardown on any exit
path — and every lifecycle violation raises :class:`RuntimeError`
explicitly (never a bare ``assert``, which vanishes under ``python -O``).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import socket as socketlib
import threading
from collections import Counter, deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..perf.profiler import NullProfiler, PhaseProfiler
from . import shm as shm_store
from . import wire
from .daemon import daemon_main

__all__ = ["BACKENDS", "ExecutionBackend", "SerialBackend",
           "ShmBackend", "SocketBackend", "make_backend"]

#: One dispatch: ``(partition index, task args)`` per task, in order.
Calls = Sequence[tuple[int, tuple]]

#: How often a socket install looks at the daemons it is waiting for.
_ACCEPT_SLICE_SECONDS = 0.2


class ExecutionBackend:
    """Runs per-worker task functions against installed partitions.

    Lifecycle: ``install_partitions`` once per ``fit`` (before the first
    step), then any number of ``map_partitions`` / ``run_one`` calls, then
    ``close``.  Results always come back in submission (partition-index)
    order, so parent-side combining is order-identical to the serial loop.

    A concrete backend is ``install_partitions`` (which builds ``_pool``),
    ``_submit`` and ``close``, plus ``_stage`` where a dispatch needs
    parent-side preparation and ``_collect`` where a future holds
    something other than the task's result; the dispatch loop, pool
    sizing and start-method resolution live here, once.

    Backends are context managers: ``__exit__`` closes the pool, so any
    exit path — including a fault injected mid-``fit`` — reaps worker
    processes and threads.
    """

    name = "abstract"

    #: Test hook: force a start method for every backend that starts
    #: processes (the spawn suite runs the bit-identity battery with it).
    default_start_method: str | None = None

    #: How many tasks of one dispatch may be submitted and not yet
    #: collected; ``None`` submits them all up front.
    _window: int | None = None

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        #: Wall-clock hook; trainers install theirs so the fanned-out
        #: local-solve region shows up as the ``local_solve`` phase.
        self.profiler: PhaseProfiler = NullProfiler()
        self._max_workers = max_workers
        self._start_method = start_method
        self._pool: Executor | None = None

    def _pool_size(self, num_partitions: int) -> int:
        limit = self._max_workers
        if limit is None:
            limit = os.cpu_count() or 1
        return max(1, min(limit, num_partitions))

    def _mp_context(self) -> Any:
        """``fork`` when available (zero-copy inheritance), else the
        platform default; an explicit request always wins."""
        method = self._start_method or self.default_start_method
        if method is None and "fork" in mp.get_all_start_methods():
            method = "fork"
        return mp.get_context(method)

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        raise NotImplementedError

    def _stage(self, calls: Calls) -> Calls:
        """Parent-side preparation of one dispatch; runs outside the
        timed ``local_solve`` phase."""
        return calls

    def _submit(self, pool: Executor, fn: Callable[..., Any], index: int,
                args: tuple) -> Future:
        raise NotImplementedError

    def _collect(self, returned: Any) -> Any:
        """Turn what a task's future returned into the task's result."""
        return returned

    def _dispatch(self, fn: Callable[..., Any], calls: Calls) -> list[Any]:
        """Submit in the given order, collect in the same order."""
        pool = self._pool
        if pool is None:
            raise RuntimeError(
                f"{type(self).__name__}: install_partitions() was not "
                "called before submitting work")
        calls = self._stage(calls)
        with self.profiler.phase("local_solve"):
            futures: deque[Future] = deque()
            results: list[Any] = []
            for index, args in calls:
                if len(futures) == self._window:
                    results.append(self._collect(futures.popleft().result()))
                futures.append(self._submit(pool, fn, index, args))
            results.extend(self._collect(f.result()) for f in futures)
            return results

    def map_partitions(self, fn: Callable[..., Any],
                       args_by_worker: Sequence[tuple]) -> list[Any]:
        """Run ``fn(partitions[i], *args_by_worker[i])`` for every ``i``."""
        return self._dispatch(fn, list(enumerate(args_by_worker)))

    def run_one(self, fn: Callable[..., Any], worker: int,
                args: tuple) -> Any:
        """Run ``fn(partitions[worker], *args)`` (event-driven trainers)."""
        return self._dispatch(fn, [(worker, args)])[0]

    def wire_summary(self) -> dict[str, Any] | None:
        """Measured transport accounting, or ``None`` for backends whose
        communication is not on a real wire."""
        return None

    def close(self) -> None:
        """Release pool resources (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution — the reference the parallel backends match.

    Keeps a direct loop (no pool, no futures): it is what the others are
    compared to and the per-task hot path of the serial workloads."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__()
        self._partitions: Sequence[Any] = ()

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        self._partitions = list(partitions)

    def _dispatch(self, fn: Callable[..., Any], calls: Calls) -> list[Any]:
        with self.profiler.phase("local_solve"):
            return [fn(self._partitions[index], *args)
                    for index, args in calls]


def _is_model_vector(value: Any, capacity: int) -> bool:
    """Does ``value`` look like a broadcast model vector that fits the
    shared arena?  (1-d float64 — the shape of every model in the study.)"""
    return (isinstance(value, np.ndarray) and value.ndim == 1
            and value.dtype == np.float64 and value.size <= capacity)


class ShmBackend(ExecutionBackend):
    """Process pool over a :mod:`repro.engine.shm` store: partitions as
    read-only zero-copy views, the broadcast model and the model-sized
    results through its arena.

    Each dispatch detects the broadcast model vector (the same ndarray
    object at the same position in every task's args — for ``run_one``'s
    single task, the first vector that fits), writes it into the arena
    **once**, and ships a :class:`~repro.engine.shm.BroadcastRef` marker
    per task; ``_collect`` rebuilds each result from a private copy of
    its slot.  Slots are handed out round-robin, two per lane, and
    ``_window`` keeps that many tasks outstanding at most — a slot's next
    task is submitted only after its previous result has been copied out.

    Safe because the study's tasks never mutate the broadcast model or
    their partition (the ``--sanitize`` battery freezes both and all
    nine systems pass bit-exactly); the shared views are read-only, so a
    violating task raises instead of corrupting its neighbours.  The
    arena is reused by the next dispatch only after every task of this
    one has been collected.
    """

    name = "shm"

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        super().__init__(max_workers, start_method)
        self._store_id = shm_store.new_store_id()
        self._store: shm_store.ShmStore | None = None
        self._slots: Iterator[int] = iter(())

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        self.close()
        parts = list(partitions)
        workers = self._pool_size(len(parts))
        # Two result slots per lane keep every worker fed while the
        # parent copies out; the dispatch window makes reusing them safe.
        self._window = min(len(parts), 2 * workers)
        self._slots = itertools.cycle(range(self._window))
        self._store = shm_store.build_store(parts, self._window)
        ctx = self._mp_context()
        if ctx.get_start_method() == "fork":
            # Install BEFORE the pool forks: children inherit a handful
            # of *views* over MAP_SHARED segments — the partition bytes
            # are never pickled, not even copied-on-write, and parent
            # arena writes are visible to workers.
            shm_store.install_worker_state(self._store_id,
                                           self._store.worker_state())
            attach: dict[str, Any] = {}
        else:
            attach = {"initializer": shm_store.attach_worker_state,
                      "initargs": (self._store_id, self._store.layout)}
        self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                         **attach)

    def _stage(self, calls: Calls) -> Calls:
        store = self._store
        if store is None or not calls:
            return calls
        store.fallback_logged = False
        for pos, value in enumerate(calls[0][1]):
            if (_is_model_vector(value, store.layout.bcast_capacity)
                    and all(args[pos] is value for _, args in calls[1:])):
                ref = store.write_broadcast(value)
                return [(index, args[:pos] + (ref,) + args[pos + 1:])
                        for index, args in calls]
        return calls

    def _submit(self, pool: Executor, fn: Callable[..., Any], index: int,
                args: tuple) -> Future:
        return pool.submit(shm_store.run_on_shm_partition, self._store_id,
                           fn, index, next(self._slots), args)

    def _collect(self, returned: Any) -> Any:
        if self._store is None:
            raise RuntimeError("ShmBackend: closed during a dispatch")
        return self._store.load_result(returned)

    def close(self) -> None:
        super().close()
        shm_store.discard_worker_state(self._store_id)
        if self._store is not None:
            self._store.close()
            self._store = None


class SocketBackend(ExecutionBackend):
    """Long-lived worker daemons over localhost TCP — a measured wire.

    Executors are separate OS processes (:func:`repro.engine.daemon.
    daemon_main`) that dial back to the parent, cache their partition
    shards once, and serve ROUND frames until shutdown.  Partition
    ``index`` is pinned to daemon ``index % n_daemons`` — the Spark
    executor/cache locality model.  A dispatch is one round per daemon:
    ``_stage`` counts each daemon's tasks, ``_submit`` gathers them and
    hands the complete round to an IO thread, which sends ONE frame —
    whatever the tasks share (``w``, objective, config) is pickled once —
    and fulfils one future per RESULT frame as the daemon streams them
    back.  Each RESULT frame is one :class:`repro.engine.wire.WireRecord`
    (the round's request on the first); :meth:`wire_summary` aggregates
    them for the measured-vs-simulated network validation.

    Concurrency: one lock per daemon enforces strict request-then-stream
    order on each connection (no interleaved frames, no send/recv
    deadlock) while a small IO thread pool (``_pool``) lets distinct
    daemons compute in parallel.  Futures are collected in
    partition-index order, preserving the bit-identity contract.

    A task that raises ends its daemon's round (its future and the rest
    of that round fail with the task's exception; the connection stays
    usable); a daemon that dies fails them with
    :class:`~repro.engine.wire.WorkerLostError` naming the worker.
    """

    name = "socket"

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        super().__init__(max_workers, start_method)
        self._daemons: list[Any] = []
        self._channels: dict[int, wire.FrameChannel] = {}
        self._locks: dict[int, threading.Lock] = {}
        self._assignment: dict[int, int] = {}
        self._log = wire.WireLog()
        self._round = 0
        #: Per daemon, for the dispatch in flight: how many tasks it is
        #: owed, and the (tasks, futures) ``_submit`` has gathered so far.
        self._owed: Counter[int] = Counter()
        self._rounds: dict[int, tuple[list[tuple[int, tuple]],
                                      list[Future]]] = {}

    def _accept_daemon(self, listener: socketlib.socket) -> socketlib.socket:
        """Accept one daemon connection in short slices; between slices,
        a started daemon that is no longer alive fails the install at
        once instead of after the whole wire timeout."""
        listener.settimeout(_ACCEPT_SLICE_SECONDS)
        slices = max(1, round(wire.DEFAULT_TIMEOUT / _ACCEPT_SLICE_SECONDS))
        for _ in range(slices):
            try:
                return listener.accept()[0]
            except TimeoutError:
                pass
            for worker_id, proc in enumerate(self._daemons):
                if not proc.is_alive():
                    raise RuntimeError(
                        f"worker daemon {worker_id} exited with code "
                        f"{proc.exitcode} before it connected")
        raise TimeoutError("timed out waiting for worker daemons to connect")

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        self.close()
        # Fresh accounting per run; close() keeps the old log readable so
        # the session can harvest it after teardown.
        self._log = wire.WireLog()
        parts = list(partitions)
        n_daemons = self._pool_size(len(parts))
        ctx = self._mp_context()
        listener = socketlib.create_server(("127.0.0.1", 0))
        try:
            port = listener.getsockname()[1]
            for worker_id in range(n_daemons):
                proc = ctx.Process(target=daemon_main,
                                   args=(port, worker_id), daemon=True,
                                   name=f"repro-daemon-{worker_id}")
                proc.start()
                self._daemons.append(proc)
            for _ in range(n_daemons):
                channel = wire.FrameChannel(self._accept_daemon(listener))
                kind, worker_id, _ = channel.recv()
                if kind != wire.HELLO:
                    raise RuntimeError(
                        f"worker daemon sent frame kind {kind} before "
                        "HELLO")
                self._channels[worker_id] = channel
                self._locks[worker_id] = threading.Lock()
        except BaseException:
            listener.close()
            self.close()
            raise
        listener.close()
        # Ship each daemon its partition shards exactly once.
        shards: dict[int, dict[int, Any]] = {w: {} for w in self._channels}
        for index, part in enumerate(parts):
            worker_id = index % n_daemons
            self._assignment[index] = worker_id
            shards[worker_id][index] = part
        for worker_id, shard in shards.items():
            kind, _ack, exchange = self._channels[worker_id].request(
                wire.INSTALL, shard)
            if kind != wire.ACK:
                raise RuntimeError(
                    f"worker daemon {worker_id} failed to acknowledge "
                    "partition installation")
            self._log.add(wire.WireRecord(
                label="install", worker=worker_id, superstep=0,
                bytes_out=exchange.bytes_out, bytes_in=exchange.bytes_in,
                roundtrip_seconds=exchange.seconds))
        self._pool = ThreadPoolExecutor(max_workers=n_daemons,
                                        thread_name_prefix="repro-io")

    def _stage(self, calls: Calls) -> Calls:
        # Every dispatch is one superstep of the measured wire log, and
        # one round per daemon.
        self._round += 1
        self._owed = Counter(self._assignment[index] for index, _ in calls)
        self._rounds = {}
        return calls

    def _submit(self, io: Executor, fn: Callable[..., Any], index: int,
                args: tuple) -> Future:
        worker_id = self._assignment[index]
        tasks, futures = self._rounds.setdefault(worker_id, ([], []))
        tasks.append((index, tuple(args)))
        futures.append(Future())
        if len(tasks) == self._owed[worker_id]:
            # The daemon's round is complete: off it goes, out of our
            # hands (results must not outlive their dispatch here).
            # ``io`` threads only drive the wire; ``fn`` is what gets
            # pickled.
            del self._rounds[worker_id]
            io.submit(self._run_round, worker_id, fn, tasks, futures,
                      self._round)
        return futures[-1]

    def _run_round(self, worker_id: int, fn: Callable[..., Any],
                   tasks: list[tuple[int, tuple]], futures: list[Future],
                   superstep: int) -> None:
        """One ROUND frame out, one RESULT frame back per task; each
        future is fulfilled as its frame arrives, so the parent unpickles
        result ``i`` while the daemon computes ``i + 1``.  Whatever ends
        the round early fails every future still waiting on it."""
        waiting = iter(futures)
        failure: BaseException | None = None
        try:
            with self._locks[worker_id]:
                replies = self._channels[worker_id].stream(
                    wire.ROUND, (fn, tasks), len(tasks))
                for kind, payload, exchange in replies:
                    if kind != wire.RESULT:
                        failure = payload if kind == wire.ERROR else \
                            RuntimeError(
                                f"worker daemon {worker_id} replied with "
                                f"frame kind {kind} to a round")
                        break
                    result, compute_in_daemon = payload
                    self._log.add(wire.WireRecord(
                        label="task", worker=worker_id, superstep=superstep,
                        bytes_out=exchange.bytes_out,
                        bytes_in=exchange.bytes_in,
                        roundtrip_seconds=exchange.seconds,
                        compute_seconds=compute_in_daemon))
                    next(waiting).set_result(result)
        except OSError as exc:
            failure = wire.WorkerLostError(
                f"worker daemon {worker_id} (pid "
                f"{self._daemons[worker_id].pid}) was lost mid-round: "
                f"{type(exc).__name__}: {exc}")
        except BaseException as exc:  # noqa: BLE001 - handed to the futures
            failure = exc
        for future in waiting:
            future.set_exception(failure)

    def wire_summary(self) -> dict[str, Any] | None:
        return self._log.summary()

    def close(self) -> None:
        super().close()
        for worker_id, channel in list(self._channels.items()):
            try:
                with self._locks[worker_id]:
                    channel.request(wire.SHUTDOWN, None)
            except Exception:
                pass  # daemon already gone; reaped below
            channel.close()
        self._channels.clear()
        self._locks.clear()
        self._assignment.clear()
        for proc in self._daemons:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - wedged daemon
                proc.terminate()
                proc.join(timeout=10)
        self._daemons.clear()
        self._round = 0


_BACKEND_TYPES: dict[str, type[ExecutionBackend]] = {
    cls.name: cls
    for cls in (SerialBackend, ShmBackend, SocketBackend)}

#: Valid ``TrainerConfig.backend`` / ``--backend`` values, reference first.
BACKENDS = tuple(_BACKEND_TYPES)


def make_backend(name: str,
                 max_workers: int | None = None) -> ExecutionBackend:
    """Build the backend named by ``TrainerConfig.backend``."""
    cls = _BACKEND_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown backend {name!r}; expected one of "
                         f"{BACKENDS}")
    return cls() if cls is SerialBackend else cls(max_workers)
