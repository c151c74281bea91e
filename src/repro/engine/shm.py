"""Shared-memory partition store for the ``shm`` execution backend.

A plain process pool moves two model-sized pickles per task, every
superstep: the broadcast vector ``w`` (size ``m``) out, and the local
model back through the pool's single result pipe, one task at a time.
This module removes both — and the one-time partition shipment — by
placing them in POSIX shared memory
(:mod:`multiprocessing.shared_memory`):

* **partitions segment** (write-once): at install time the parent packs
  every partition's CSR arrays (``data``/``indices``/``indptr``) and its
  label vector into ONE segment, behind an offset table.  Workers map
  the segment and reconstruct each partition as *views* — zero copies,
  and the views are marked read-only so a task that mutated its shard
  would raise instead of corrupting the store for every other worker;
* **arena segment** (two-way): a broadcast region of one model vector
  followed by a ring of model-sized **result slots**.  Each superstep
  the parent writes ``w`` into the region once; every task reads it
  through a read-only view.  On the way back the trampoline pickles the
  result with protocol 5: a large buffer (the socket frames' rule,
  :func:`repro.engine.wire.stays_in_band`: at least 64 KiB) that still
  fits the task's slot is written there, the rest stays in
  the stream, and the parent rebuilds the result from a **private copy**
  of the slot bytes, so results never alias a slot a later task
  overwrites (the backend hands a slot out again only once it is copied
  out).  Per task the pool's pipes carry the scalars, the RNG state and
  a few-hundred-byte stream.

Under the ``fork`` start method not even segment *attachment* happens
per worker: the parent installs a :class:`ShmWorkerState` into the
module-level :data:`_SHM_STORES` registry *before* creating the pool, so
children inherit the mapped views directly (the mapping is
``MAP_SHARED`` — parent writes to the arena are visible to children).
On spawn platforms the pool initializer attaches by segment name, once
per worker.  The registry is keyed by a process-unique store id, so
concurrently open backends (e.g. two scheduler jobs) never clobber each
other's partitions.

Bit-identity is free: the segments hold bit-exact copies of the arrays
the serial loop reads, float64 values round-trip through shared memory
untouched, and RNG state travels by pickle, which round-trips it exactly.
"""

from __future__ import annotations

import itertools
import logging
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp

from ..data import Partition
from .wire import stays_in_band

__all__ = ["ArraySpec", "PartitionSpec", "ShmLayout", "ShmStore",
           "ShmWorkerState", "BroadcastRef", "build_store",
           "attach_segment", "partitions_from_buffer", "new_store_id"]

#: 8-byte alignment for every packed array (float64-friendly).
_ALIGN = 8

_LOG = logging.getLogger(__name__)

#: Process-unique ids for :data:`_SHM_STORES` entries.
_STORE_IDS = itertools.count(1)

#: store id -> worker-side state.  Parent processes install here before
#: forking (children inherit the mapped views copy-on-write); spawn pool
#: initializers attach by name and install here too.
_SHM_STORES: dict[int, "ShmWorkerState"] = {}


def new_store_id() -> int:
    """A process-unique id for one backend's shared-memory store."""
    return next(_STORE_IDS)


@dataclass(frozen=True)
class ArraySpec:
    """Location of one packed array inside the partitions segment."""

    dtype: str
    shape: tuple[int, ...]
    offset: int

    def view(self, buf) -> np.ndarray:
        arr = np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                         buffer=buf, offset=self.offset)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class PartitionSpec:
    """One partition's CSR arrays + labels inside the segment."""

    index: int
    matrix_shape: tuple[int, int]
    data: ArraySpec
    indices: ArraySpec
    indptr: ArraySpec
    y: ArraySpec


@dataclass(frozen=True)
class ShmLayout:
    """Everything a worker needs to map the store (picklable, tiny)."""

    parts_name: str
    bcast_name: str
    #: Broadcast region capacity in float64 values (= ``n_features``);
    #: every result slot behind it is the same size.
    bcast_capacity: int
    partitions: tuple[PartitionSpec, ...]

    def result_slot(self, arena_buf: memoryview, slot: int) -> memoryview:
        """Result slot number ``slot`` inside the arena segment."""
        size = self.bcast_capacity * 8
        return arena_buf[(1 + slot) * size:(2 + slot) * size]


@dataclass(frozen=True)
class BroadcastRef:
    """Per-task marker standing in for an array living in the arena.

    The parent replaces a broadcast ``ndarray`` argument with one of
    these before pickling the task; the worker-side trampoline swaps it
    back for a read-only view of the arena's first ``length`` values.
    """

    length: int


class ShmWorkerState:
    """Worker-side (and, under fork, parent-side) view of the store."""

    def __init__(self, layout: ShmLayout, parts_buf, bcast_buf,
                 segments: tuple[shared_memory.SharedMemory, ...] = ()
                 ) -> None:
        self.layout = layout
        #: Keep attached segments alive for as long as views exist.
        self._segments = segments
        self.arena_buf = bcast_buf
        self.partitions = partitions_from_buffer(layout, parts_buf)
        arena = np.ndarray((layout.bcast_capacity,), dtype=np.float64,
                           buffer=bcast_buf)
        arena.setflags(write=False)
        self.bcast_view = arena

    def resolve_broadcast(self, ref: BroadcastRef) -> np.ndarray:
        if ref.length > self.layout.bcast_capacity:
            raise RuntimeError(
                f"broadcast of {ref.length} values does not fit the "
                f"{self.layout.bcast_capacity}-value arena")
        view = self.bcast_view[:ref.length]
        view.setflags(write=False)
        return view


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_array(arr: np.ndarray, offset: int) -> tuple[ArraySpec, int]:
    offset = _aligned(offset)
    spec = ArraySpec(dtype=arr.dtype.str, shape=tuple(arr.shape),
                     offset=offset)
    return spec, offset + arr.nbytes


def partitions_from_buffer(layout: ShmLayout, buf) -> list[Partition]:
    """Reconstruct every partition as zero-copy views of ``buf``."""
    parts: list[Partition] = []
    for spec in layout.partitions:
        data = spec.data.view(buf)
        indices = spec.indices.view(buf)
        indptr = spec.indptr.view(buf)
        matrix = sp.csr_matrix((data, indices, indptr),
                               shape=spec.matrix_shape, copy=False)
        parts.append(Partition(index=spec.index, X=matrix,
                               y=spec.y.view(buf)))
    return parts


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Python 3.13+ exposes ``track=False`` so the attach never reaches the
    resource tracker.  On older versions attaching registers the name a
    second time — but pool workers *share* the parent's tracker process
    (spawn ships the tracker fd in the preparation data), and the
    tracker's cache is a set, so the duplicate register is a no-op and
    the parent's eventual ``unlink`` keeps the books balanced.  Do NOT
    "fix" this by unregistering here: a child-side unregister cancels
    the parent's registration in the shared tracker and its unlink then
    trips a KeyError inside the tracker process.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 fallback
        return shared_memory.SharedMemory(name=name)


class ShmStore:
    """Parent-side owner of the two segments.

    Created by :func:`build_store`; the owner must call :meth:`close`
    (idempotent) after the worker pool is gone — it unlinks both
    segments.
    """

    def __init__(self, layout: ShmLayout,
                 parts_seg: shared_memory.SharedMemory,
                 bcast_seg: shared_memory.SharedMemory) -> None:
        self.layout = layout
        self._parts_seg: shared_memory.SharedMemory | None = parts_seg
        self._bcast_seg: shared_memory.SharedMemory | None = bcast_seg
        #: Large result buffers that did not fit their slot and came back
        #: in the pickle stream instead (lifetime count).
        self.inband_fallbacks = 0
        self.fallback_logged = False  # the backend clears it per dispatch
        #: Parent-side writable view of the broadcast region.
        self.arena = np.ndarray((layout.bcast_capacity,), dtype=np.float64,
                                buffer=bcast_seg.buf)

    def worker_state(self) -> ShmWorkerState:
        """Fork-inheritable worker state over the parent's own mapping."""
        if self._parts_seg is None or self._bcast_seg is None:
            raise RuntimeError("shared-memory store is closed")
        return ShmWorkerState(self.layout, self._parts_seg.buf,
                              self._bcast_seg.buf)

    def write_broadcast(self, value: np.ndarray) -> BroadcastRef:
        """Copy ``value`` into the arena once; return the task marker."""
        if self._bcast_seg is None:
            raise RuntimeError("shared-memory store is closed")
        if value.size > self.layout.bcast_capacity:
            raise RuntimeError(
                f"broadcast of {value.size} values does not fit the "
                f"{self.layout.bcast_capacity}-value arena")
        self.arena[:value.size] = value
        return BroadcastRef(length=int(value.size))

    def load_result(self, packed: tuple[int, bytes, list[int], int]) -> Any:
        """Rebuild what :func:`pack_result` packed, from a copy of the
        slot bytes: trainers keep results across dispatches and a later
        task overwrites the slot."""
        if self._bcast_seg is None:
            raise RuntimeError("shared-memory store is closed")
        number, stream, lengths, spilled = packed
        if spilled:
            if not self.fallback_logged:
                _LOG.debug("%d large result buffer(s) did not fit the "
                           "%d-byte slot %d and came back in-band", spilled,
                           self.layout.bcast_capacity * 8, number)
                self.fallback_logged = True
            self.inband_fallbacks += spilled
        slot = self.layout.result_slot(self._bcast_seg.buf, number)
        stops = itertools.accumulate(lengths)
        return pickle.loads(stream, buffers=[
            bytearray(slot[stop - n:stop]) for n, stop in zip(lengths, stops)])

    def close(self) -> None:
        # Our own view first: it must not outlive the mapping.
        self.arena = np.empty(0, dtype=np.float64)
        for seg in (self._parts_seg, self._bcast_seg):
            if seg is None:
                continue
            try:
                seg.close()
            except BufferError:
                _LOG.warning("segment %s: a view is still exported, its "
                             "%d-byte mapping stays until that view is "
                             "released", seg.name, seg.size)
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LOG.debug("unlinked segment %s", seg.name)
        self._parts_seg = None
        self._bcast_seg = None


def build_store(partitions: Sequence[Partition],
                slots: int | None = None) -> ShmStore:
    """Pack ``partitions`` into shared memory; size the arena segment.

    The broadcast region and each of the ``slots`` result slots (one per
    partition unless told otherwise) hold one model vector (``n_features``
    float64 values) — every broadcast and every local model in the study
    is model-sized.
    """
    if not partitions:
        raise ValueError("cannot build a shared-memory store with no "
                         "partitions")
    n_features = int(partitions[0].X.shape[1])

    offset = 0
    specs: list[PartitionSpec] = []
    planned: list[tuple[ArraySpec, np.ndarray]] = []
    for part in partitions:
        arrays = {}
        for field in ("data", "indices", "indptr"):
            arr = np.ascontiguousarray(getattr(part.X, field))
            spec, offset = _plan_array(arr, offset)
            planned.append((spec, arr))
            arrays[field] = spec
        y = np.ascontiguousarray(part.y)
        y_spec, offset = _plan_array(y, offset)
        planned.append((y_spec, y))
        specs.append(PartitionSpec(
            index=part.index, matrix_shape=tuple(part.X.shape),
            data=arrays["data"], indices=arrays["indices"],
            indptr=arrays["indptr"], y=y_spec))

    parts_seg = shared_memory.SharedMemory(create=True,
                                           size=max(offset, _ALIGN))
    for spec, arr in planned:
        dest = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                          buffer=parts_seg.buf, offset=spec.offset)
        dest[...] = arr
    if slots is None:
        slots = len(partitions)
    bcast_seg = shared_memory.SharedMemory(
        create=True, size=max((1 + slots) * n_features * 8, _ALIGN))
    for seg in (parts_seg, bcast_seg):
        _LOG.debug("created segment %s (%d bytes)", seg.name, seg.size)

    layout = ShmLayout(parts_name=parts_seg.name, bcast_name=bcast_seg.name,
                       bcast_capacity=n_features,
                       partitions=tuple(specs))
    return ShmStore(layout, parts_seg, bcast_seg)


# ----------------------------------------------------------------------
# pool-side plumbing
# ----------------------------------------------------------------------
def install_worker_state(store_id: int, state: ShmWorkerState) -> None:
    """Install worker state (parent pre-fork, or spawn initializer)."""
    _SHM_STORES[store_id] = state


def discard_worker_state(store_id: int) -> None:
    _SHM_STORES.pop(store_id, None)


def attach_worker_state(store_id: int, layout: ShmLayout) -> None:
    """Spawn-platform pool initializer: attach both segments by name."""
    if store_id in _SHM_STORES:
        return
    parts_seg = attach_segment(layout.parts_name)
    bcast_seg = attach_segment(layout.bcast_name)
    _SHM_STORES[store_id] = ShmWorkerState(
        layout, parts_seg.buf, bcast_seg.buf,
        segments=(parts_seg, bcast_seg))


def pack_result(result: Any, slot: memoryview) -> tuple[bytes, list[int], int]:
    """Pickle ``result``, its large buffers into ``slot``: the stream,
    the byte lengths of the buffers placed back to back in the slot, and
    how many large buffers did not fit and stayed in the stream."""
    # Lists, not counters: this runs in task scope, where RACE001 bans
    # ``nonlocal`` rebinding.
    lengths: list[int] = []
    spilled: list[int] = []

    def keep_in_band(buffer: pickle.PickleBuffer) -> bool:
        if stays_in_band(buffer):  # one pipe write carries a small one
            return True
        raw = buffer.raw()
        start = sum(lengths)
        if start + raw.nbytes > slot.nbytes:
            spilled.append(raw.nbytes)
            return True
        slot[start:start + raw.nbytes] = raw
        lengths.append(raw.nbytes)
        return False

    stream = pickle.dumps(result, protocol=5, buffer_callback=keep_in_band)
    return stream, lengths, len(spilled)


def run_on_shm_partition(store_id: int, fn: Callable[..., Any], index: int,
                         slot: int, args: tuple
                         ) -> tuple[int, bytes, list[int], int]:
    """Pool-side trampoline: resolve the store, the partition, and any
    :class:`BroadcastRef` markers, run the task, and pack its result for
    :meth:`ShmStore.load_result`."""
    state = _SHM_STORES.get(store_id)
    if state is None:
        raise RuntimeError(
            "shared-memory store is not installed in this worker "
            "process (pool initializer did not run)")
    resolved = tuple(state.resolve_broadcast(a)
                     if isinstance(a, BroadcastRef) else a
                     for a in args)
    result = fn(state.partitions[index], *resolved)
    return (slot, *pack_result(
        result, state.layout.result_slot(state.arena_buf, slot)))
