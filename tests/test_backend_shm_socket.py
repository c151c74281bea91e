"""Shared-memory + socket backends: pickle accounting, lifecycle, wire.

Regression coverage for the real-executor work:

* the shm backend's **pickle-never** partition contract (under fork
  *and* spawn only the ``ShmLayout`` travels), pinned by counting
  partition pickle events;
* pool/daemon **lifecycle**: backends are context managers, and a fault
  injected mid-``fit`` still reaps every worker process and unlinks both
  shared-memory segments; a daemon that dies before HELLO fails the
  install at once;
* the **spawn** start method: the bit-identity battery CI normally runs
  only ever exercises ``fork`` — the slow suite here reruns it under
  ``spawn`` (initializer-attached state instead of inherited state);
* :mod:`repro.engine.shm` internals (read-only views, broadcast arena,
  segment lifecycle) and the :mod:`repro.engine.wire` frame protocol;
* the **result slots**: nested results round-trip bit-exactly through
  trampoline + collect as private writable arrays, and results that
  overflow a slot (several gradient waves, the dual block) stay
  bit-identical to serial through the in-band branch;
* the measured-vs-simulated plumbing: ``trainer.last_wire_stats``
  harvest and :mod:`repro.perf.netcheck`.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing as mp
import os
import pickle
import signal
import socket as socketlib
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from data.make_golden import GOLDEN_PATH, SYSTEMS, golden_workload
from repro.cluster import cluster1
from repro.core import MLlibStarTrainer, MLlibTrainer, TrainerConfig
from repro.data import Partition, SyntheticSpec, generate
from repro.engine import shm as shm_store
from repro.engine import wire
from repro.engine import backend as backend_module
from repro.engine.backend import (ExecutionBackend, SerialBackend,
                                  ShmBackend, make_backend)
from repro.engine.shm import BroadcastRef, build_store, run_on_shm_partition
from repro.glm import LocalStats, Objective
from repro.perf.netcheck import fit_alpha_beta, validate_network
from test_perf_backend import _assert_matches_serial, _run, shm_segments

_HAVE_FORK = "fork" in mp.get_all_start_methods()

#: Parent-side count of partition pickle events (see CountingPartition).
_PICKLES = {"count": 0}


class CountingPartition(Partition):
    """A partition whose pickling is observable.

    ``__reduce__`` bumps the module-level counter — in the *parent*
    process only, since forked/spawned children mutate their own copy of
    the module global.  That is exactly the count the pickle-never
    contract is about: how many times the parent serializes a partition
    to ship it somewhere.
    """

    def __reduce__(self):
        _PICKLES["count"] += 1
        return (CountingPartition, (self.index, self.X, self.y))


def _value_task(part, offset: float) -> float:
    return float(part.y[0]) + offset


def _boom_task(part) -> float:
    raise ValueError("boom: injected task fault")


def _partitions(k: int = 3, cls: type[Partition] = Partition,
                features: int = 6) -> list[Partition]:
    parts = []
    for i in range(k):
        X = sp.random(4, features, density=3.0 / features, format="csr",
                      random_state=np.random.RandomState(i))
        parts.append(cls(index=i, X=X, y=np.full(4, float(i))))
    return parts


def _dying_daemon_main(port: int, worker_id: int) -> None:
    """A daemon that exits before it ever dials back."""
    raise SystemExit(3)


def _probe_broadcast_task(part, w) -> tuple[bool, float]:
    """Report whether the model arg arrived as a read-only view."""
    return (not w.flags.writeable, float(w.sum()))


# ----------------------------------------------------------------------
# satellite: pickle-never partition shipping
# ----------------------------------------------------------------------
class TestPartitionPickleAccounting:
    def test_counter_sees_a_pickle(self):
        _PICKLES["count"] = 0
        pickle.dumps(_partitions(1, CountingPartition))
        assert _PICKLES["count"] == 1

    @pytest.mark.skipif(not _HAVE_FORK, reason="fork not available")
    def test_fork_install_never_pickles_partitions(self):
        self._assert_no_partition_pickles("fork")

    def test_spawn_never_pickles_partitions(self):
        self._assert_no_partition_pickles("spawn")

    def _assert_no_partition_pickles(self, start_method):
        # fork inherits views over the shared segment; spawn attaches it
        # by name from the ShmLayout — the partitions themselves never
        # travel, at install or in any of three supersteps.
        _PICKLES["count"] = 0
        with ShmBackend(max_workers=2,
                        start_method=start_method) as backend:
            backend.install_partitions(_partitions(3, CountingPartition))
            for _ in range(3):
                got = backend.map_partitions(
                    _value_task, [(1.0,), (1.0,), (1.0,)])
                assert got == [1.0, 2.0, 3.0]
        assert _PICKLES["count"] == 0


# ----------------------------------------------------------------------
# satellite: lifecycle — context managers, fault-path reaping
# ----------------------------------------------------------------------
class TestBackendLifecycle:
    def test_context_manager_closes_pool(self):
        backend = ShmBackend()
        with backend as entered:
            assert entered is backend
            backend.install_partitions(_partitions(2))
            assert backend._pool is not None
        assert backend._pool is None

    def test_context_manager_closes_on_fault(self):
        prior = {p.pid for p in mp.active_children()}
        segments = shm_segments()
        backend = ShmBackend(max_workers=1)
        with pytest.raises(ValueError, match="boom"):
            with backend:
                backend.install_partitions(_partitions(2))
                backend.map_partitions(_boom_task, [(), ()])
        assert backend._pool is None
        assert [p for p in mp.active_children() if p.pid not in prior] \
            == []
        assert shm_segments() <= segments

    def test_socket_fault_propagates_and_daemons_are_reaped(self):
        prior = {p.pid for p in mp.active_children()}
        backend = make_backend("socket")
        with pytest.raises(ValueError, match="boom"):
            with backend:
                backend.install_partitions(_partitions(2))
                assert any(p.name.startswith("repro-daemon")
                           for p in mp.active_children())
                backend.map_partitions(_boom_task, [(), ()])
        leftovers = [p for p in mp.active_children()
                     if p.pid not in prior]
        assert leftovers == []

    def test_daemon_death_before_hello_fails_install_at_once(
            self, monkeypatch):
        # Without the liveness check the accept() below would sit out
        # wire.DEFAULT_TIMEOUT (300 s) and end in a bare TimeoutError.
        monkeypatch.setattr(backend_module, "daemon_main",
                            _dying_daemon_main)
        prior = {p.pid for p in mp.active_children()}
        backend = make_backend("socket", max_workers=2)
        start = time.perf_counter()
        with pytest.raises(RuntimeError,
                           match=r"daemon [01] exited with code 3"):
            backend.install_partitions(_partitions(2))
        assert time.perf_counter() - start < 10.0
        assert [p for p in mp.active_children() if p.pid not in prior] \
            == []

    def test_fit_fault_reaps_workers_and_harvests_wire_stats(self):
        dataset, cluster, config = golden_workload()
        config = dataclasses.replace(config, backend="socket")
        trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster,
                                   config)
        prior = {p.pid for p in mp.active_children()}

        def exploding_step(step, w, data):
            raise RuntimeError("injected fault mid-fit")

        trainer._run_step = exploding_step
        with pytest.raises(RuntimeError, match="injected fault"):
            trainer.fit(dataset)
        # fit()'s finally closed the session: daemons reaped, the serial
        # stub reinstalled, and the wire log (the install exchange, at
        # least) harvested before teardown.
        assert [p for p in mp.active_children() if p.pid not in prior] \
            == []
        assert isinstance(trainer._backend, SerialBackend)
        assert trainer.last_wire_stats is not None
        assert trainer.last_wire_stats["install_bytes"] > 0

    def test_open_session_failure_closes_backend(self, monkeypatch):
        dataset, cluster, config = golden_workload()
        config = dataclasses.replace(config, backend="shm")
        trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster,
                                   config)
        # Fail AFTER the segments exist: the pool is what cannot start.
        monkeypatch.setattr(
            backend_module, "ProcessPoolExecutor",
            lambda **kwargs: (_ for _ in ()).throw(
                OSError("no processes for you")))
        prior = {p.pid for p in mp.active_children()}
        segments = shm_segments()
        with pytest.raises(OSError, match="no processes"):
            trainer.open_session(dataset)
        assert [p for p in mp.active_children() if p.pid not in prior] \
            == []
        assert shm_segments() <= segments
        # The serial stub keeps post-failure introspection working.
        assert isinstance(trainer._backend, SerialBackend)


# ----------------------------------------------------------------------
# satellite: the bit-identity battery under the spawn start method
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSpawnStartMethod:
    """CI's default battery only ever exercises ``fork`` (the preferred
    method); this suite repeats it under ``spawn``, where worker state
    travels through pool initializers instead of being inherited."""

    @pytest.fixture(autouse=True)
    def _force_spawn(self, monkeypatch):
        monkeypatch.setattr(ExecutionBackend, "default_start_method",
                            "spawn")

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_shm_spawn_matches_serial(self, system):
        _assert_matches_serial(system, "shm")

    @pytest.mark.parametrize("backend", ["shm", "socket"])
    def test_shared_backends_spawn_match_serial(self, backend):
        _assert_matches_serial("MLlib*", backend)
        _assert_matches_serial("ASGD", backend)


# ----------------------------------------------------------------------
# shm internals
# ----------------------------------------------------------------------
class TestShmStore:
    def test_store_round_trips_partitions_as_readonly_views(self):
        parts = _partitions(3)
        store = build_store(parts)
        try:
            state = store.worker_state()
            assert len(state.partitions) == 3
            for original, view in zip(parts, state.partitions):
                assert np.array_equal(original.X.toarray(),
                                      view.X.toarray())
                assert np.array_equal(original.y, view.y)
                assert not view.y.flags.writeable
                with pytest.raises(ValueError):
                    view.X.data[0] = 999.0
        finally:
            store.close()

    def test_broadcast_arena_round_trip(self):
        store = build_store(_partitions(2))
        try:
            w = np.linspace(0.0, 1.0, 6)
            ref = store.write_broadcast(w)
            assert ref == BroadcastRef(length=6)
            view = store.worker_state().resolve_broadcast(ref)
            assert np.array_equal(view, w)
            assert not view.flags.writeable
        finally:
            store.close()

    def test_broadcast_overflow_raises(self):
        store = build_store(_partitions(1))
        try:
            with pytest.raises(RuntimeError, match="does not fit"):
                store.write_broadcast(np.zeros(1000))
        finally:
            store.close()

    def test_close_is_idempotent_and_guards_writes(self):
        store = build_store(_partitions(1))
        store.close()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.write_broadcast(np.zeros(3))
        with pytest.raises(RuntimeError, match="closed"):
            store.worker_state()

    def test_build_store_rejects_empty(self):
        with pytest.raises(ValueError, match="no"):
            build_store([])

    def test_attach_worker_state_by_name(self):
        # The spawn initializer path: attach both segments by name in a
        # "different worker" (here: a different store id, same process).
        parts = _partitions(2)
        store = build_store(parts)
        store_id = shm_store.new_store_id()
        try:
            shm_store.attach_worker_state(store_id, store.layout)
            ref = store.write_broadcast(np.arange(6, dtype=np.float64))
            packed = run_on_shm_partition(
                store_id, _probe_broadcast_task, 1, 0, (ref,))
            # A tiny result: all of it in the stream, nothing in slot 0.
            assert (packed[0], packed[2:]) == (0, ([], 0))
            readonly, total = store.load_result(packed)
            assert readonly
            assert total == pytest.approx(15.0)
        finally:
            shm_store.discard_worker_state(store_id)
            store.close()

    def test_trampoline_requires_installed_store(self):
        with pytest.raises(RuntimeError, match="not installed"):
            run_on_shm_partition(10**9, _value_task, 0, 0, (0.0,))


class TestShmBackendBroadcast:
    def test_shared_model_vector_rides_the_arena(self):
        parts = _partitions(3)
        with make_backend("shm") as backend:
            backend.install_partitions(parts)
            w = np.linspace(-1.0, 1.0, 6)
            # The SAME object in every worker's args = a broadcast; the
            # workers must see its values (through the arena) read-only.
            got = backend.map_partitions(_probe_broadcast_task,
                                         [(w,)] * 3)
            assert all(readonly for readonly, _ in got)
            assert [total for _, total in got] \
                == [pytest.approx(float(w.sum()))] * 3

    def test_distinct_vectors_still_ship_by_value(self):
        parts = _partitions(2)
        with make_backend("shm") as backend:
            backend.install_partitions(parts)
            per_worker = [(np.full(6, 1.0),), (np.full(6, 2.0),)]
            got = backend.map_partitions(_probe_broadcast_task,
                                         per_worker)
            assert [total for _, total in got] == [6.0, 12.0]

    def test_run_one_routes_model_through_arena(self):
        with make_backend("shm") as backend:
            backend.install_partitions(_partitions(3))
            w = np.arange(6, dtype=np.float64)
            readonly, total = backend.run_one(_probe_broadcast_task, 2,
                                              (w,))
            assert readonly and total == pytest.approx(15.0)


# ----------------------------------------------------------------------
# result slots: large result buffers ride the arena, copied out on collect
# ----------------------------------------------------------------------
#: Model width of the slot tests: one slot holds exactly two buffers of
#: ``wire.LARGE_BUFFER_BYTES``.
_SLOT_FEATURES = 2 * wire.LARGE_BUFFER_BYTES // 8

#: float64 elements per array: empty, 16 bytes, small, exactly the
#: threshold, exactly one slot, larger than any slot.
_SIZES = (0, 2, 100, _SLOT_FEATURES // 2, _SLOT_FEATURES,
          _SLOT_FEATURES + 1000)


@st.composite
def _arrays(draw, sizes=_SIZES) -> np.ndarray:
    """Random *bit patterns* (NaN payloads included): the round trip is
    compared byte for byte, not by value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**63, size=draw(st.sampled_from(sizes)))
    if draw(st.booleans()):
        return bits.view(np.float64)
    return bits.astype(np.int32)


def _generators(seed: int) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    rng.standard_normal(seed % 7)  # somewhere inside its stream
    return rng


def _results(arrays):
    leaves = (arrays
              | st.integers(0, 2**32 - 1).map(_generators)
              | st.builds(LocalStats, st.integers(0, 2**40),
                          st.integers(0, 2**20), st.integers(0, 2**40))
              | st.integers(-5, 5))
    return st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)),
        max_leaves=6)


_RESULTS = _results(_arrays())


def _map_arrays(value, fn):
    if isinstance(value, np.ndarray):
        return fn(value)
    if isinstance(value, (list, tuple)):
        return type(value)(_map_arrays(v, fn) for v in value)
    return value


def _arrays_in(value) -> list[np.ndarray]:
    found: list[np.ndarray] = []
    _map_arrays(value, found.append)
    return found


def _echo_task(part, payload, strided: bool):
    """Return the payload; ``strided`` first turns every array into an
    equal non-contiguous view, *inside the worker*."""
    if strided:
        return _map_arrays(payload, lambda a: np.repeat(a, 2)[::2])
    return payload


def _assert_same(got, want) -> None:
    assert type(got) is type(want)
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, np.random.Generator):
        assert got.bit_generator.state == want.bit_generator.state
    else:
        assert got == want


def _model_sized_waves(part, waves: int) -> list[np.ndarray]:
    return [np.full(_SLOT_FEATURES, float(part.index + w))
            for w in range(waves)]


def _boom_on_partition_one(part) -> np.ndarray:
    if part.index == 1:
        raise ValueError("boom: injected task fault")
    return np.full(_SLOT_FEATURES, float(part.index))


class TestResultSlots:
    @pytest.fixture(scope="class")
    def backend(self):
        # One lane, so two slots for three partitions: partition 2's task
        # rewrites slot 0 inside the same dispatch, after the window let
        # the parent copy partition 0's result out of it.
        with ShmBackend(max_workers=1) as backend:
            backend.install_partitions(
                _partitions(3, features=_SLOT_FEATURES))
            assert backend._window == 2
            yield backend

    @settings(max_examples=40, deadline=None)
    @given(payloads=st.lists(_RESULTS, min_size=3, max_size=3),
           strided=st.booleans())
    def test_nested_results_round_trip_as_private_arrays(
            self, backend, payloads, strided):
        args = [(payload, strided) for payload in payloads]
        first = backend.map_partitions(_echo_task, args)
        arena = np.frombuffer(backend._store._bcast_seg.buf, dtype=np.uint8)
        for got, want in zip(first, payloads):
            _assert_same(got, want)
            for arr in _arrays_in(got):
                assert arr.flags.writeable
                assert not np.may_share_memory(arr, arena)
        del arena
        # Scribbling over one partition's result changes neither a later
        # dispatch (the slots are rewritten, our copy is ours) nor the
        # results its neighbours returned.
        for arr in _arrays_in(first[0]):
            arr[...] = 7
        second = backend.map_partitions(_echo_task, args)
        for got, want in zip(second + first[1:], payloads + payloads[1:]):
            _assert_same(got, want)

    def test_slot_takes_what_fits_and_the_rest_stays_in_band(self, caplog):
        store = build_store(_partitions(2, features=_SLOT_FEATURES))
        store_id = shm_store.new_store_id()
        shm_store.install_worker_state(store_id, store.worker_state())
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.engine.shm"):
                for index in (0, 1):
                    packed = run_on_shm_partition(
                        store_id, _model_sized_waves, index, index, (3,))
                    slot, stream, lengths, spilled = packed
                    assert (slot, lengths, spilled) \
                        == (index, [_SLOT_FEATURES * 8], 2)
                    # One wave left the stream, two are still in it.
                    assert 2 * _SLOT_FEATURES * 8 < len(stream) \
                        < 3 * _SLOT_FEATURES * 8
                    waves = store.load_result(packed)
                    assert [w[0] for w in waves] \
                        == [index, index + 1.0, index + 2.0]
            assert store.inband_fallbacks == 4
            # One line for the dispatch, not one per task.
            assert [r.message for r in caplog.records
                    if "in-band" in r.message] == [
                "2 large result buffer(s) did not fit the "
                f"{_SLOT_FEATURES * 8}-byte slot 0 and came back in-band"]
        finally:
            shm_store.discard_worker_state(store_id)
            store.close()

    def test_segment_lifecycle_is_logged(self, caplog):
        before = shm_segments()
        with caplog.at_level(logging.DEBUG, logger="repro.engine.shm"):
            store = build_store(_partitions(2))
            names = sorted(shm_segments() - before)
            store.close()
        messages = [r.message for r in caplog.records]
        for name in names:
            assert any(m.startswith(f"created segment {name} ")
                       for m in messages)
            assert f"unlinked segment {name}" in messages

    def test_close_warns_about_a_surviving_export(self, caplog):
        before = shm_segments()
        store = build_store(_partitions(2, features=_SLOT_FEATURES))
        segment = store._bcast_seg
        view = store.layout.result_slot(segment.buf, 0)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.engine.shm"):
                store.close()
            warnings = [r for r in caplog.records
                        if r.levelno == logging.WARNING]
            assert len(warnings) == 1
            assert "still exported" in warnings[0].message
            # The name is gone all the same: nothing is left for the
            # outside probe, only the mapping waits for the view.
            assert shm_segments() <= before
        finally:
            view.release()
            segment.close()

    def test_window_bounds_the_slots_not_the_partitions(self):
        # Slots follow the lanes (two each), not the partition count.
        before = shm_segments()
        with ShmBackend(max_workers=2) as backend:
            backend.install_partitions(
                _partitions(7, features=_SLOT_FEATURES))
            assert backend._window == 4
            if os.path.isdir("/dev/shm"):
                arena = max(os.stat(f"/dev/shm/{name}").st_size
                            for name in shm_segments() - before)
                assert arena == (1 + 4) * _SLOT_FEATURES * 8
            got = backend.map_partitions(_model_sized_waves, [(1,)] * 7)
            assert [waves[0][0] for waves in got] == list(range(7))
            assert backend._store.inband_fallbacks == 0

    def test_mid_dispatch_fault_leaves_no_segment_or_child(self):
        # Partition 0 has written its slot when 1 raises; the fault must
        # still surface and tear everything down.
        prior = {p.pid for p in mp.active_children()}
        segments = shm_segments()
        with pytest.raises(ValueError, match="boom"):
            with ShmBackend(max_workers=2) as backend:
                backend.install_partitions(
                    _partitions(3, features=_SLOT_FEATURES))
                backend.map_partitions(_boom_on_partition_one,
                                       [(), (), ()])
        assert [p for p in mp.active_children() if p.pid not in prior] \
            == []
        assert shm_segments() <= segments


def _overflow_fit(trainer_cls, backend: str, **overrides):
    """Two supersteps on a workload whose model (72 KB) and dual blocks
    (9000 rows) are both past ``LARGE_BUFFER_BYTES``, so a second model-sized
    buffer in one result cannot fit the slot.  Returns the result and the
    store's in-band fallback count (0 for backends without a store)."""
    dataset = generate(SyntheticSpec(n_rows=18000, n_features=9000,
                                     nnz_per_row=4.0, noise=0.02, seed=5),
                       name="overflow")
    config = TrainerConfig(max_steps=2, learning_rate=0.3,
                           lr_schedule="inv_sqrt", batch_fraction=0.25,
                           local_chunk_size=16, seed=3, backend=backend,
                           **overrides)
    trainer = trainer_cls(Objective("hinge", "l2", 0.1),
                          cluster1(executors=2), config)
    session = trainer.open_session(dataset)
    try:
        while not session.finished:
            session.run_step()
        store = getattr(trainer._backend, "_store", None)
        fallbacks = store.inband_fallbacks if store is not None else 0
        return session.result(), fallbacks
    finally:
        session.close()


class TestResultSlotOverflow:
    """The in-band branch, asserted by the store's counter: a result with
    more model-sized buffers than its slot holds stays bit-identical."""

    @pytest.mark.parametrize("start_method", [
        pytest.param("fork", marks=pytest.mark.skipif(
            not _HAVE_FORK, reason="fork not available")),
        pytest.param("spawn", marks=pytest.mark.slow)])
    @pytest.mark.parametrize("trainer_cls, overrides, spilled_per_task", [
        # Three gradient waves: the first rides the slot, two spill.
        (MLlibTrainer, dict(tasks_per_executor=3), 2),
        # delta_w fills the slot, the dual block alpha spills.
        (MLlibStarTrainer, dict(local_solver="cocoa", local_iters=1), 1)],
        ids=["mllib-3-waves", "cocoa-dual"])
    def test_overflowing_results_match_serial(
            self, monkeypatch, start_method, trainer_cls, overrides,
            spilled_per_task):
        monkeypatch.setattr(ExecutionBackend, "default_start_method",
                            start_method)
        serial, _ = _overflow_fit(trainer_cls, "serial", **overrides)
        shm, fallbacks = _overflow_fit(trainer_cls, "shm", **overrides)
        # 2 executors x 2 supersteps.
        assert fallbacks == spilled_per_task * 2 * 2
        assert list(shm.history.points) == list(serial.history.points)
        assert np.array_equal(shm.model.weights, serial.model.weights)
        assert list(shm.duality_gaps) == list(serial.duality_gaps)


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
#: float64 elements of the smallest array that leaves the pickle stream.
_LARGE = wire.LARGE_BUFFER_BYTES // 8

#: Empty, tiny, one element either side of the out-of-band rule, and big
#: enough that a frame carries several socket buffers' worth.
_WIRE_SIZES = (0, 2, _LARGE - 1, _LARGE, _LARGE + 1, 3 * _LARGE)


class TestWireProtocol:
    def _pair(self):
        left, right = socketlib.socketpair()
        return wire.FrameChannel(left), wire.FrameChannel(right)

    def test_frame_round_trip_counts_bytes(self):
        a, b = self._pair()
        try:
            payload = {"w": np.arange(4.0), "step": 3}
            sent = a.send(wire.ROUND, payload)
            kind, received, total = b.recv()
            assert kind == wire.ROUND
            assert total == sent
            assert received["step"] == 3
            assert np.array_equal(received["w"], payload["w"])
        finally:
            a.close()
            b.close()

    def test_request_measures_the_round_trip(self):
        a, b = self._pair()

        def responder():
            kind, payload, _ = b.recv()
            b.send(wire.RESULT, payload * 2)

        thread = threading.Thread(target=responder)
        thread.start()
        try:
            kind, reply, exchange = a.request(wire.ROUND, 21)
            assert (kind, reply) == (wire.RESULT, 42)
            assert exchange.bytes_out > 0 and exchange.bytes_in > 0
            assert exchange.seconds >= 0.0
        finally:
            thread.join()
            a.close()
            b.close()

    def test_truncated_frame_raises(self):
        a, b = self._pair()
        try:
            a._sock.sendall(b"\x03")  # half a header, then EOF
            a.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                b.recv()
        finally:
            b.close()

    def test_truncation_inside_an_out_of_band_buffer_raises(self):
        # Learn the frame's size from one delivery, capture its bytes
        # from a second, replay all but the tail on another pair whose
        # sender then closes: the cut falls in the buffer section, which
        # comes last.
        a, b = self._pair()
        c, d = self._pair()
        big = np.arange(4 * _LARGE, dtype=np.float64)

        def send_twice():
            a.send(wire.RESULT, big)
            a.send(wire.RESULT, big)

        sender = threading.Thread(target=send_twice)
        sender.start()
        try:
            _, _, total = b.recv()
            frame = bytes(b._read(total))
            sender.join(timeout=10)
            assert not sender.is_alive()
            replay = threading.Thread(
                target=lambda: (c._sock.sendall(frame[:-1000]), c.close()))
            replay.start()
            with pytest.raises(ConnectionError, match="mid-frame"):
                d.recv()
            replay.join(timeout=10)
        finally:
            for channel in (a, b, c, d):
                channel.close()

    @settings(max_examples=40, deadline=None)
    @given(payload=_results(_arrays(_WIRE_SIZES)), strided=st.booleans(),
           readonly=st.booleans())
    def test_nested_payloads_round_trip_through_a_frame(
            self, payload, strided, readonly):
        if strided:
            payload = _map_arrays(payload, lambda a: np.repeat(a, 2)[::2])
        left, right = socketlib.socketpair()
        a = wire.FrameChannel(left)
        b = wire.FrameChannel(right, readonly=readonly)
        sent: list[int] = []
        sender = threading.Thread(
            target=lambda: sent.append(a.send(wire.RESULT, payload)))
        sender.start()
        try:
            kind, got, received = b.recv()
            sender.join(timeout=10)
            assert kind == wire.RESULT and [received] == sent
            _assert_same(got, payload)
            arrays = _arrays_in(got)
            assert received >= sum(a.nbytes for a in arrays)
            for i, arr in enumerate(arrays):
                # Strided arrays are pickled in-band by numpy, whatever
                # their size.
                out_of_band = (arr.nbytes >= wire.LARGE_BUFFER_BYTES
                               and not strided)
                assert arr.flags.writeable == (not (readonly
                                                    and out_of_band))
                assert not any(np.may_share_memory(arr, other)
                               for other in arrays[i + 1:])
        finally:
            a.close()
            b.close()

    def test_stream_puts_the_request_on_the_first_exchange(self):
        a, b = self._pair()

        def responder():
            _, payload, _ = b.recv()
            for item in payload:
                b.send(wire.RESULT, item * 2)

        thread = threading.Thread(target=responder)
        thread.start()
        try:
            replies = list(a.stream(wire.ROUND, [1, 2, 3], 3))
            assert [reply for _, reply, _ in replies] == [2, 4, 6]
            exchanges = [exchange for _, _, exchange in replies]
            assert exchanges[0].bytes_out > 0
            assert [e.bytes_out for e in exchanges[1:]] == [0, 0]
            assert all(e.bytes_in > 0 and e.seconds >= 0.0
                       for e in exchanges)
        finally:
            thread.join(timeout=10)
            a.close()
            b.close()

    def test_summarize_groups_by_superstep(self):
        records = [
            wire.WireRecord("install", 0, 0, 100, 10, 0.5),
            wire.WireRecord("task", 0, 1, 30, 20, 0.2,
                            compute_seconds=0.15),
            wire.WireRecord("task", 1, 1, 30, 20, 0.3,
                            compute_seconds=0.4),
        ]
        summary = wire.summarize(records)
        assert summary["messages"] == 3
        assert summary["bytes_out"] == 160
        assert summary["install_bytes"] == 110
        rows = summary["per_superstep"]
        assert [row["superstep"] for row in rows] == [0, 1]
        assert rows[1]["messages"] == 2
        # comm = roundtrip - compute, floored at zero per record.
        assert rows[1]["comm_seconds"] == pytest.approx(0.05)

    def test_empty_wire_log_summary_is_none(self):
        assert wire.WireLog().summary() is None


# ----------------------------------------------------------------------
# socket rounds: one frame per daemon per dispatch, results streamed back
# ----------------------------------------------------------------------
def _scribble_task(part, w) -> float:
    w[0] = 1.0
    return float(w[0])


def _die_on_partition_two(part, w) -> float:
    if part.index == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return float(w.sum())


def _new_children(prior: set[int]) -> list:
    return [p for p in mp.active_children() if p.pid not in prior]


class TestSocketRounds:
    #: A model wide enough to travel out of band.
    W = np.linspace(-1.0, 1.0, 2 * _LARGE)

    def test_shared_model_crosses_once_per_daemon(self):
        w = self.W
        for daemons in (1, 2):
            with make_backend("socket", max_workers=daemons) as backend:
                backend.install_partitions(_partitions(4))
                got = backend.map_partitions(_probe_broadcast_task,
                                             [(w,)] * 4)
                assert got == [(True, float(w.sum()))] * 4
                records = [r for r in backend._log.records
                           if r.label == "task"]
            # One record per RESULT frame; the round's request (w once,
            # a few hundred bytes of frame) rides each daemon's first.
            # Daemons' frames are logged by their own io threads, so the
            # interleaving across daemons is arrival order.
            assert sorted(r.worker for r in records if r.bytes_out) \
                == list(range(daemons))
            for daemon in range(daemons):
                assert next(r for r in records
                            if r.worker == daemon).bytes_out
            assert len(records) == 4
            for r in records:
                assert r.bytes_out == 0 \
                    or w.nbytes < r.bytes_out < w.nbytes + 2048
            assert all(0 < r.bytes_in < 2048 for r in records)
            assert {r.superstep for r in records} == {1}

    def test_small_shared_model_is_memoised_too(self):
        # Below the out-of-band rule it is pickle's memo alone that
        # keeps the model to one copy per round frame.
        w = np.linspace(0.0, 1.0, 1000)
        with make_backend("socket", max_workers=1) as backend:
            backend.install_partitions(_partitions(4))
            backend.map_partitions(_probe_broadcast_task, [(w,)] * 4)
            assert w.nbytes < backend.wire_summary()[
                "per_superstep"][1]["bytes_out"] < 2 * w.nbytes

    def test_task_writing_a_shared_input_raises(self):
        with make_backend("socket", max_workers=1) as backend:
            backend.install_partitions(_partitions(3))
            with pytest.raises(ValueError, match="read-only"):
                backend.map_partitions(_scribble_task, [(self.W,)] * 3)
            # The round ended at the ERROR frame, both ends in step.
            assert backend.map_partitions(
                _value_task, [(1.0,)] * 3) == [1.0, 2.0, 3.0]
        assert self.W[0] == -1.0

    def test_mid_round_fault_leaves_the_channel_usable(self):
        with make_backend("socket", max_workers=1) as backend:
            backend.install_partitions(_partitions(3))
            with pytest.raises(ValueError, match="boom"):
                backend.map_partitions(_boom_on_partition_one, [()] * 3)
            assert backend.run_one(_value_task, 2, (0.5,)) == 2.5
            assert backend.map_partitions(
                _value_task, [(1.0,)] * 3) == [1.0, 2.0, 3.0]

    def test_killed_daemon_fails_the_round_with_a_typed_error(self):
        prior = {p.pid for p in mp.active_children()}
        backend = make_backend("socket", max_workers=2)
        try:
            # Daemon 0 holds partitions 0 and 2: it answers the first,
            # then SIGKILLs itself inside the second.
            backend.install_partitions(_partitions(4))
            assert len(_new_children(prior)) == 2
            start = time.perf_counter()
            with pytest.raises(wire.WorkerLostError,
                               match="worker daemon 0 .* lost mid-round"):
                backend.map_partitions(_die_on_partition_two,
                                       [(self.W,)] * 4)
            assert time.perf_counter() - start < 5.0
        finally:
            backend.close()
        assert _new_children(prior) == []
        # A fresh backend is unaffected: the golden numbers again.
        result = _run("MLlib*", "socket")
        pinned = json.loads(GOLDEN_PATH.read_text())["MLlib*"]
        assert result.final_objective == pytest.approx(
            pinned["final_objective"], rel=1e-9)
        assert result.history.total_seconds == pytest.approx(
            pinned["total_seconds"], rel=1e-9)
        assert _new_children(prior) == []

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_interleaved_daemons_match_serial(self, monkeypatch, system):
        # Three daemons under four partitions whatever the host: daemon
        # 0 runs partitions 0 and 3 in one round, 1 and 2 one each, and
        # results still land in partition order (ASGD through run_one).
        monkeypatch.setattr(backend_module.os, "cpu_count", lambda: 3)
        _assert_matches_serial(system, "socket")


# ----------------------------------------------------------------------
# measured-vs-simulated plumbing
# ----------------------------------------------------------------------
class TestWireHarvest:
    def test_serial_fit_reports_no_wire_stats(self):
        dataset, cluster, config = golden_workload()
        trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster,
                                   config)
        trainer.fit(dataset)
        assert trainer.last_wire_stats is None

    def test_socket_fit_harvests_wire_stats(self):
        dataset, cluster, config = golden_workload()
        config = dataclasses.replace(config, backend="socket")
        trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster,
                                   config)
        trainer.fit(dataset)
        stats = trainer.last_wire_stats
        assert stats is not None
        assert stats["messages"] > 0
        assert stats["install_bytes"] > 0
        assert stats["bytes_out"] > 0 and stats["bytes_in"] > 0
        # Superstep 0 is the install; the task supersteps follow.
        supersteps = [row["superstep"] for row in stats["per_superstep"]]
        assert supersteps[0] == 0 and len(supersteps) >= 2


class TestNetcheck:
    def test_fit_recovers_a_planted_line(self):
        alpha, bandwidth = 2e-4, 5e7
        sizes = [1_000.0, 10_000.0, 100_000.0, 500_000.0]
        samples = [(s, 2 * alpha + s / bandwidth) for s in sizes]
        fitted = fit_alpha_beta(samples)
        assert fitted["ok"] is True
        assert fitted["alpha_seconds"] == pytest.approx(alpha, rel=1e-6)
        assert fitted["bandwidth_bytes_per_second"] == pytest.approx(
            bandwidth, rel=1e-6)
        assert fitted["rms_residual_seconds"] == pytest.approx(0.0,
                                                              abs=1e-9)

    def test_fit_refuses_degenerate_samples(self):
        # Each degeneracy yields a diagnostic dict naming the cause
        # instead of None (or a singular-matrix crash in the solver).
        empty = fit_alpha_beta([])
        assert empty["ok"] is False and "2 samples" in empty["reason"]
        single = fit_alpha_beta([(100.0, 0.1)])
        assert single["ok"] is False
        assert "single superstep" in single["reason"]
        # Uniform sizes cannot separate alpha from beta.
        uniform = fit_alpha_beta([(100.0, 0.1), (100.0, 0.2)])
        assert uniform["ok"] is False
        assert "one message size" in uniform["reason"]
        assert uniform["distinct_sizes"] == 1
        # A negative slope is non-physical.
        negative = fit_alpha_beta([(100.0, 0.5), (200.0, 0.1)])
        assert negative["ok"] is False
        assert "not positive" in negative["reason"]
        # Non-finite measurements are reported, not propagated into the
        # least-squares solve.
        nan = fit_alpha_beta([(100.0, float("nan")), (200.0, 0.1)])
        assert nan["ok"] is False and "non-finite" in nan["reason"]

    def test_validate_network_smoke(self):
        report = validate_network(rows=120, features=24, executors=2,
                                  steps=2, seed=3)
        assert report["bit_identical"] is True
        assert report["measured"]["messages"] > 0
        assert report["measured"]["bytes_on_wire"] \
            > report["measured"]["install_bytes"] > 0
        assert report["simulated"]["seconds"] > 0.0
        assert report["ratio_measured_over_simulated"] is not None
        assert report["workload"]["executors"] == 2
