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
* the measured-vs-simulated plumbing: ``trainer.last_wire_stats``
  harvest and :mod:`repro.perf.netcheck`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import pickle
import socket as socketlib
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from data.make_golden import SYSTEMS, golden_workload
from repro.core import MLlibStarTrainer
from repro.data import Partition
from repro.engine import shm as shm_store
from repro.engine import wire
from repro.engine import backend as backend_module
from repro.engine.backend import (ExecutionBackend, SerialBackend,
                                  ShmBackend, ThreadBackend, make_backend)
from repro.engine.shm import BroadcastRef, build_store, run_on_shm_partition
from repro.glm import Objective
from repro.perf.netcheck import fit_alpha_beta, validate_network
from test_perf_backend import _assert_matches_serial, shm_segments

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


def _partitions(k: int = 3, cls: type[Partition] = Partition
                ) -> list[Partition]:
    parts = []
    for i in range(k):
        X = sp.random(4, 6, density=0.5, format="csr",
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
        backend = ThreadBackend()
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
            readonly, total = run_on_shm_partition(
                store_id, _probe_broadcast_task, 1, (ref,))
            assert readonly
            assert total == pytest.approx(15.0)
        finally:
            shm_store.discard_worker_state(store_id)
            store.close()

    def test_trampoline_requires_installed_store(self):
        with pytest.raises(RuntimeError, match="not installed"):
            run_on_shm_partition(10**9, _value_task, 0, (0.0,))


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
# wire protocol
# ----------------------------------------------------------------------
class TestWireProtocol:
    def _pair(self):
        left, right = socketlib.socketpair()
        return wire.FrameChannel(left), wire.FrameChannel(right)

    def test_frame_round_trip_counts_bytes(self):
        a, b = self._pair()
        try:
            payload = {"w": np.arange(4.0), "step": 3}
            sent = a.send(wire.TASK, payload)
            kind, received, total = b.recv()
            assert kind == wire.TASK
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
            kind, reply, exchange = a.request(wire.TASK, 21)
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
