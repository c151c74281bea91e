"""Event-driven multi-tenant cluster scheduler with elastic training.

:class:`ClusterScheduler` multiplexes one shared pool of simulated
executors across a queue of training jobs.  Each running job trains on
its *own* sub-cluster (homogeneous Cluster 1 hardware at the granted
gang width, so a width change keeps per-executor hardware identical)
through a :class:`~repro.core.TrainingSession`, which pauses at
every superstep barrier — the only points where the scheduler may act on
a job.  Between barriers a job is untouchable, exactly like a BSP system
whose workers are mid-superstep.

The simulation is a deterministic discrete-event loop over a single
global clock:

* **arrive** — a job enters the queue at its spec'd arrival second.
* **barrier** — a running job reached its next superstep barrier.  The
  scheduler accounts the step and then decides: finish, honor a pending
  preemption (checkpoint, then free the gang), apply an elastic width
  change (close the session, re-partition at the new width, resume from
  the barrier weights), or simply run the next superstep.
* **release** — a preempted job's checkpoint write completed; its gang
  block returns to the pool and the job re-queues.

After every pool-changing event the dispatcher admits queued jobs in
policy order (:func:`~repro.sched.policy.dispatch_order`), steers
running elastic jobs toward their fair shares, and — under ``preempt`` —
marks a victim when a strictly-higher-priority job is starved.  A
work-conservation invariant is checked after every dispatch: no queued
job may fit in the largest free contiguous block.

Determinism contract: same :class:`SchedConfig` + same submitted specs
replay to a byte-identical :class:`~repro.sched.log.SchedLog`, and a
fixed-width job run through the scheduler (no preemption) produces a
:class:`~repro.core.TrainResult` bit-identical — weights and history —
to the same spec run standalone, because draining a session *is* the
``fit`` implementation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec, Trace, cluster1
from ..core import TrainResult
from .config import SchedConfig
from .job import Job, JobSpec
from .log import SchedLog
from .policy import (JobView, dispatch_admission_width, dispatch_fair_shares,
                     dispatch_order, dispatch_preemption_victim)
from .pool import ExecutorPool

__all__ = ["ClusterScheduler", "SchedResult"]


@dataclass(frozen=True)
class SchedResult:
    """Everything one scheduler run produced."""

    config: SchedConfig
    #: All jobs in submission order (finished, cancelled, or starved).
    jobs: tuple[Job, ...]
    #: Per-job training results, keyed by job name (finished jobs only).
    results: dict[str, TrainResult] = field(default_factory=dict)
    log: SchedLog = field(default_factory=SchedLog)
    #: Per-job gantt rows (wait / compute / checkpoint / recovery spans
    #: on the global clock), rendered by ``repro.metrics.gantt``.
    trace: Trace = field(default_factory=Trace)
    #: Global second at which the last event fired.
    makespan: float = 0.0

    @property
    def total_steps(self) -> int:
        """Supersteps completed across all jobs (the goodput numerator)."""
        return sum(j.steps_done for j in self.jobs)


class ClusterScheduler:
    """Deterministic event-driven scheduler over a shared executor pool.

    Parameters
    ----------
    config:
        Run control (policy, elasticity, preemption, pool size, seed).
    """

    def __init__(self, config: SchedConfig | None = None) -> None:
        self.config = config if config is not None else SchedConfig()
        self.pool = ExecutorPool(self.config.total_executors)
        self.log = SchedLog()
        self.trace = Trace()
        self.now = 0.0
        self._jobs: list[Job] = []
        self._by_name: dict[str, Job] = {}
        self._results: dict[str, TrainResult] = {}
        self._sessions: dict = {}
        self._datasets: dict = {}
        self._events: list[tuple[float, int, str, str]] = []
        self._event_seq = 0
        self._arrived: set[str] = set()
        self._ran = False

    # ------------------------------------------------------------------
    # queue API
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Add one job to the arrival queue (before :meth:`run`)."""
        if self._ran:
            raise RuntimeError("scheduler run() already started")
        if spec.name in self._by_name:
            raise ValueError(f"duplicate job name {spec.name!r}")
        lo, hi = spec.width_range
        if lo > self.config.total_executors:
            raise ValueError(
                f"job {spec.name!r} needs at least {lo} executors but the "
                f"pool has only {self.config.total_executors}")
        job = Job(spec=spec, seq=len(self._jobs),
                  queued_since=spec.arrival)
        self._jobs.append(job)
        self._by_name[spec.name] = job
        return job

    def cancel(self, name: str) -> Job:
        """Withdraw a job before the run starts."""
        if self._ran:
            raise RuntimeError("scheduler run() already started")
        job = self._by_name.get(name)
        if job is None:
            raise ValueError(f"no job named {name!r}")
        job.state = "cancelled"
        return job

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self) -> SchedResult:
        """Play the whole schedule; one-shot per scheduler instance."""
        if self._ran:
            raise RuntimeError("scheduler run() is one-shot; build a new "
                               "ClusterScheduler to run again")
        self._ran = True
        for job in self._jobs:
            if job.state == "cancelled":
                self.log.event(job.spec.arrival, "cancel", job.name)
                continue
            self._push(job.spec.arrival, "arrive", job.name)
        while self._events:
            time, _, kind, name = heapq.heappop(self._events)
            self.now = time
            job = self._by_name[name]
            if kind == "arrive":
                self._arrived.add(name)
                self.log.event(time, "arrive", name,
                               priority=job.spec.priority,
                               executors=job.spec.executors)
                self._dispatch()
            elif kind == "barrier":
                self._on_barrier(job)
            elif kind == "release":
                self._on_release(job)
            else:  # pragma: no cover - event kinds are internal
                raise RuntimeError(f"unknown event kind {kind!r}")
        return SchedResult(config=self.config, jobs=tuple(self._jobs),
                           results=dict(self._results), log=self.log,
                           trace=self.trace, makespan=self.now)

    def _push(self, time: float, kind: str, name: str) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (time, self._event_seq, kind, name))

    # ------------------------------------------------------------------
    # barrier handling
    # ------------------------------------------------------------------
    def _on_barrier(self, job: Job) -> None:
        session = self._sessions[job.name]
        if session.finished:
            self._finish(job, session)
            return
        if self.config.preempt and job.preempt_requested:
            self._checkpoint_and_release(job, session)
            return
        overhead = 0.0
        shrunk = False
        if (self.config.elastic and job.spec.elastic
                and job.target_width is not None
                and job.steps_done % self.config.resize_every == 0):
            new_width = self._achievable_width(job)
            if new_width is not None:
                shrunk = new_width < job.width
                overhead = self._apply_resize(job, new_width)
        self._start_superstep(job, overhead)
        if shrunk:
            # Shrinking returned slots to the pool; queued jobs may fit.
            self._dispatch()

    def _finish(self, job: Job, session) -> None:
        self._results[job.name] = session.result()
        job.converged = session.converged
        job.diverged = session.diverged
        session.close()
        del self._sessions[job.name]
        self.pool.release(job.name)
        job.block = None
        job.state = "finished"
        job.finish_time = self.now
        self.log.event(self.now, "finish", job.name, steps=job.steps_done,
                       clock=job.clock, converged=job.converged,
                       diverged=job.diverged)
        self._dispatch()

    def _checkpoint_and_release(self, job: Job, session) -> None:
        """Preemption, step 1: write the barrier checkpoint, keep the gang
        until the write completes, then hand off to a ``release`` event."""
        trainer = session.trainer
        before = session.clock()
        trainer._checkpoint_phase(session.step, job.spec.n_features)
        dt = session.clock() - before
        job.clock = session.clock()
        job.weights = np.array(session.w, copy=True)
        session.close()
        del self._sessions[job.name]
        if dt > 0:
            self.trace.add(job.name, self.now, self.now + dt, "checkpoint",
                           job.steps_done)
        job.executor_seconds += job.width * dt
        self.log.event(self.now, "checkpoint", job.name,
                       step=job.steps_done, seconds=dt)
        self._push(self.now + dt, "release", job.name)

    def _on_release(self, job: Job) -> None:
        """Preemption, step 2: the gang block returns to the pool."""
        self.pool.release(job.name)
        job.block = None
        job.state = "preempted"
        job.preempt_requested = False
        job.preemptions += 1
        job.queued_since = self.now
        self.log.event(self.now, "preempt", job.name, step=job.steps_done)
        self._dispatch()

    # ------------------------------------------------------------------
    # superstep execution
    # ------------------------------------------------------------------
    def _start_superstep(self, job: Job, overhead: float = 0.0) -> None:
        """Run one superstep now; schedule its barrier at completion time.

        ``overhead`` is simulated seconds of re-partition/restore work
        already folded into the session's ``clock_offset``; it shows up
        as a ``recovery`` span before the compute span.
        """
        session = self._sessions[job.name]
        start = self.now
        step = session.run_step()
        after = session.clock()
        dt = after - job.clock
        job.executor_seconds += job.width * dt
        if overhead > 0:
            self.trace.add(job.name, start, start + overhead, "recovery",
                           step - 1)
        self.trace.add(job.name, start + overhead, start + dt, "compute",
                       step)
        job.clock = after
        job.steps_done = step
        job.weights = np.array(session.w, copy=True)
        self._push(start + dt, "barrier", job.name)

    # ------------------------------------------------------------------
    # admission / steering
    # ------------------------------------------------------------------
    def _view(self, job: Job) -> JobView:
        lo, hi = job.spec.width_range
        return JobView(name=job.name, priority=job.spec.priority,
                       arrival=job.spec.arrival, seq=job.seq,
                       width=job.width, min_width=lo, max_width=hi)

    def _dispatch(self) -> None:
        """Admit, steer, and (optionally) preempt at the current instant."""
        running = [j for j in self._jobs if j.state == "running"]
        waiting = [j for j in self._jobs
                   if j.state in ("queued", "preempted")
                   and j.name in self._arrived]

        # Steer running elastic jobs toward their policy shares; the new
        # targets take effect at each job's own next barrier.
        if self.config.elastic:
            if self.config.policy == "fair":
                shares = dispatch_fair_shares(
                    self.config.total_executors,
                    [self._view(j) for j in running + waiting])
                for j in running:
                    j.target_width = shares[j.name]
            else:
                for j in running:
                    j.target_width = j.spec.width_range[1]

        # Admit waiting jobs in policy order; a job that cannot get its
        # minimum gang contiguously stays queued and later jobs may
        # backfill around it.
        views = [self._view(j) for j in waiting]
        starved: list[Job] = []
        for idx in dispatch_order(self.config.policy, views):
            job = waiting[idx]
            if self.config.policy == "fair" and self.config.elastic:
                shares = dispatch_fair_shares(
                    self.config.total_executors,
                    [self._view(j) for j in running + [job]])
                target = shares[job.name]
            else:
                target = job.spec.executors
            width = dispatch_admission_width(
                self._view(job), target, self.pool.largest_free_block())
            if width > 0:
                self._admit(job, width)
                running.append(job)
            else:
                starved.append(job)

        # A starved strictly-higher-priority job may request preemption
        # of the lightest running job (acted on at the victim's barrier).
        if self.config.preempt:
            for job in starved:
                candidates = [j for j in running
                              if not j.preempt_requested
                              and j.state == "running"]
                victim_idx = dispatch_preemption_victim(
                    self._view(job), [self._view(j) for j in candidates])
                if victim_idx is not None:
                    victim = candidates[victim_idx]
                    victim.preempt_requested = True
                    self.log.event(self.now, "preempt_request", victim.name,
                                   beneficiary=job.name)

        # Work conservation: nothing admissible may be left waiting.
        largest = self.pool.largest_free_block()
        for job in starved:
            if job.spec.width_range[0] <= largest:
                raise RuntimeError(
                    f"work-conservation violation: job {job.name!r} "
                    f"(min width {job.spec.width_range[0]}) left queued "
                    f"with a free block of {largest} executors")

    def _admit(self, job: Job, width: int) -> None:
        job.block = self.pool.allocate(job.name, width)
        if self.now > job.queued_since:
            self.trace.add(job.name, job.queued_since, self.now, "wait",
                           job.steps_done)
            job.queue_wait += self.now - job.queued_since
        if job.first_start is None:
            job.first_start = self.now
        resumed = job.steps_done > 0
        overhead = self._open_segment(job, width)
        job.state = "running"
        self.log.event(self.now, "resume" if resumed else "admit", job.name,
                       width=width, block=f"{job.block[0]}-{job.block[1]}",
                       step=job.steps_done, overhead=overhead)
        self._start_superstep(job, overhead)

    # ------------------------------------------------------------------
    # segments (one trainer + session per held width)
    # ------------------------------------------------------------------
    def _dataset(self, job: Job):
        data = self._datasets.get(job.name)
        if data is None:
            data = job.spec.dataset()
            self._datasets[job.name] = data
        return data

    @staticmethod
    def _repartition_seconds(dataset, width: int,
                             cluster: ClusterSpec) -> float:
        """Price re-partitioning ``dataset`` across ``width`` executors:
        the full sparse matrix crosses the network twice (shuffle write +
        read) with receivers draining in parallel."""
        values = 2.0 * dataset.nnz / width
        return cluster.network.transfer_seconds(values)

    def _open_segment(self, job: Job, width: int) -> float:
        """Build trainer + session for one constant-width segment.

        Returns the overhead (simulated seconds) charged before the
        segment's first superstep: zero for a fresh job, re-partition
        cost for a width change, plus checkpoint-restore for a resume
        after preemption.
        """
        cluster = cluster1(executors=width, seed=self.config.seed)
        trainer = job.spec.make_trainer(cluster)
        dataset = self._dataset(job)
        overhead = 0.0
        if job.steps_done > 0:
            overhead = self._repartition_seconds(dataset, width, cluster)
            if job.state == "preempted":
                overhead += cluster.network.transfer_seconds(
                    job.spec.n_features)
        session = trainer.open_session(
            dataset, initial_weights=job.weights,
            start_step=job.steps_done, history=job.history,
            clock_offset=job.clock + overhead)
        job.history = session.history
        self._sessions[job.name] = session
        return overhead

    def _achievable_width(self, job: Job) -> int | None:
        """Width the pending elastic target can actually reach, or None
        when no change should happen at this barrier."""
        lo, hi = job.spec.width_range
        desired = min(max(job.target_width, lo), hi)
        if desired > job.width:
            desired = min(desired, self.pool.max_resize_width(job.name))
        if desired < lo or desired == job.width:
            return None
        return desired

    def _apply_resize(self, job: Job, new_width: int) -> float:
        """Close the session, move the gang, reopen at the new width."""
        session = self._sessions[job.name]
        old_width = job.width
        job.clock = session.clock()
        job.weights = np.array(session.w, copy=True)
        session.close()
        del self._sessions[job.name]
        job.block = self.pool.resize(job.name, new_width)
        overhead = self._open_segment(job, new_width)
        job.resizes += 1
        self.log.event(self.now, "resize", job.name, old=old_width,
                       new=new_width,
                       block=f"{job.block[0]}-{job.block[1]}",
                       step=job.steps_done, overhead=overhead)
        return overhead
