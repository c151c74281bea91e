"""Fault injection and recovery policies for the simulated cluster.

Spark's headline robustness claim — surviving executor loss via lineage
recomputation and checkpointing — is absent from the paper's evaluation,
which assumes failure-free runs.  This module supplies the missing failure
models so the engines can price recovery and answer the obvious question:
does MLlib*'s driver-free AllReduce stay ahead of driver-centric
SendGradient once recovery costs are included?

Design rules, mirroring the straggler machinery:

* **Failures change the clock, never the weights.**  A crashed executor's
  work for the superstep is voided and deterministically redone, so every
  run produces the same iterates with and without injected failures — only
  simulated time and the trace differ.
* **Everything is seeded.**  :class:`FailureModel` derives each random
  draw from ``(seed, step, executor, attempt)``, so outcomes are
  reproducible and independent of evaluation order, and scripts exact
  "executor e dies at step s" events for tests and benchmarks.
* **Recovery is a policy.**  :class:`RecoveryPolicy` caps retries and
  chooses between lineage recomputation (Spark's default) and restoring
  from a periodic checkpoint; exceeding the retry cap raises
  :class:`RecoveryError` — the run is lost, as it would be on a real
  cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trace import Trace

__all__ = [
    "FAILURE_PHASES",
    "FailureEvent",
    "FailureRecord",
    "FailureModel",
    "RecoveryPolicy",
    "RecoveryError",
    "CrashRecovery",
    "parse_failure_schedule",
    "build_failure_model",
]

#: Phases a crash can be attributed to.  ``compute`` covers local work in
#: both engines; ``aggregate`` is MLlib's fan-in; the two shuffle phases
#: belong to MLlib*'s AllReduce.
FAILURE_PHASES = ("compute", "aggregate", "reduce_scatter", "all_gather")

#: Where a crash lands within the attempt's work: half of it was spent
#: (and wasted) before the executor died.
CRASH_AT_FRACTION = 0.5


class RecoveryError(RuntimeError):
    """An executor kept failing past the policy's retry budget."""


@dataclass(frozen=True)
class FailureEvent:
    """One scripted (or sampled) executor crash.

    ``repeats`` makes the same crash recur on consecutive retry attempts,
    which is how retry exhaustion is scripted.
    """

    executor: int
    step: int
    phase: str = "compute"
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.executor < 0:
            raise ValueError("executor index must be non-negative")
        if self.step < 1:
            raise ValueError("steps are 1-based; got step "
                             f"{self.step}")
        if self.phase not in FAILURE_PHASES:
            raise ValueError(f"unknown failure phase {self.phase!r}; "
                             f"expected one of {FAILURE_PHASES}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


@dataclass(frozen=True)
class FailureRecord:
    """One materialized failure, logged by an engine as it happens.

    ``time`` is the simulated second at which the crash hit; tests assert
    that every ``recovery`` span in the trace starts at a logged crash.
    """

    node: str
    step: int
    phase: str
    time: float
    attempt: int


@dataclass(frozen=True)
class FailureModel:
    """Decides whether an attempt crashes: scripted events, then a rate.

    ``crash_event(step, phase, executor, attempt)`` is consulted by the
    engines before *every* attempt (attempt 0 is the first try, attempt
    ``n`` the n-th retry); returning an event voids that attempt's work.
    The first of ``events`` aimed at that (step, phase, executor) fires
    while ``attempt < repeats``.  Otherwise a compute-phase attempt
    crashes with probability ``rate``, drawn through a
    :class:`numpy.random.SeedSequence` keyed by ``(seed, step, executor,
    attempt)``: a pure function of those four integers, reproducible and
    unaffected by how many other draws happened first.  The default,
    ``FailureModel()``, never fails.
    """

    rate: float = 0.0
    seed: int = 0
    events: tuple[FailureEvent, ...] = ()
    #: False when nothing can fail; lets engines skip the failure path
    #: entirely so fault-free runs stay bit-identical.
    enabled: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("failure rate must be in [0, 1)")
        object.__setattr__(self, "enabled",
                           self.rate > 0.0 or bool(self.events))

    def crash_event(self, step: int, phase: str, executor: int,
                    attempt: int) -> FailureEvent | None:
        for event in self.events:
            if (event.executor == executor and event.step == step
                    and event.phase == phase and attempt < event.repeats):
                return event
        if phase != "compute" or self.rate <= 0.0:
            return None
        entropy = (abs(int(self.seed)), step, executor, attempt)
        draw = np.random.default_rng(
            np.random.SeedSequence(entropy)).random()
        if draw >= self.rate:
            return None
        return FailureEvent(executor=executor, step=step, phase="compute")

    def validate_executors(self, num_executors: int) -> None:
        """Reject scripted events that can never fire on this cluster.

        The engines consult ``crash_event`` per *existing* executor, so a
        schedule like ``"9@3"`` on an 8-executor cluster would be
        silently inert: the run would measure a failure-free run.
        """
        if num_executors < 1:
            raise ValueError("cluster must have at least one executor")
        for event in self.events:
            if event.executor >= num_executors:
                raise ValueError(
                    f"failure schedule targets executor {event.executor} "
                    f"at step {event.step}, but the cluster has only "
                    f"{num_executors} executors (indices 0.."
                    f"{num_executors - 1}); the event could never fire")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How an engine responds to a crash.

    Parameters
    ----------
    max_retries:
        Recoveries allowed per (executor, step, phase).  A crash on the
        attempt after the last permitted retry raises
        :class:`RecoveryError` — the training run is lost.
    checkpoint_every:
        Write a checkpoint every this many steps and restore from the
        most recent one — cheaper after a crash, but checkpoints cost
        time to write (and until the first exists, restores fall back to
        lineage).  0 never writes one: every recovery is Spark's lineage
        story, the restarted executor rebuilding its cached partition
        from source (priced by the engine's per-executor reload cost)
        before redoing the step's work.
    restart_seconds:
        Fixed executor restart/reschedule delay paid on every recovery
        (container re-launch, task rescheduling, backoff).
    """

    max_retries: int = 2
    checkpoint_every: int = 0
    restart_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.restart_seconds < 0:
            raise ValueError("restart_seconds must be non-negative")

    @property
    def writes_checkpoints(self) -> bool:
        return self.checkpoint_every > 0


class CrashRecovery:
    """The crash/retry loop and restore-cost rule both engines share.

    One instance per engine: it logs materialized crashes in
    :attr:`failures`, knows what a recovery costs (restart plus the
    latest checkpoint's read-back, or the executor's lineage recompute
    until one exists) and runs an executor's work for a phase through
    the failure model — voiding the attempt at the crash point, pricing
    the downtime as a ``recovery`` span and redoing the work.
    """

    def __init__(self, faults: FailureModel, recovery: RecoveryPolicy,
                 trace: Trace, num_executors: int) -> None:
        self.faults = faults
        self.recovery = recovery
        self.trace = trace
        #: Materialized crashes, in simulated-time order.
        self.failures: list[FailureRecord] = []
        self._reload_seconds = [0.0] * num_executors
        #: Cost of reading the latest checkpoint back (None until one
        #: has been written); set by the engines' ``checkpoint_phase``.
        self.checkpoint_seconds: float | None = None

    def set_reload_costs(self, reload_seconds: list[float]) -> None:
        """Install the per-executor lineage-recompute cost used on crashes."""
        if len(reload_seconds) != len(self._reload_seconds):
            raise ValueError(
                f"expected {len(self._reload_seconds)} reload costs, "
                f"got {len(reload_seconds)}")
        if any(s < 0 for s in reload_seconds):
            raise ValueError("reload seconds must be non-negative")
        self._reload_seconds = [float(s) for s in reload_seconds]

    def downtime(self, executor: int) -> float:
        """Seconds one recovery costs: restart + (checkpoint | lineage)."""
        base = self.recovery.restart_seconds
        if (self.recovery.writes_checkpoints
                and self.checkpoint_seconds is not None):
            return base + self.checkpoint_seconds
        return base + self._reload_seconds[executor]

    def run(self, label: str, executor: int, start: float,
            lane: tuple[tuple[float, str, float], ...],
            retry_lane: tuple[tuple[float, str, float], ...],
            step: int, phase: str, step_offset: int = 0) -> float:
        """Run one executor's phase work with crash/retry handling.

        Lanes are ``(seconds, kind, values)`` segments: the first
        attempt runs ``lane``; every post-recovery attempt runs
        ``retry_lane`` (which may prepend recomputation work).  A
        segment cut short by a crash delivered nothing and records no
        traffic.  The failure model is consulted at ``step +
        step_offset`` (failure schedules are 1-based; the parameter
        server counts steps from 0) while spans and records keep the
        engine's own ``step``.  Returns the executor's finish time;
        raises :class:`RecoveryError` once the retry budget is exhausted.
        """
        t = start
        attempt = 0
        current = lane
        while True:
            event = self.faults.crash_event(step + step_offset, phase,
                                            executor, attempt)
            if event is None:
                return self.trace.add_lane(label, t, current, step)
            total = sum(seconds for seconds, _, _ in current)
            crash_at = t + total * CRASH_AT_FRACTION
            cursor = t
            for seconds, kind, values in current:  # work before the crash
                end = min(cursor + seconds, crash_at)
                if end > cursor:
                    self.trace.add(
                        label, cursor, end, kind, step,
                        values if cursor + seconds <= crash_at else 0.0)
                cursor += seconds
                if cursor >= crash_at:
                    break
            self.failures.append(FailureRecord(
                node=label, step=step, phase=phase, time=crash_at,
                attempt=attempt))
            if attempt >= self.recovery.max_retries:
                raise RecoveryError(
                    f"{label} crashed in the {phase} phase of step "
                    f"{step + step_offset} on attempt {attempt + 1}, "
                    f"exhausting the retry budget "
                    f"(max_retries={self.recovery.max_retries})")
            downtime = self.downtime(executor)
            if downtime > 0:
                self.trace.add(label, crash_at, crash_at + downtime,
                               "recovery", step)
            t = crash_at + downtime
            attempt += 1
            current = retry_lane


def parse_failure_schedule(spec: str) -> list[FailureEvent]:
    """Parse a schedule string into :class:`FailureEvent` entries.

    Grammar (comma-separated entries)::

        EXECUTOR@STEP[:PHASE][xREPEATS]

    Examples::

        "3@12"                  executor 3 dies at step 12 (compute phase)
        "1@5:reduce_scatter"    executor 1 dies mid Reduce-Scatter
        "0@2x5"                 executor 0 dies 5 attempts in a row at
                                step 2 (exhausts a max_retries < 5 budget)
    """
    events: list[FailureEvent] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        head, sep, rest = entry.partition("@")
        if not sep:
            raise ValueError(
                f"bad failure schedule entry {entry!r}: expected "
                "EXECUTOR@STEP[:PHASE][xREPEATS]")
        repeat_text = "1"
        phase = "compute"
        if "x" in rest:
            rest, _, repeat_text = rest.rpartition("x")
        if ":" in rest:
            rest, _, phase = rest.partition(":")
        try:
            executor = int(head)
            step = int(rest)
            repeats = int(repeat_text)
        except ValueError:
            raise ValueError(
                f"bad failure schedule entry {entry!r}: executor, step "
                "and repeats must be integers in "
                "EXECUTOR@STEP[:PHASE][xREPEATS]") from None
        events.append(FailureEvent(executor=executor, step=step,
                                   phase=phase, repeats=repeats))
    return events


def build_failure_model(rate: float = 0.0, schedule: str | None = None,
                        seed: int = 0,
                        num_executors: int | None = None) -> FailureModel:
    """The failure model of trainer-config primitives.

    ``num_executors`` (when known at build time) validates scripted
    events against the cluster size immediately — a schedule targeting a
    nonexistent executor raises :class:`ValueError` here rather than
    being silently inert.  The engines re-validate at setup regardless,
    covering models constructed directly.
    """
    model = FailureModel(rate=rate, seed=seed, events=tuple(
        parse_failure_schedule(schedule) if schedule else ()))
    if num_executors is not None and model.enabled:
        model.validate_executors(num_executors)
    return model
