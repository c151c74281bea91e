"""Plain-text result tables for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["format_table", "format_speedup", "CommReport", "comm_report",
           "ServingReport", "serving_report", "SchedReport", "sched_report"]


def format_table(headers: list[str], rows: list[list[object]],
                 title: str = "") -> str:
    """Render an aligned monospace table.

    Floats are shown with 4 significant digits; None renders as ``-``.
    """
    def fmt(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


def format_speedup(value: float | None) -> str:
    """Speedups print as ``12.3x``; non-convergence prints as ``n/c``."""
    if value is None:
        return "n/c"
    return f"{value:.3g}x"


@dataclass(frozen=True)
class CommReport:
    """Wire-volume and priced-seconds accounting for one training run.

    Aggregated over the run's :class:`~repro.engine.CommRecord` entries;
    ``by_phase`` maps each phase name to its (dense values, wire values)
    totals, in first-appearance order.
    """

    system: str
    phases: int
    steps: int
    dense_values: float
    wire_values: float
    comm_seconds: float
    dense_comm_seconds: float
    by_phase: tuple[tuple[str, float, float], ...]

    @property
    def compression(self) -> float:
        """Dense-over-wire volume ratio across the whole run."""
        if self.wire_values <= 0:
            return 1.0
        return self.dense_values / self.wire_values

    @property
    def speedup(self) -> float:
        """Dense-over-wire priced communication-seconds ratio."""
        if self.comm_seconds <= 0:
            return 1.0
        return self.dense_comm_seconds / self.comm_seconds

    def describe(self) -> str:
        lines = [
            f"wire volume {self.wire_values:.0f} values vs "
            f"{self.dense_values:.0f} dense "
            f"({self.compression:.3g}x compression) over "
            f"{self.phases} comm phases",
            f"priced communication {self.comm_seconds:.4f}s vs "
            f"{self.dense_comm_seconds:.4f}s dense "
            f"({self.speedup:.3g}x)",
        ]
        for phase, dense, wire in self.by_phase:
            ratio = dense / wire if wire > 0 else 1.0
            lines.append(f"  {phase}: {wire:.0f} of {dense:.0f} dense "
                         f"values ({ratio:.3g}x)")
        return "\n".join(lines)


def comm_report(result) -> CommReport:
    """Summarize a ``TrainResult``'s communication wire accounting."""
    records = result.comm
    by_phase: dict[str, list[float]] = {}
    for r in records:
        totals = by_phase.setdefault(r.phase, [0.0, 0.0])
        totals[0] += r.dense_values
        totals[1] += r.wire_values
    steps = len({r.step for r in records})
    return CommReport(
        system=result.history.system,
        phases=len(records),
        steps=steps,
        dense_values=sum(r.dense_values for r in records),
        wire_values=sum(r.wire_values for r in records),
        comm_seconds=sum(r.seconds for r in records),
        dense_comm_seconds=sum(r.dense_seconds for r in records),
        by_phase=tuple((phase, totals[0], totals[1])
                       for phase, totals in by_phase.items()))


@dataclass(frozen=True)
class ServingReport:
    """SLO accounting for one :class:`repro.serve.PredictionService` run.

    All times are simulated seconds from the serving cost model; QPS is
    completed requests over the makespan (first arrival to last
    completion).
    """

    offered: int
    completed: int
    shed: int
    qps: float
    mean_batch: float
    max_queue_depth: int
    p50: float
    p95: float
    p99: float
    disagreements: int | None = None
    shadow_rows: int | None = None
    shadow_p99: float | None = None

    @property
    def shed_rate(self) -> float:
        """Share of offered requests rejected at admission."""
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def disagreement_rate(self) -> float | None:
        """Share of shadow-scored rows where the versions disagree."""
        if self.shadow_rows is None or self.disagreements is None:
            return None
        if self.shadow_rows == 0:
            return 0.0
        return self.disagreements / self.shadow_rows

    def describe(self) -> str:
        lines = [
            f"offered {self.offered}, completed {self.completed}, "
            f"shed {self.shed} ({self.shed_rate:.1%})",
            f"throughput {self.qps:.1f} predictions/s (simulated), "
            f"mean batch {self.mean_batch:.2f}, "
            f"max queue depth {self.max_queue_depth}",
            f"latency p50 {self.p50:.6f}s  p95 {self.p95:.6f}s  "
            f"p99 {self.p99:.6f}s",
        ]
        rate = self.disagreement_rate
        if rate is not None:
            lines.append(
                f"shadow: {self.disagreements}/{self.shadow_rows} "
                f"disagreements ({rate:.2%}), "
                f"shadow p99 {self.shadow_p99 or 0.0:.6f}s")
        return "\n".join(lines)


def serving_report(result) -> ServingReport:
    """Summarize a ``ServingResult`` (duck-typed)."""
    latency = result.latency.summary()
    shadow = getattr(result, "shadow", None)
    return ServingReport(
        offered=result.offered,
        completed=result.completed,
        shed=len(result.shed),
        qps=result.qps,
        mean_batch=result.mean_batch,
        max_queue_depth=result.max_queue_depth,
        p50=latency.get("p50", 0.0),
        p95=latency.get("p95", 0.0),
        p99=latency.get("p99", 0.0),
        disagreements=None if shadow is None else shadow.disagreements,
        shadow_rows=None if shadow is None else shadow.rows,
        shadow_p99=None if shadow is None else shadow.p99)


@dataclass(frozen=True)
class SchedReport:
    """Cluster-scheduler run summary (``repro sched run`` / the bench).

    Goodput counts completed training supersteps per global simulated
    second — the scheduler-level analog of a single run's steps/second,
    summed over every job the pool multiplexed.  Utilization is the
    share of executor-seconds the pool spent actually held by jobs
    (compute, re-partition, and checkpoint time all count; idle and
    fragmentation losses do not).
    """

    policy: str
    jobs: int
    finished: int
    preemptions: int
    resizes: int
    makespan: float
    total_executors: int
    total_steps: int
    goodput: float
    utilization: float
    mean_queue_wait: float
    max_queue_wait: float
    jct_p50: float
    jct_p95: float

    def describe(self) -> str:
        return "\n".join([
            f"policy {self.policy}: {self.finished}/{self.jobs} jobs "
            f"finished, {self.preemptions} preemptions, "
            f"{self.resizes} resizes",
            f"makespan {self.makespan:.4f}s on {self.total_executors} "
            f"executors, goodput {self.goodput:.2f} steps/s, "
            f"utilization {self.utilization:.1%}",
            f"queue wait mean {self.mean_queue_wait:.4f}s "
            f"max {self.max_queue_wait:.4f}s; "
            f"JCT p50 {self.jct_p50:.4f}s p95 {self.jct_p95:.4f}s",
        ])


def sched_report(result) -> SchedReport:
    """Summarize a ``SchedResult`` (duck-typed, like ``serving_report``)."""
    from .histogram import LatencyHistogram

    jobs = [j for j in result.jobs if j.state != "cancelled"]
    finished = [j for j in jobs if j.state == "finished"]
    makespan = result.makespan
    total_steps = sum(j.steps_done for j in jobs)
    held = sum(j.executor_seconds for j in jobs)
    capacity = result.config.total_executors * makespan
    waits = [j.queue_wait for j in jobs]
    hist = LatencyHistogram()
    for job in finished:
        hist.record(max(job.jct, 1.0e-9))
    summary = hist.summary() if finished else {}
    return SchedReport(
        policy=result.config.policy,
        jobs=len(jobs),
        finished=len(finished),
        preemptions=sum(j.preemptions for j in jobs),
        resizes=sum(j.resizes for j in jobs),
        makespan=makespan,
        total_executors=result.config.total_executors,
        total_steps=total_steps,
        goodput=total_steps / makespan if makespan > 0 else 0.0,
        utilization=held / capacity if capacity > 0 else 0.0,
        mean_queue_wait=sum(waits) / len(waits) if waits else 0.0,
        max_queue_wait=max(waits, default=0.0),
        jct_p50=summary.get("p50", 0.0),
        jct_p95=summary.get("p95", 0.0))
