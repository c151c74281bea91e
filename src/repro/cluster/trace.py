"""Simulated-time execution traces (the substrate for gantt charts).

Figure 3 of the paper is a gantt chart: one row per cluster node, colored
bars for activities over time.  We reproduce it by having every trainer emit
:class:`Span` records into a :class:`Trace` as the simulation advances.

Span kinds follow the activities visible in the paper's charts:

* ``compute``   — local gradient / model-update work on an executor,
* ``aggregate`` — combining gradients or models (driver, intermediate
  aggregator of treeAggregate, or partition owner in MLlib*),
* ``send`` / ``recv`` — time attributable to network transfers,
* ``wait``      — idle time at a BSP barrier (the bottleneck made visible),
* ``update``    — the driver applying a gradient to the global model,
* ``barrier``   — zero-or-more bookkeeping marker for stage boundaries,
* ``recovery``  — downtime after an injected executor crash (restart +
  lineage recompute or checkpoint restore; see :mod:`repro.cluster.faults`),
* ``checkpoint`` — writing periodic recovery checkpoints to stable storage.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Trace", "SPAN_KINDS"]

SPAN_KINDS = frozenset(
    {"compute", "aggregate", "send", "recv", "wait", "update", "barrier",
     "recovery", "checkpoint"}
)


@dataclass(frozen=True)
class Span:
    """One colored bar in the gantt chart.

    ``node`` is the node label (``"driver"`` or ``"executor-3"``); times are
    simulated seconds since the start of training.
    """

    node: str
    start: float
    end: float
    kind: str
    step: int = -1
    #: Wire volume (in model/gradient values) the span moved; 0.0 for
    #: non-transfer spans.  Sparse-comm sends record their actual encoded
    #: size here, so traffic counters can be read straight off the trace.
    values: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {self.kind!r}; "
                             f"expected one of {sorted(SPAN_KINDS)}")
        if self.end < self.start:
            raise ValueError(
                f"span ends ({self.end}) before it starts ({self.start})")
        if self.values < 0:
            raise ValueError("span wire values must be non-negative")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An append-only collection of spans with summary helpers."""

    def __init__(self) -> None:
        self._spans: list[Span] = []

    def add(self, node: str, start: float, end: float, kind: str,
            step: int = -1, values: float = 0.0) -> Span:
        """Record one span and return it."""
        span = Span(node=node, start=start, end=end, kind=kind, step=step,
                    values=values)
        self._spans.append(span)
        return span

    def add_lane(self, node: str, start: float,
                 lane: tuple[tuple[float, str, float], ...],
                 step: int = -1) -> float:
        """Record back-to-back ``(seconds, kind, values)`` segments.

        The segments run one after another from ``start``; zero-length
        ones leave no span.  Returns the time the last one ends.
        """
        t = start
        for seconds, kind, values in lane:
            if seconds > 0:
                self.add(node, t, t + seconds, kind, step, values)
            t += seconds
        return t

    def traffic_values(self, node: str | None = None,
                       step: int | None = None) -> float:
        """Total wire volume recorded on spans, optionally filtered."""
        return sum(s.values for s in self._spans
                   if (node is None or s.node == node)
                   and (step is None or s.step == step))

    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def nodes(self) -> list[str]:
        """Node labels in first-appearance order."""
        seen: dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.node, None)
        return list(seen)

    def end_time(self) -> float:
        """Simulated time at which the last span ends."""
        return max((s.end for s in self._spans), default=0.0)

    def spans_for(self, node: str) -> list[Span]:
        return [s for s in self._spans if s.node == node]

    def busy_seconds(self, node: str,
                     kinds: frozenset[str] | None = None) -> float:
        """Total span time on ``node``, optionally restricted to ``kinds``.

        ``wait`` and ``barrier`` spans are never counted as busy, and
        neither is ``recovery`` — it is downtime, not useful work.
        """
        busy_kinds = kinds if kinds is not None else (
            SPAN_KINDS - {"wait", "barrier", "recovery"})
        return sum(s.duration for s in self._spans
                   if s.node == node and s.kind in busy_kinds)

    def wait_seconds(self, node: str) -> float:
        """Total barrier-wait time on ``node``."""
        return sum(s.duration for s in self._spans
                   if s.node == node and s.kind == "wait")

    def recovery_seconds(self, node: str | None = None) -> float:
        """Total failure-recovery downtime, for one node or all nodes."""
        return sum(s.duration for s in self._spans
                   if s.kind == "recovery"
                   and (node is None or s.node == node))

    def utilization(self, node: str) -> float:
        """Busy fraction of the makespan for ``node`` (0 if empty trace)."""
        total = self.end_time()
        if total <= 0:
            return 0.0
        return self.busy_seconds(node) / total

    def kind_totals(self) -> dict[str, float]:
        """Total seconds per span kind across all nodes."""
        totals: dict[str, float] = defaultdict(float)
        for span in self._spans:
            totals[span.kind] += span.duration
        return dict(totals)
