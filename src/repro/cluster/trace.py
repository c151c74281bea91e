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

SPAN_KINDS = frozenset({"compute", "aggregate", "send", "recv", "wait",
                        "update", "barrier", "recovery", "checkpoint"})


def _check_span(start: float, end: float, kind: str, values: float) -> None:
    if kind not in SPAN_KINDS:
        raise ValueError(f"unknown span kind {kind!r}; "
                         f"expected one of {sorted(SPAN_KINDS)}")
    if end < start:
        raise ValueError(f"span ends ({end}) before it starts ({start})")
    if values < 0:
        raise ValueError("span wire values must be non-negative")


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
        _check_span(self.start, self.end, self.kind, self.values)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An append-only collection of spans with summary helpers.

    Each span is stored as one checked ``(node, start, end, kind, step,
    values)`` tuple; :class:`Span` objects are built only when read.
    """

    def __init__(self) -> None:
        self._spans: list[tuple[str, float, float, str, int, float]] = []

    def add(self, node: str, start: float, end: float, kind: str,
            step: int = -1, values: float = 0.0) -> None:
        """Record one span; raises like :class:`Span` on a bad one."""
        _check_span(start, end, kind, values)
        self._spans.append((node, start, end, kind, step, values))

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
        return sum(values for n, _, _, _, s, values in self._spans
                   if (node is None or n == node)
                   and (step is None or s == step))

    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(Span(*row) for row in self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def nodes(self) -> list[str]:
        """Node labels in first-appearance order."""
        return list(dict.fromkeys(row[0] for row in self._spans))

    def end_time(self) -> float:
        """Simulated time at which the last span ends."""
        return max((row[2] for row in self._spans), default=0.0)

    def spans_for(self, node: str) -> list[Span]:
        return [Span(*row) for row in self._spans if row[0] == node]

    def _seconds(self, node: str | None, kinds: frozenset[str]) -> float:
        return sum(end - start for n, start, end, kind, _, _ in self._spans
                   if (node is None or n == node) and kind in kinds)

    def busy_seconds(self, node: str,
                     kinds: frozenset[str] | None = None) -> float:
        """Total span time on ``node``, optionally restricted to ``kinds``.

        ``wait`` and ``barrier`` spans are never counted as busy, and
        neither is ``recovery`` — it is downtime, not useful work.
        """
        busy_kinds = kinds if kinds is not None else (
            SPAN_KINDS - {"wait", "barrier", "recovery"})
        return self._seconds(node, busy_kinds)

    def wait_seconds(self, node: str) -> float:
        """Total barrier-wait time on ``node``."""
        return self._seconds(node, frozenset({"wait"}))

    def recovery_seconds(self, node: str | None = None) -> float:
        """Total failure-recovery downtime, for one node or all nodes."""
        return self._seconds(node, frozenset({"recovery"}))

    def utilization(self, node: str) -> float:
        """Busy fraction of the makespan for ``node`` (0 if empty trace)."""
        total = self.end_time()
        return self.busy_seconds(node) / total if total > 0 else 0.0

    def kind_totals(self) -> dict[str, float]:
        """Total seconds per span kind across all nodes."""
        totals: dict[str, float] = defaultdict(float)
        for _, start, end, kind, _, _ in self._spans:
            totals[kind] += end - start
        return dict(totals)
