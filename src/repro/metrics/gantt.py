"""Gantt-chart assembly and ASCII rendering (paper Figure 3).

The paper uses gantt charts to make the two bottlenecks visible: colored
bars per cluster node over time.  We render the same information as text
(one row per node, one character per time bucket) and compute the summary
statistics that the figure is meant to convey — driver busy fraction and
mean executor wait fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Trace
from ..engine import DRIVER_LABEL

__all__ = ["GanttSummary", "summarize", "render_ascii", "KIND_CHARS"]

#: Character used per span kind in the ASCII rendering.
KIND_CHARS = {
    "compute": "C",
    "aggregate": "A",
    "send": "s",
    "recv": "r",
    "wait": ".",
    "update": "U",
    "barrier": "|",
    "recovery": "X",
    "checkpoint": "K",
}


@dataclass(frozen=True)
class GanttSummary:
    """The quantitative content of a gantt chart."""

    makespan: float
    driver_busy_fraction: float
    executor_busy_fraction: float
    executor_wait_fraction: float
    per_node_busy: dict[str, float]

    def describe(self) -> str:
        return (f"makespan={self.makespan:.2f}s "
                f"driver_busy={self.driver_busy_fraction:.0%} "
                f"executors_busy={self.executor_busy_fraction:.0%} "
                f"executors_waiting={self.executor_wait_fraction:.0%}")


def summarize(trace: Trace) -> GanttSummary:
    """Compute busy/wait fractions from a trace."""
    makespan = trace.end_time()
    nodes = trace.nodes()
    executors = [n for n in nodes if n != DRIVER_LABEL]
    per_node = {n: trace.utilization(n) for n in nodes}
    driver_busy = per_node.get(DRIVER_LABEL, 0.0)
    if executors and makespan > 0:
        busy = sum(per_node[n] for n in executors) / len(executors)
        wait = sum(trace.wait_seconds(n) for n in executors) / (
            len(executors) * makespan)
    else:
        busy, wait = 0.0, 0.0
    return GanttSummary(makespan=makespan, driver_busy_fraction=driver_busy,
                        executor_busy_fraction=busy,
                        executor_wait_fraction=wait, per_node_busy=per_node)


def render_ascii(trace: Trace, width: int = 100) -> str:
    """Render the trace as a text gantt chart.

    One row per node; each column is a ``makespan / width`` bucket filled
    with the character of the span kind active for the longest time in
    that bucket (``.`` = waiting, space = nothing recorded).
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    makespan = trace.end_time()
    if makespan <= 0:
        return "(empty trace)"
    bucket = makespan / width

    nodes = trace.nodes()
    # Keep the paper's row order: driver on top, then executors.
    if DRIVER_LABEL in nodes:
        nodes = [DRIVER_LABEL] + [n for n in nodes if n != DRIVER_LABEL]

    label_width = max(len(n) for n in nodes)
    lines: list[str] = []
    for node in nodes:
        occupancy = [dict() for _ in range(width)]
        for span in trace.spans_for(node):
            first = min(width - 1, int(span.start / bucket))
            last = min(width - 1, int(max(span.start, span.end - 1e-12)
                                      / bucket))
            for col in range(first, last + 1):
                lo = max(span.start, col * bucket)
                hi = min(span.end, (col + 1) * bucket)
                if hi > lo:
                    cell = occupancy[col]
                    cell[span.kind] = cell.get(span.kind, 0.0) + (hi - lo)
        row = []
        for cell in occupancy:
            if not cell:
                row.append(" ")
            else:
                kind = max(cell, key=cell.get)
                row.append(KIND_CHARS.get(kind, "?"))
        lines.append(f"{node:>{label_width}} |{''.join(row)}|")
    legend = "  ".join(f"{c}={k}" for k, c in KIND_CHARS.items()
                       if c != "|")
    lines.append(f"{'':>{label_width}}  [{legend}]")
    return "\n".join(lines)
