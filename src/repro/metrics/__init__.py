"""Metrics: histories, convergence/speedup, gantt charts, result tables."""

from .convergence import (ACCURACY_LOSS, ConvergenceResult,
                          convergence_threshold, evaluate_convergence,
                          speedup)
from .export import history_to_rows, write_histories_json, write_history_csv
from .gantt import KIND_CHARS, GanttSummary, render_ascii, summarize
from .histogram import LatencyHistogram
from .history import HistoryPoint, TrainingHistory
from .reporting import (CommReport, SchedReport, ServingReport,
                        comm_report, format_speedup, format_table,
                        sched_report, serving_report)

__all__ = [
    "TrainingHistory", "HistoryPoint",
    "ACCURACY_LOSS", "convergence_threshold", "ConvergenceResult",
    "evaluate_convergence", "speedup",
    "GanttSummary", "summarize", "render_ascii", "KIND_CHARS",
    "format_table", "format_speedup", "CommReport", "comm_report",
    "LatencyHistogram", "ServingReport", "serving_report",
    "SchedReport", "sched_report",
    "history_to_rows", "write_history_csv", "write_histories_json",
]
