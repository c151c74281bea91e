"""Latency histograms for the serving layer.

A :class:`LatencyHistogram` records per-request (simulated) latencies and
answers the SLO question with **exact quantiles**: p50/p95/p99 computed
from the raw samples with a deterministic nearest-rank rule (no
interpolation, so results are bit-identical across platforms and library
versions).

Samples are simulated seconds (the repo has no wall clock — see rule
DET001), but nothing here assumes a time unit.
"""

from __future__ import annotations

import math

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Streaming latency recorder with exact nearest-rank quantiles."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._total = 0.0
        # Sorted-sample cache for the percentile methods; invalidated on
        # record so summary() doesn't re-sort once per percentile.
        self._sorted: list[float] | None = None

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Add one latency sample (must be non-negative)."""
        if value < 0:
            raise ValueError("latency cannot be negative")
        self._samples.append(value)
        self._total += value
        self._sorted = None

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._total / len(self._samples)

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank quantile of the raw samples (q in [0, 100]).

        ``percentile(50)`` of ``[1, 2, 3, 4]`` is 2: the smallest sample
        whose rank covers q% of the data.  Deterministic and exact — a
        value that was actually observed, never an interpolation.
        """
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if not self._samples:
            raise ValueError("no samples recorded")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        """The SLO numbers as a plain dict (JSON-exportable)."""
        if not self._samples:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        for value in other._samples:
            self.record(value)
