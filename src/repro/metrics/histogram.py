"""Latency histograms for the serving layer.

A :class:`LatencyHistogram` records per-request (simulated) latencies and
answers two questions:

* **exact quantiles** — p50/p95/p99 computed from the raw samples with a
  deterministic nearest-rank rule (no interpolation, so results are
  bit-identical across platforms and library versions);
* **shape** — log-spaced bucket counts for display, the classic
  "how wide is the tail" view SLO dashboards plot.

Samples are simulated seconds (the repo has no wall clock — see rule
DET001), but nothing here assumes a time unit.
"""

from __future__ import annotations

import math
from bisect import bisect_left

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Streaming latency recorder with exact nearest-rank quantiles.

    Parameters
    ----------
    lo:
        Lower edge of the first display bucket; smaller samples land in
        an underflow bucket.
    decades:
        Number of decades the bucket grid spans above ``lo``.
    buckets_per_decade:
        Display resolution (10 gives ~25% wide buckets).
    """

    def __init__(self, lo: float = 1.0e-6, decades: int = 7,
                 buckets_per_decade: int = 10) -> None:
        if lo <= 0:
            raise ValueError("lo must be positive")
        if decades < 1 or buckets_per_decade < 1:
            raise ValueError("need at least one decade and one bucket")
        self._lo = lo
        self._n_buckets = decades * buckets_per_decade + 1
        self._per_decade = buckets_per_decade
        # underflow bucket 0, log-spaced buckets, overflow bucket at end
        self._counts = [0] * (self._n_buckets + 1)
        self._samples: list[float] = []
        self._total = 0.0
        # Upper edges of the regular buckets 1.._n_buckets-1, computed once
        # by the same formula the display labels use.  Bucketing compares
        # against these directly (bisect) instead of inverting them with
        # log10 — the roundoff of log10(edge/lo) * per_decade can land an
        # exact-edge sample one bucket too high, off by one vs its label.
        self._edges = [self._bucket_edge(i)
                       for i in range(1, self._n_buckets)]
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
        self._counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        if value < self._lo:
            return 0
        # First bucket whose upper edge covers the value; a sample lying
        # exactly on an edge belongs to that edge's bucket ("<= edge").
        return 1 + bisect_left(self._edges, value)

    def _bucket_edge(self, idx: int) -> float:
        """Upper edge of bucket ``idx`` (0 = underflow)."""
        return self._lo * 10.0 ** (idx / self._per_decade)

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
