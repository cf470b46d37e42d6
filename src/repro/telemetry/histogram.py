"""Streaming log-bucketed histograms: percentiles without materializing samples.

The million-user roadmap item needs percentile aggregation whose memory does
not grow with the sample count and whose shards merge deterministically.
:class:`StreamingHistogram` provides exactly that shape: samples land in
logarithmically-spaced buckets (8 per octave, ~4.4% relative quantile
error), so a histogram is a sparse ``bucket index -> count`` mapping plus
exact count/sum/min/max moments.  Merging two histograms adds the integer
bucket counts — an associative, commutative operation — so per-shard
histograms can be combined in any grouping and produce the same result
(the associativity tests pin this down).

The quantile estimate returned by :meth:`quantile` is the geometric midpoint
of the bucket holding the requested rank, clamped to the exact observed
``[min, max]`` range; it is a sketch, not an order statistic, and is
deterministic for a deterministic sample stream.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

#: Buckets per octave (powers of two).  8 gives a bucket growth factor of
#: 2**(1/8) ~ 1.0905, i.e. at most ~4.4% relative error at the midpoint.
BUCKETS_PER_OCTAVE = 8

_LOG_BASE = math.log(2.0) / BUCKETS_PER_OCTAVE


class StreamingHistogram:
    """A mergeable log-bucketed histogram of non-negative samples.

    Values ``<= 0`` are counted in a dedicated zero bucket (wall times and
    counters never go negative; an exact zero is common for cache-hit
    paths), everything else in bucket ``floor(log2(value) * 8)``.
    """

    __slots__ = ("count", "sum", "min", "max", "zero_count", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero_count = 0
        self.buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        """Add one sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
        else:
            index = math.floor(math.log(value) / _LOG_BASE)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    # -- quantiles -------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); NaN when empty."""
        if self.count == 0:
            return math.nan
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        # The rank of the requested quantile among the sorted samples
        # (nearest-rank definition, so merged and re-merged histograms
        # agree exactly on which bucket holds it).
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return self._clamp(0.0)
        seen = self.zero_count
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                midpoint = math.exp((index + 0.5) * _LOG_BASE)
                return self._clamp(midpoint)
        return self._clamp(self.max if self.max is not None else math.nan)

    def _clamp(self, value: float) -> float:
        if self.min is not None and value < self.min:
            return self.min
        if self.max is not None and value > self.max:
            return self.max
        return value

    @property
    def mean(self) -> float:
        """Exact sample mean; NaN when empty."""
        return self.sum / self.count if self.count else math.nan

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram into this one (associative on bucket counts)."""
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self.zero_count += other.zero_count
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form (bucket indices become string keys)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean if self.count else None,
            "p50": self.quantile(0.50) if self.count else None,
            "p95": self.quantile(0.95) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
            "zero_count": self.zero_count,
            "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StreamingHistogram":
        """Rebuild a histogram from :meth:`to_dict` output.

        The derived fields (``mean``/``p50``/...) are recomputed, so a
        round-trip is exact on the state and self-consistent on the rest.
        """
        histogram = cls()
        histogram.count = int(payload["count"])
        histogram.sum = float(payload["sum"])
        histogram.min = None if payload.get("min") is None else float(payload["min"])
        histogram.max = None if payload.get("max") is None else float(payload["max"])
        histogram.zero_count = int(payload.get("zero_count", 0))
        histogram.buckets = {
            int(index): int(n) for index, n in payload.get("buckets", {}).items()
        }
        return histogram
