"""Per-model serving observability: fixed-bucket latency histograms.

Counters (requests, samples, fused batches) tell you *how much* a model
served; they say nothing about *how it felt*.  The control plane's stats
schema therefore reports request latency through a
:class:`LatencyHistogram`: a fixed set of log-spaced millisecond buckets,
updated lock-cheap on every request, from which p50/p95/p99 are estimated by
linear interpolation inside the bucket holding the target rank.

Fixed buckets — rather than a reservoir of raw samples — are the deliberate
trade: memory is constant no matter how many requests flow through, two
histograms (e.g. a primary's and a canary's, or two servers') can be merged
by adding bucket counts, and the bucket layout is a stable part of the
``/v1/stats`` schema that dashboards can rely on.  The price is bounded
quantile error (a percentile is only as precise as the bucket it lands in),
which is the standard and acceptable cost — the bounds below are dense where
serving latencies actually live (sub-millisecond to a few seconds).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["LatencyHistogram", "DEFAULT_BOUNDS_MS"]

#: Upper bucket bounds in milliseconds (log-spaced, 0.5 ms – 10 s); one
#: implicit overflow bucket catches everything slower.  Part of the stats
#: schema: changing these is a schema change, not a tuning tweak.
DEFAULT_BOUNDS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                     500.0, 1000.0, 2000.0, 5000.0, 10000.0)


class LatencyHistogram:
    """Thread-safe fixed-bucket histogram over request latencies.

    ``record`` takes *seconds* (what ``time.perf_counter`` differences give
    you); every reported figure is in *milliseconds* with a ``_ms`` suffix,
    so the units are visible in the schema itself.
    """

    __slots__ = ("_counts", "_count", "_sum_ms", "_min_ms",
                 "_max_ms", "_lock")

    def __init__(self):
        self._counts = [0] * (len(DEFAULT_BOUNDS_MS) + 1)  # + overflow bucket
        self._count = 0
        self._sum_ms = 0.0
        self._min_ms = float("inf")
        self._max_ms = 0.0
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Record one request's latency (in seconds, as perf_counter deltas)."""
        ms = max(0.0, float(seconds) * 1000.0)
        index = bisect_left(DEFAULT_BOUNDS_MS, ms)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_ms += ms
            if ms < self._min_ms:
                self._min_ms = ms
            if ms > self._max_ms:
                self._max_ms = ms

    # -- percentile estimation -------------------------------------------------

    def _percentile_locked(self, q: float) -> float:
        """Estimate the q-th percentile (0–100) from the bucket counts.

        Walks the cumulative distribution to the bucket holding the target
        rank and interpolates linearly inside it; the open-ended overflow
        bucket is closed at the largest observed value, and every estimate is
        clamped to the observed [min, max] so a sparse histogram can never
        report a latency nobody experienced.
        """
        if self._count == 0:
            return 0.0
        target = (q / 100.0) * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = DEFAULT_BOUNDS_MS[index - 1] if index > 0 else 0.0
                hi = DEFAULT_BOUNDS_MS[index] \
                    if index < len(DEFAULT_BOUNDS_MS) else self._max_ms
                fraction = (target - cumulative) / bucket_count
                value = lo + fraction * (max(hi, lo) - lo)
                return min(max(value, self._min_ms), self._max_ms)
            cumulative += bucket_count
        return self._max_ms  # pragma: no cover — target <= count always hits

    def percentile(self, q: float) -> float:
        """The q-th latency percentile in milliseconds (0 when empty)."""
        with self._lock:
            return self._percentile_locked(q)

    # -- introspection ---------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def summary(self) -> dict:
        """The JSON-ready ``latency`` section of the per-model stats schema."""
        with self._lock:
            count = self._count
            buckets = [{"le_ms": bound, "count": bucket_count}
                       for bound, bucket_count
                       in zip(DEFAULT_BOUNDS_MS, self._counts)]
            buckets.append({"le_ms": None, "count": self._counts[-1]})
            return {
                "count": count,
                "mean_ms": round(self._sum_ms / count, 3) if count else 0.0,
                "min_ms": round(self._min_ms, 3) if count else 0.0,
                "max_ms": round(self._max_ms, 3) if count else 0.0,
                "p50_ms": round(self._percentile_locked(50.0), 3),
                "p95_ms": round(self._percentile_locked(95.0), 3),
                "p99_ms": round(self._percentile_locked(99.0), 3),
                "buckets": buckets,
            }
