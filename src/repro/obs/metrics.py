"""Counters and histograms aggregated per component.

The hot path (a guarded ``tracer.enabled`` check) costs one attribute
load when tracing is off, and an enabled tracer's ``count``/``observe``
only append to a backlog that :func:`fold` drains into the per-host
registries when someone reads.
Histogram buckets are log2 so latencies spanning microseconds to minutes
stay readable.

Histograms are *mergeable*: :meth:`Histogram.snapshot` preserves the raw
bucket table (not just derived percentiles), so snapshots taken on
different hosts can be recombined — :meth:`Histogram.merge` and
:meth:`Metrics.merge_snapshot` make cross-host p50/p95/p99 a matter of
adding bucket counts instead of being impossible.  Snapshots are plain
dicts of numbers, picklable and JSON-safe (bucket keys are ints; convert
to str for JSON).  A host's SLO windows are diffs of successive
snapshots of its registry, taken by :class:`repro.obs.slo.SLOWatcher`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

#: the bucket index every value <= 0 shares
_FLOOR = -1074


@dataclass
class Histogram:
    """Streaming summary of one observed quantity (no raw samples kept)."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # log2 bucket index; values <= 0 share the floor bucket.
        idx = math.frexp(value)[1] if value > 0.0 else _FLOOR
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the log2 buckets.

        The rank is located in bucket order; within the bucket the value
        is linearly interpolated across the bucket's value range
        [2^(i-1), 2^i), then clamped to the observed min/max — so the
        estimate is exact at the extremes and at worst one bucket wide
        (a factor of 2) in between.
        """
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        seen = 0.0
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            if seen + n >= rank:
                lo = 0.0 if idx <= _FLOOR else math.ldexp(1.0, idx - 1)
                hi = math.ldexp(1.0, idx)
                estimate = lo + (rank - seen) / n * (hi - lo)
                return min(max(estimate, self.min), self.max)
            seen += n
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def snapshot(self) -> dict:
        """A picklable view.  ``buckets`` carries the raw log2 table so
        snapshots stay mergeable (see :meth:`from_snapshot`); the derived
        percentiles ride along for direct consumption."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": dict(self.buckets),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Histogram":
        """Reconstruct a histogram from :meth:`snapshot` output (derived
        fields like ``mean``/``p50`` are recomputed, not trusted)."""
        count = int(snap.get("count", 0))
        hist = cls(
            count=count,
            total=float(snap.get("sum", 0.0)),
            min=float(snap["min"]) if count else math.inf,
            max=float(snap["max"]) if count else -math.inf,
            buckets={int(k): int(v)
                     for k, v in snap.get("buckets", {}).items()},
        )
        return hist

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place (and return self).

        count/sum/min/max combine exactly; bucket counts add, so merged
        percentiles are as accurate as having observed the union of both
        sample streams (at worst one log2 bucket wide, like any single
        histogram's estimate)."""
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        return self

class Metrics:
    """Registry of named counters and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def count(self, name: str, value: float = 1.0) -> None:
        _apply(self._counters, self._histograms, ((False, name, value, ""),))

    def observe(self, name: str, value: float) -> None:
        _apply(self._counters, self._histograms, ((True, name, value, ""),))

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def snapshot(self) -> dict:
        """A picklable point-in-time view: {'counters': ..., 'histograms': ...}."""
        return {
            "counters": dict(self._counters),
            "histograms": {
                name: hist.snapshot()
                for name, hist in self._histograms.items()
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` (or histogram-delta) dict from another
        registry — typically another host's — into this one.  Counters
        add; histograms merge bucket-wise, so cross-host percentiles come
        from the union of the per-host sample streams."""
        counters = snap.get("counters", {})
        histograms = snap.get("histograms", {})
        incoming = {
            name: Histogram.from_snapshot(h)
            for name, h in histograms.items()
        }
        for name, value in counters.items():
            self._counters[name] = self._counters.get(name, 0.0) + value
        for name, other in incoming.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = other
            else:
                mine.merge(other)


def fold(samples: deque, registries: dict[str, Metrics]) -> None:
    """Drain a tracer's backlog of ``(is_observe, name, value, host)``
    samples, oldest first, each into ``registries[host]`` (created at
    that host's first sample; ``""`` keys the samples naming no host)."""
    by_host: dict[str, list] = {}
    for _ in range(len(samples)):
        sample = samples.popleft()
        by_host.setdefault(sample[3], []).append(sample)
    for host, mine in by_host.items():
        registry = registries.get(host)
        if registry is None:
            registry = registries[host] = Metrics()
        _apply(registry._counters, registry._histograms, mine)


def _apply(counters: dict, histograms: dict, samples) -> None:
    """Add ``(is_observe, name, value, host)`` samples to one registry's
    tables."""
    for observe, name, value, _ in samples:
        if observe:
            hist = histograms.get(name)
            if hist is None:
                hist = histograms[name] = Histogram()
            hist.observe(value)
        else:
            counters[name] = counters.get(name, 0.0) + value


def merge_snapshots(snaps) -> dict:
    """Merge an iterable of :meth:`Metrics.snapshot` dicts into one
    combined snapshot — the cluster-wide view of per-host registries."""
    merged = Metrics()
    for snap in snaps:
        merged.merge_snapshot(snap)
    return merged.snapshot()

