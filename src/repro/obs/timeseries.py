"""Per-host sliding-window time series over heartbeat-shipped deltas.

Each NAS heartbeat carries a :class:`MetricsDelta` — the growth of one
host's metrics registry since the previous heartbeat (exact counter and
bucket diffs, see :func:`repro.obs.metrics.snapshot_delta`).  The domain
manager folds every delta into a :class:`ClusterMetrics`: a cumulative
per-host registry (so merging hosts reproduces the global view exactly)
plus a :class:`HostSeries` of the last N windows per host.

Windows give the plane its time dimension: counter *rates* (events per
simulated second over the window span) and windowed histograms (merge of
the last k deltas) are what the SLO watcher evaluates.

Rollover is deterministic: windows are appended in heartbeat order and
the deque evicts strictly oldest-first, so two runs with the same seed
produce identical series.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram, Metrics, merge_snapshots

#: number of windows a HostSeries retains
WINDOW_DEPTH = 16

# Wire-cost model for one shipped delta (see DESIGN.md "Telemetry
# plane"): a small envelope, ~24B per counter entry (name + float), and
# per histogram a fixed header plus ~16B per non-empty bucket.
_ENVELOPE_BYTES = 48
_COUNTER_BYTES = 24
_HIST_HEADER_BYTES = 48
_BUCKET_BYTES = 16


@dataclass
class MetricsDelta:
    """The growth of one host's registry over one heartbeat interval.

    ``counters`` maps name -> exact increment; ``histograms`` maps
    name -> histogram-delta snapshot (exact count/sum/bucket diffs,
    cumulative min/max — see :func:`repro.obs.metrics.snapshot_delta`).
    Plain strings/floats/dicts throughout, so deltas pickle cleanly onto
    a :class:`~repro.util.serialization.Payload`.
    """

    host: str
    t_start: float                 # simulated seconds, window open
    t_end: float                   # simulated seconds, window close
    counters: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.t_end - self.t_start, 0.0)

    @property
    def empty(self) -> bool:
        return not self.counters and not self.histograms

    def wire_bytes(self) -> int:
        """Estimated serialized size — charged to the simulated network
        when the delta piggybacks on a heartbeat."""
        nbytes = _ENVELOPE_BYTES + _COUNTER_BYTES * len(self.counters)
        for hist in self.histograms.values():
            nbytes += _HIST_HEADER_BYTES
            nbytes += _BUCKET_BYTES * len(hist.get("buckets", {}))
        return nbytes


class HostSeries:
    """The last N metric windows of one host, oldest first."""

    def __init__(self, host: str) -> None:
        self.host = host
        self.windows: deque[MetricsDelta] = deque(maxlen=WINDOW_DEPTH)
        #: windows ever ingested (survives rollover)
        self.total_windows = 0

    def add(self, delta: MetricsDelta) -> None:
        self.windows.append(delta)
        self.total_windows += 1

    def _tail(self, windows: int | None) -> list[MetricsDelta]:
        if windows is None or windows >= len(self.windows):
            return list(self.windows)
        return list(self.windows)[-windows:]

    def span(self, windows: int | None = None) -> float:
        """Simulated seconds covered by the last ``windows`` windows."""
        tail = self._tail(windows)
        if not tail:
            return 0.0
        return max(tail[-1].t_end - tail[0].t_start, 0.0)

    def counter_sum(self, name: str, windows: int | None = None) -> float:
        return sum(w.counters.get(name, 0.0) for w in self._tail(windows))

    def rate(self, name: str, windows: int | None = None) -> float:
        """Counter events per simulated second over the window span."""
        span = self.span(windows)
        if span <= 0.0:
            return 0.0
        return self.counter_sum(name, windows) / span

    def histogram(self, name: str,
                  windows: int | None = None) -> Histogram | None:
        """Merge of ``name``'s deltas over the last windows, or None if
        nothing was observed in them."""
        merged: Histogram | None = None
        for w in self._tail(windows):
            snap = w.histograms.get(name)
            if snap is None:
                continue
            if merged is None:
                merged = Histogram.from_snapshot(snap)
            else:
                merged.merge(Histogram.from_snapshot(snap))
        return merged


class ClusterMetrics:
    """The domain manager's cluster-wide aggregate of shipped deltas.

    Two views per host: a *cumulative* registry (every delta folded in —
    merging these across hosts reproduces the union of all per-host
    samples, bucket-exact) and a :class:`HostSeries` of recent windows
    for rates and windowed percentiles.
    """

    def __init__(self) -> None:
        self.series: dict[str, HostSeries] = {}
        self._cumulative: dict[str, Metrics] = {}
        self.ingested = 0

    def ingest(self, delta: MetricsDelta) -> None:
        """Fold one heartbeat-shipped delta into the aggregate."""
        host = delta.host
        series = self.series.get(host)
        if series is None:
            series = self.series[host] = HostSeries(host)
            self._cumulative[host] = Metrics()
        series.add(delta)
        cum = self._cumulative[host]
        cum.merge_snapshot(
            {"counters": delta.counters, "histograms": delta.histograms})
        self.ingested += 1

    def hosts(self) -> list[str]:
        return sorted(self.series)

    def host_snapshot(self, host: str) -> dict:
        cum = self._cumulative.get(host)
        return cum.snapshot() if cum else {"counters": {}, "histograms": {}}

    def merged_snapshot(self) -> dict:
        """One registry snapshot merging every host's cumulative view."""
        return merge_snapshots(
            self._cumulative[h].snapshot() for h in self.hosts())

    def document(self) -> dict:
        """A JSON-safe summary (histogram bucket keys stringified)."""
        return {
            "ingested": self.ingested,
            "hosts": {
                host: {
                    "windows": self.series[host].total_windows,
                    "retained": len(self.series[host].windows),
                    "cumulative": _jsonable(self.host_snapshot(host)),
                }
                for host in self.hosts()
            },
            "merged": _jsonable(self.merged_snapshot()),
        }


def metrics_document(cluster: ClusterMetrics | None, tracer) -> dict:
    """Cluster metrics as a JSON-safe document: the merged registry
    (bucket-level) plus the per-host snapshots behind the merge.
    Prefers the NAS-shipped aggregate (heartbeat-fed, windowed) once a
    delta has reached the domain manager; falls back to the tracer's
    live per-host registries, then to its global registry."""
    if cluster is not None and cluster.ingested:
        hosts = cluster.hosts()
        return {
            "source": "nas",
            "merged": _jsonable(cluster.merged_snapshot()),
            "hosts": {h: _jsonable(cluster.host_snapshot(h)) for h in hosts},
            "windows": {h: cluster.series[h].total_windows for h in hosts},
        }
    host_metrics = getattr(tracer, "host_metrics", None) or {}
    if host_metrics:
        source = "tracer"
        merged = tracer.merged_host_metrics()
    else:
        source = "global"
        metrics = getattr(tracer, "metrics", None)
        merged = metrics.snapshot() if metrics else {}
    return {
        "source": source,
        "merged": _jsonable(merged),
        "hosts": {
            host: _jsonable(host_metrics[host].snapshot())
            for host in sorted(host_metrics)
        },
        "windows": {},
    }


def _jsonable(snapshot: dict) -> dict:
    """A registry snapshot with histogram bucket keys as strings, so
    ``json.dump`` round-trips it."""
    out = {"counters": dict(snapshot.get("counters", {})), "histograms": {}}
    for name, hist in snapshot.get("histograms", {}).items():
        h = dict(hist)
        h["buckets"] = {str(k): v
                        for k, v in sorted(hist.get("buckets", {}).items())}
        out["histograms"][name] = h
    return out
