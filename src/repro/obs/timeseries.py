"""Per-host sliding-window time series over per-tick metrics deltas.

At each monitor tick a host's network agent takes a :class:`MetricsDelta`
— the growth of that host's metrics registry since its previous tick
(exact counter and bucket diffs, see
:func:`repro.obs.metrics.snapshot_delta`) — and hands it to the NAS's
:class:`~repro.obs.slo.SLOWatcher`, which keeps a :class:`HostSeries` of
the last N windows per host.  Nothing crosses the simulated network, so
tracing does not change the modelled run.

Windows give the watcher its time dimension: counter *rates* (events per
simulated second over the window span) and windowed histograms (merge of
the last k deltas) are what the SLO rules evaluate.

Rollover is deterministic: windows are appended in tick order and the
deque evicts strictly oldest-first, so two runs with the same seed
produce identical series.

:func:`metrics_document` is the one cluster metrics view: the tracer's
per-host registries and their merge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram

#: number of windows a HostSeries retains
WINDOW_DEPTH = 16


@dataclass
class MetricsDelta:
    """The growth of one host's registry over one monitor interval.

    ``counters`` maps name -> exact increment; ``histograms`` maps
    name -> histogram-delta snapshot (exact count/sum/bucket diffs,
    window-bounded min/max — see :func:`repro.obs.metrics.snapshot_delta`).
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


class HostSeries:
    """The last N metric windows of one host, oldest first."""

    def __init__(self, host: str) -> None:
        self.host = host
        self.windows: deque[MetricsDelta] = deque(maxlen=WINDOW_DEPTH)
        #: windows ever added (survives rollover)
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


def metrics_document(tracer) -> dict:
    """Cluster metrics as a JSON-safe document: ``merged`` is
    ``tracer.metrics`` (bucket-level) and ``hosts`` the per-host
    snapshots it merges; both are empty under a non-recording tracer."""
    if not tracer.enabled:
        return {"merged": _jsonable({}), "hosts": {}}
    hosts = tracer.host_metrics
    return {
        "merged": _jsonable(tracer.metrics.snapshot()),
        "hosts": {
            host: _jsonable(hosts[host].snapshot()) for host in sorted(hosts)
        },
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
