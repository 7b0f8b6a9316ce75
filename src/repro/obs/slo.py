"""Per-host telemetry windows and the declarative SLO rules evaluated
on them.

A rule is one line of the grammar::

    <name>: <stat>(<metric>) <= <threshold> [over <k>]

    rpc-p99: p99(rpc.latency:*) <= 5.0 over 4

``stat`` selects the measurement: ``rate`` / ``sum`` read counters
(``rate`` is events per simulated second over the last ``k`` windows),
``p50`` / ``p95`` / ``p99`` / ``mean`` / ``max`` / ``min`` / ``count``
read the merge of the last ``k`` histogram deltas.  A trailing ``*`` in
``metric`` globs over metric names (e.g. every ``rpc.latency:<kind>``
histogram); the *worst* matching metric is the rule's value, so one rule
covers a family.

The :class:`SLOWatcher` owns the whole window.  Each network agent calls
:meth:`SLOWatcher.tick` at its monitor tick under a recording tracer;
the watcher diffs the host's registry against its snapshot from that
host's previous tick (exact counter and bucket diffs, bucket-bounded
min/max), keeps the last :attr:`SLOWatcher.WINDOWS_KEPT` windows per
host, and evaluates every rule.  A host's first window starts at time 0
against an empty registry, and each later one where the previous one
ended, also across a crash-restart: a host's windows tile its timeline
and sum to its registry.  Nothing crosses the simulated network, so
tracing does not change the modelled run.

A breach fires an ``slo.alert`` trace event at the window's end (which
is also a flight recorder trigger) on the healthy-to-breached transition
and then at most every :attr:`SLOWatcher.REFIRE_WINDOWS` windows while
the breach persists — sustained overload doesn't flood the ring.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass

from repro.obs.events import SLO_ALERT
from repro.obs.metrics import _FLOOR, Histogram

_COUNTER_STATS = frozenset({"rate", "sum"})
_HIST_STATS = frozenset({"p50", "p95", "p99", "mean", "max", "min", "count"})

_RULE_RE = re.compile(
    r"^\s*(?P<name>[\w.-]+)\s*:\s*"
    r"(?P<stat>rate|sum|count|mean|max|min|p50|p95|p99)\s*"
    r"\(\s*(?P<metric>[^\s()]+)\s*\)\s*<=\s*"
    r"(?P<threshold>[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*"
    r"(?:over\s+(?P<windows>[0-9]+)\s*)?$"
)

#: the rules every testbed's NAS watches (rpc p99, dropped-message
#: rate, queue depth, pending-migration age)
DEFAULT_RULES = (
    "rpc-p99: p99(rpc.latency:*) <= 5.0 over 4",
    "drop-rate: rate(rpc.dropped:*) <= 0.5 over 4",
    "queue-depth: max(queue.depth) <= 64 over 2",
    "migrate-pending-age: max(migrate.pending_age) <= 30.0 over 4",
)


@dataclass(frozen=True)
class SLORule:
    """One parsed threshold rule; breach when measured value > threshold."""

    name: str
    stat: str
    metric: str          # may end with '*' to glob a metric family
    threshold: float
    windows: int = 1

    def __post_init__(self) -> None:
        if self.stat not in _COUNTER_STATS | _HIST_STATS:
            raise ValueError(f"unknown stat {self.stat!r}")
        if self.windows < 1:
            raise ValueError("rule window count must be positive")


def parse_rule(text: str) -> SLORule:
    """Parse one line of the rule grammar (see module docstring)."""
    m = _RULE_RE.match(text)
    if not m:
        raise ValueError(f"unparseable SLO rule: {text!r}")
    return SLORule(
        name=m.group("name"),
        stat=m.group("stat"),
        metric=m.group("metric"),
        threshold=float(m.group("threshold")),
        windows=int(m.group("windows") or 1),
    )


def _matching(pattern: str, names) -> list[str]:
    if pattern.endswith("*"):
        prefix = pattern[:-1]
        return sorted(n for n in names if n.startswith(prefix))
    return [pattern] if pattern in names else []


def _histogram_delta(new: dict, old: dict | None) -> dict | None:
    """Growth of one histogram between two snapshots of the same
    registry, or None if nothing was observed in between.

    count/sum/buckets are exact differences.  min/max are the cumulative
    extremes bounded by the window's own buckets: max by the upper edge
    of its highest bucket, min by the lower edge of its lowest (the floor
    bucket, values <= 0, gives no lower bound).  The window that first
    reaches an extreme keeps it exactly, so merging a full delta
    sequence reproduces the cumulative histogram."""
    if not new.get("count"):
        return None
    if old is None:
        delta = dict(new)
        delta["buckets"] = dict(new.get("buckets", {}))
        return delta
    d_count = int(new["count"]) - int(old.get("count", 0))
    if d_count <= 0:
        return None
    old_buckets = old.get("buckets", {})
    buckets = {}
    for idx, n in new.get("buckets", {}).items():
        grown = int(n) - int(old_buckets.get(idx, 0))
        if grown > 0:
            buckets[idx] = grown
    top, bottom = max(buckets), min(buckets)
    low = new["min"]
    if bottom > _FLOOR:
        low = max(low, math.ldexp(1.0, bottom - 1))
    return {
        "count": d_count,
        "sum": float(new["sum"]) - float(old.get("sum", 0.0)),
        "min": low,
        "max": min(new["max"], math.ldexp(1.0, top)),
        "buckets": buckets,
    }


def _snapshot_delta(new: dict, old: dict | None) -> dict:
    """The growth between two :meth:`~repro.obs.metrics.Metrics.snapshot`
    views of the same registry: ``{'counters': {...}, 'histograms':
    {...}}`` with only the entries that changed (``old`` None: all)."""
    old_counters = (old or {}).get("counters", {})
    old_hists = (old or {}).get("histograms", {})
    counters = {}
    for name, value in new.get("counters", {}).items():
        grown = value - old_counters.get(name, 0.0)
        if grown:
            counters[name] = grown
    histograms = {}
    for name, hist in new.get("histograms", {}).items():
        delta = _histogram_delta(hist, old_hists.get(name))
        if delta is not None:
            histograms[name] = delta
    return {"counters": counters, "histograms": histograms}


class SLOWatcher:
    """Takes each host's windows and evaluates rules against them."""

    #: windows a persisting breach waits before it fires again
    REFIRE_WINDOWS = 8
    #: windows kept per host
    WINDOWS_KEPT = 16

    def __init__(self, rules) -> None:
        self.rules: list[SLORule] = [
            rule if isinstance(rule, SLORule) else parse_rule(rule)
            for rule in rules
        ]
        #: host -> its last WINDOWS_KEPT windows, oldest first; a window
        #: is ``{'counters', 'histograms', 't_start', 't_end'}``
        self.windows: dict[str, deque[dict]] = {}
        #: host -> windows it ever took (survives rollover)
        self.taken: dict[str, int] = {}
        #: every alert ever fired, as JSON-safe dicts (newest last)
        self.alerts: list[dict] = []
        # host -> (time, registry snapshot) at its previous tick
        self._last: dict[str, tuple[float, dict]] = {}
        # (rule.name, host) -> (currently_breached, window_of_last_fire)
        self._state: dict[tuple[str, str], tuple[bool, int]] = {}

    # -- measurement ---------------------------------------------------------

    @staticmethod
    def _measure(rule: SLORule, windows) -> tuple[float, str] | None:
        """The rule's value over the last ``rule.windows`` windows (worst
        matching metric), or None when no matching metric was observed
        in them."""
        tail = list(windows)[-rule.windows:]
        worst: tuple[float, str] | None = None
        if rule.stat in _COUNTER_STATS:
            span = tail[-1]["t_end"] - tail[0]["t_start"]
            names = set().union(*(w["counters"] for w in tail))
            for name in _matching(rule.metric, names):
                value = sum(w["counters"].get(name, 0.0) for w in tail)
                if rule.stat == "rate":
                    value = value / span if span > 0.0 else 0.0
                if worst is None or value > worst[0]:
                    worst = (value, name)
            return worst
        names = set().union(*(w["histograms"] for w in tail))
        for name in _matching(rule.metric, names):
            hist = Histogram()
            for w in tail:
                if name in w["histograms"]:
                    hist.merge(Histogram.from_snapshot(w["histograms"][name]))
            if not hist.count:
                continue
            value = float(getattr(hist, rule.stat))
            if worst is None or value > worst[0]:
                worst = (value, name)
        return worst

    # -- evaluation ----------------------------------------------------------

    def tick(self, host: str, now: float, tracer) -> list[dict]:
        """Close ``host``'s window at ``now`` — the growth of its registry
        in ``tracer`` since the host's previous tick — and evaluate every
        rule against its windows; fire ``slo.alert`` events for
        breaches, at the window's end."""
        registry = tracer.host_metrics.get(host)
        snap = registry.snapshot() if registry is not None else {}
        t_start, old = self._last.get(host, (0.0, None))
        self._last[host] = (now, snap)
        window = _snapshot_delta(snap, old)
        window["t_start"], window["t_end"] = t_start, now
        windows = self.windows.get(host)
        if windows is None:
            windows = self.windows[host] = deque(maxlen=self.WINDOWS_KEPT)
        windows.append(window)
        taken = self.taken[host] = self.taken.get(host, 0) + 1
        fired = []
        for rule in self.rules:
            measured = self._measure(rule, windows)
            key = (rule.name, host)
            was_breached, last_fire = self._state.get(key, (False, -1))
            if measured is None:
                self._state[key] = (False, last_fire)
                continue
            value, metric = measured
            breached = value > rule.threshold
            if not breached:
                self._state[key] = (False, last_fire)
                continue
            refire_due = (taken - last_fire) >= self.REFIRE_WINDOWS
            if was_breached and not refire_due:
                self._state[key] = (True, last_fire)
                continue
            self._state[key] = (True, taken)
            alert = {
                "rule": rule.name,
                "stat": rule.stat,
                "metric": metric,
                "value": value,
                "threshold": rule.threshold,
                "host": host,
                "window": taken,
                "ts": now,
            }
            fired.append(alert)
            self.alerts.append(alert)
            if tracer.enabled:
                tracer.emit(SLO_ALERT, ts=now, host=host, rule=rule.name,
                            stat=rule.stat, metric=metric, value=value,
                            threshold=rule.threshold, window=taken)
        return fired
