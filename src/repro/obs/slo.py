"""Declarative SLO rules evaluated per telemetry window.

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

The :class:`SLOWatcher` holds parsed rules, one
:class:`~repro.obs.timeseries.HostSeries` per host and per-(rule, host)
breach state.  Each network agent calls :meth:`SLOWatcher.observe` with
its host's window at its own monitor tick; a breach fires an
``slo.alert`` trace event at the window's end (which is also a flight
recorder trigger) on the healthy-to-breached transition and then at most
every :attr:`SLOWatcher.REFIRE_WINDOWS` windows while the breach
persists — sustained overload doesn't flood the ring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.obs.events import SLO_ALERT
from repro.obs.timeseries import HostSeries, MetricsDelta

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


class SLOWatcher:
    """Evaluates rules against each host's window series as it grows."""

    #: windows a persisting breach waits before it fires again
    REFIRE_WINDOWS = 8

    def __init__(self, rules) -> None:
        self.rules: list[SLORule] = [
            rule if isinstance(rule, SLORule) else parse_rule(rule)
            for rule in rules
        ]
        #: host -> its recent windows
        self.series: dict[str, HostSeries] = {}
        #: every alert ever fired, as JSON-safe dicts (newest last)
        self.alerts: list[dict] = []
        # (rule.name, host) -> (currently_breached, window_of_last_fire)
        self._state: dict[tuple[str, str], tuple[bool, int]] = {}

    # -- measurement ---------------------------------------------------------

    def _measure(self, rule: SLORule,
                 series: HostSeries) -> tuple[float, str] | None:
        """The rule's value on this host (worst matching metric), or
        None when no matching metric was observed in the window span."""
        tail = list(series.windows)[-rule.windows:]
        worst: tuple[float, str] | None = None
        if rule.stat in _COUNTER_STATS:
            names = set()
            for w in tail:
                names.update(w.counters)
            for name in _matching(rule.metric, names):
                if rule.stat == "rate":
                    value = series.rate(name, rule.windows)
                else:
                    value = series.counter_sum(name, rule.windows)
                if worst is None or value > worst[0]:
                    worst = (value, name)
            return worst
        names = set()
        for w in tail:
            names.update(w.histograms)
        for name in _matching(rule.metric, names):
            hist = series.histogram(name, rule.windows)
            if hist is None or not hist.count:
                continue
            value = float(getattr(hist, rule.stat))
            if worst is None or value > worst[0]:
                worst = (value, name)
        return worst

    # -- evaluation ----------------------------------------------------------

    def observe(self, delta: MetricsDelta, tracer) -> list[dict]:
        """Append ``delta`` to its host's series and evaluate every rule
        against that series; fire ``slo.alert`` events for breaches, at
        the window's end."""
        host, now = delta.host, delta.t_end
        series = self.series.get(host)
        if series is None:
            series = self.series[host] = HostSeries(host)
        series.add(delta)
        fired = []
        for rule in self.rules:
            measured = self._measure(rule, series)
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
            window = series.total_windows
            refire_due = (window - last_fire) >= self.REFIRE_WINDOWS
            if was_breached and not refire_due:
                self._state[key] = (True, last_fire)
                continue
            self._state[key] = (True, window)
            alert = {
                "rule": rule.name,
                "stat": rule.stat,
                "metric": metric,
                "value": value,
                "threshold": rule.threshold,
                "host": host,
                "window": window,
                "ts": now,
            }
            fired.append(alert)
            self.alerts.append(alert)
            if tracer is not None and tracer.enabled:
                tracer.emit(SLO_ALERT, ts=now, host=host, rule=rule.name,
                            stat=rule.stat, metric=metric, value=value,
                            threshold=rule.threshold, window=window)
        return fired
