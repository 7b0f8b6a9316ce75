"""Tests for the telemetry plane's data model: per-host window series
and the SLO watcher."""

import pytest

from repro.obs import (
    DEFAULT_RULES,
    HostSeries,
    Metrics,
    MetricsDelta,
    SLOWatcher,
    parse_rule,
)
from repro.obs.timeseries import WINDOW_DEPTH


def make_delta(host, t0, t1, counters=None, values=(), name="lat"):
    m = Metrics()
    for v in values:
        m.observe(name, v)
    snap = m.snapshot()
    return MetricsDelta(
        host=host, t_start=t0, t_end=t1,
        counters=dict(counters or {}),
        histograms=dict(snap["histograms"]),
    )


class TestMetricsDelta:
    def test_duration_and_empty(self):
        d = MetricsDelta(host="h", t_start=1.0, t_end=3.0,
                         counters={}, histograms={})
        assert d.duration == 2.0
        assert d.empty
        d2 = make_delta("h", 0.0, 1.0, counters={"c": 1})
        assert not d2.empty


class TestHostSeries:
    def test_window_rollover_keeps_depth_and_total(self):
        series = HostSeries("h")
        total = WINDOW_DEPTH + 6
        for i in range(total):
            series.add(make_delta("h", float(i), float(i + 1),
                                  counters={"c": 1}))
        assert len(series.windows) == WINDOW_DEPTH
        assert series.total_windows == total
        # The retained tail is the *latest* WINDOW_DEPTH windows.
        assert [w.t_start for w in series.windows] == [
            float(i) for i in range(6, total)]

    def test_rollover_determinism(self):
        """Same delta sequence -> identical retained windows and
        merged histograms, regardless of when we look."""

        def build():
            s = HostSeries("h")
            for i in range(WINDOW_DEPTH + 4):
                s.add(make_delta("h", float(i), float(i + 1),
                                 counters={"c": float(i)},
                                 values=[float(i + 1)]))
            return s

        a, b = build(), build()
        assert list(a.windows) == list(b.windows)
        ha, hb = a.histogram("lat"), b.histogram("lat")
        assert dict(ha.buckets) == dict(hb.buckets)
        assert ha.count == hb.count

    def test_counter_sum_and_rate(self):
        series = HostSeries("h")
        for i in range(4):
            series.add(make_delta("h", float(i), float(i + 1),
                                  counters={"c": 2.0}))
        assert series.counter_sum("c") == 8.0
        # 8 increments over a 4-second span.
        assert series.rate("c") == pytest.approx(2.0)

    def test_windowed_histogram_merge(self):
        series = HostSeries("h")
        series.add(make_delta("h", 0.0, 1.0, values=[1.0, 2.0]))
        series.add(make_delta("h", 1.0, 2.0, values=[64.0]))
        merged = series.histogram("lat")
        assert merged.count == 3
        assert merged.min == 1.0 and merged.max == 64.0
        # Restricting to the last window drops the earlier samples.
        last = series.histogram("lat", windows=1)
        assert last.count == 1 and last.min == 64.0
        assert series.histogram("missing") is None


class TestSLORules:
    def test_parse_rule(self):
        rule = parse_rule("rpc-p99: p99(rpc.latency:*) <= 5.0 over 4")
        assert rule.name == "rpc-p99"
        assert rule.stat == "p99"
        assert rule.metric == "rpc.latency:*"
        assert rule.threshold == 5.0
        assert rule.windows == 4

    def test_parse_rule_defaults_and_errors(self):
        rule = parse_rule("q: max(queue.depth) <= 64")
        assert rule.windows == 1
        for bad in ("nope", "x: wat(m) <= 1", "x: p99(m) <= ?",
                    "x: p99(m) <= 1 over 0"):
            with pytest.raises(ValueError):
                parse_rule(bad)

    def test_default_rules_parse(self):
        for line in DEFAULT_RULES:
            parse_rule(line)


class TestSLOWatcher:
    def _breach(self, watcher, host="h", n=1, t0=0.0):
        alerts = []
        for i in range(n):
            alerts += watcher.observe(
                make_delta(host, t0 + i, t0 + i + 1, values=[50.0],
                           name="rpc.latency:X"), None)
        return alerts

    def test_breach_fires_once_until_refire(self):
        watcher = SLOWatcher(["r: p99(rpc.latency:*) <= 5.0 over 2"])
        refire = SLOWatcher.REFIRE_WINDOWS
        alerts = self._breach(watcher, n=refire)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["rule"] == "r"
        assert alert["host"] == "h"
        assert alert["value"] > 5.0
        assert watcher.alerts == alerts
        # The breach persists: it fires again REFIRE_WINDOWS windows on.
        again = self._breach(watcher, n=1, t0=float(refire))
        assert [a["window"] for a in alerts + again] == [1, refire + 1]

    def test_healthy_then_breach_transition(self):
        watcher = SLOWatcher(["r: max(queue.depth) <= 10 over 1"])
        assert not watcher.observe(
            make_delta("h", 0.0, 1.0, values=[2.0], name="queue.depth"),
            None)
        fired = watcher.observe(
            make_delta("h", 1.0, 2.0, values=[99.0], name="queue.depth"),
            None)
        assert len(fired) == 1
        assert fired[0]["metric"] == "queue.depth"

    def test_glob_matches_worst_variant(self):
        watcher = SLOWatcher(["r: max(rpc.latency:*) <= 5.0 over 1"])
        m = Metrics()
        m.observe("rpc.latency:FAST", 1.0)
        m.observe("rpc.latency:SLOW", 40.0)
        snap = m.snapshot()
        fired = watcher.observe(
            MetricsDelta(host="h", t_start=0.0, t_end=1.0, counters={},
                         histograms=snap["histograms"]), None)
        assert len(fired) == 1
        assert fired[0]["metric"] == "rpc.latency:SLOW"
        assert fired[0]["value"] == pytest.approx(40.0, rel=1.0)

    def test_rate_rule_on_counters(self):
        watcher = SLOWatcher(["r: rate(rpc.dropped:*) <= 0.5 over 2"])
        fired = []
        for i in range(2):
            fired += watcher.observe(
                make_delta("h", float(i), float(i + 1),
                           counters={"rpc.dropped:exec": 5.0}), None)
        assert fired
        assert fired[0]["value"] == pytest.approx(5.0)

    def test_alert_emits_trace_event(self):
        from repro.obs import Tracer
        from repro.obs.events import SLO_ALERT

        tracer = Tracer()
        watcher = SLOWatcher(["r: max(queue.depth) <= 1 over 1"])
        watcher.observe(make_delta("h", 0.0, 1.0, values=[9.0],
                                   name="queue.depth"), tracer)
        events = tracer.events_of(SLO_ALERT)
        assert len(events) == 1
        assert events[0].fields["rule"] == "r"
        assert events[0].host == "h"
        assert events[0].ts == 1.0  # the window's end
