"""Tests for the telemetry plane's data model: per-host window series,
the cluster aggregate, and the SLO watcher."""

import math

import pytest

from repro.obs import (
    ClusterMetrics,
    DEFAULT_RULES,
    HostSeries,
    Metrics,
    MetricsDelta,
    SLOWatcher,
    parse_rule,
)
from repro.obs.metrics import snapshot_delta
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

    def test_wire_bytes_scale_with_content(self):
        empty = make_delta("h", 0.0, 1.0)
        small = make_delta("h", 0.0, 1.0, counters={"c": 1})
        big = make_delta("h", 0.0, 1.0,
                         counters={f"c{i}": i for i in range(10)},
                         values=[2.0 ** i for i in range(10)])
        assert 0 < empty.wire_bytes() < small.wire_bytes()
        assert small.wire_bytes() < big.wire_bytes()


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


class TestClusterMetrics:
    def test_ingest_builds_cumulative_and_merged(self):
        cluster = ClusterMetrics()
        cluster.ingest(make_delta("a", 0.0, 1.0, counters={"c": 2},
                                  values=[1.0]))
        cluster.ingest(make_delta("b", 0.0, 1.0, counters={"c": 3},
                                  values=[16.0]))
        cluster.ingest(make_delta("a", 1.0, 2.0, values=[4.0]))
        assert cluster.hosts() == ["a", "b"]
        assert cluster.ingested == 3
        merged = cluster.merged_snapshot()
        assert merged["counters"]["c"] == 5
        h = merged["histograms"]["lat"]
        assert h["count"] == 3
        assert h["min"] == 1.0 and h["max"] == 16.0
        # Per-host cumulative views stay separate.
        assert cluster.host_snapshot("a")["histograms"]["lat"]["count"] == 2
        assert cluster.host_snapshot("b")["histograms"]["lat"]["count"] == 1

    def test_merged_equals_hand_merge_of_hosts(self):
        """The acceptance invariant: the merged aggregate must equal
        merging each host's cumulative snapshot by hand."""
        from repro.obs import merge_snapshots

        cluster = ClusterMetrics()
        for i, host in enumerate(("a", "b", "c")):
            for w in range(3):
                cluster.ingest(make_delta(
                    host, float(w), float(w + 1),
                    counters={"c": float(i + 1)},
                    values=[float(2 ** (i + w))]))
        by_hand = merge_snapshots(
            cluster.host_snapshot(h) for h in cluster.hosts())
        merged = cluster.merged_snapshot()
        assert merged["counters"] == by_hand["counters"]
        got = merged["histograms"]["lat"]
        want = by_hand["histograms"]["lat"]
        assert got["count"] == want["count"]
        assert got["buckets"] == want["buckets"]
        assert got["p99"] == pytest.approx(want["p99"])

    def test_delta_stream_reproduces_registry(self):
        """Heartbeat semantics end to end: diff a live registry into a
        delta stream, ingest it, and the cluster's cumulative view for
        that host matches the registry exactly."""
        registry = Metrics()
        cluster = ClusterMetrics()
        last = None
        t = 0.0
        for batch in ([0.5, 3.0], [], [900.0, 0.001]):
            for v in batch:
                registry.observe("lat", v)
            registry.count("n", len(batch))
            snap = registry.snapshot()
            grown = snapshot_delta(snap, last)
            cluster.ingest(MetricsDelta(
                host="h", t_start=t, t_end=t + 1.0,
                counters=grown["counters"],
                histograms=grown["histograms"]))
            last = snap
            t += 1.0
        got = cluster.host_snapshot("h")
        want = registry.snapshot()
        assert got["counters"] == want["counters"]
        gh, wh = got["histograms"]["lat"], want["histograms"]["lat"]
        assert gh["count"] == wh["count"]
        assert math.isclose(gh["sum"], wh["sum"])
        assert gh["min"] == wh["min"] and gh["max"] == wh["max"]
        assert gh["buckets"] == wh["buckets"]


class TestSLORules:
    def test_parse_rule(self):
        rule = parse_rule("rpc-p99: p99(rpc.latency:*) <= 5.0 over 4")
        assert rule.name == "rpc-p99"
        assert rule.stat == "p99"
        assert rule.metric == "rpc.latency:*"
        assert rule.threshold == 5.0
        assert rule.windows == 4
        assert "p99(rpc.latency:*)" in rule.text

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
    def _breach(self, watcher, cluster, host="h", n=1, t0=0.0):
        alerts = []
        for i in range(n):
            cluster.ingest(make_delta(host, t0 + i, t0 + i + 1,
                                      values=[50.0], name="rpc.latency:X"))
            alerts += watcher.observe_window(cluster, host, t0 + i + 1,
                                             None) or []
        return alerts

    def test_breach_fires_once_until_refire(self):
        watcher = SLOWatcher(["r: p99(rpc.latency:*) <= 5.0 over 2"])
        cluster = ClusterMetrics()
        refire = SLOWatcher.REFIRE_WINDOWS
        alerts = self._breach(watcher, cluster, n=refire)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["rule"] == "r"
        assert alert["host"] == "h"
        assert alert["value"] > 5.0
        assert watcher.alerts == alerts
        # The breach persists: it fires again REFIRE_WINDOWS windows on.
        again = self._breach(watcher, cluster, n=1, t0=float(refire))
        assert [a["window"] for a in alerts + again] == [1, refire + 1]

    def test_healthy_then_breach_transition(self):
        watcher = SLOWatcher(["r: max(queue.depth) <= 10 over 1"])
        cluster = ClusterMetrics()
        cluster.ingest(make_delta("h", 0.0, 1.0, values=[2.0],
                                  name="queue.depth"))
        assert not watcher.observe_window(cluster, "h", 1.0, None)
        cluster.ingest(make_delta("h", 1.0, 2.0, values=[99.0],
                                  name="queue.depth"))
        fired = watcher.observe_window(cluster, "h", 2.0, None)
        assert len(fired) == 1
        assert fired[0]["metric"] == "queue.depth"

    def test_glob_matches_worst_variant(self):
        watcher = SLOWatcher(["r: max(rpc.latency:*) <= 5.0 over 1"])
        cluster = ClusterMetrics()
        m = Metrics()
        m.observe("rpc.latency:FAST", 1.0)
        m.observe("rpc.latency:SLOW", 40.0)
        snap = m.snapshot()
        cluster.ingest(MetricsDelta(host="h", t_start=0.0, t_end=1.0,
                                    counters={},
                                    histograms=snap["histograms"]))
        fired = watcher.observe_window(cluster, "h", 1.0, None)
        assert len(fired) == 1
        assert fired[0]["metric"] == "rpc.latency:SLOW"
        assert fired[0]["value"] == pytest.approx(40.0, rel=1.0)

    def test_rate_rule_on_counters(self):
        watcher = SLOWatcher(["r: rate(rpc.dropped:*) <= 0.5 over 2"])
        cluster = ClusterMetrics()
        fired = []
        for i in range(2):
            cluster.ingest(make_delta("h", float(i), float(i + 1),
                                      counters={"rpc.dropped:exec": 5.0}))
            fired += watcher.observe_window(cluster, "h", i + 1.0,
                                            None) or []
        assert fired
        assert fired[0]["value"] == pytest.approx(5.0)

    def test_alert_emits_trace_event(self):
        from repro.obs import Tracer
        from repro.obs.events import SLO_ALERT

        tracer = Tracer()
        watcher = SLOWatcher(["r: max(queue.depth) <= 1 over 1"])
        cluster = ClusterMetrics()
        cluster.ingest(make_delta("h", 0.0, 1.0, values=[9.0],
                                  name="queue.depth"))
        watcher.observe_window(cluster, "h", 1.0, tracer)
        events = tracer.events_of(SLO_ALERT)
        assert len(events) == 1
        assert events[0].fields["rule"] == "r"
        assert events[0].host == "h"
