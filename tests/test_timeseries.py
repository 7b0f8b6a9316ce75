"""Tests for the telemetry plane's data model: the SLO watcher's
per-host window series and its rules."""

import pytest

from repro.obs import DEFAULT_RULES, SLOWatcher, Tracer, parse_rule


def tick(watcher, tracer, host, t, counters=None, values=(), name="lat"):
    """Grow ``host``'s registry by ``counters`` and ``values``, then
    close its window at ``t``; the alerts that tick fired."""
    for counter, value in (counters or {}).items():
        tracer.count(counter, value, host=host)
    for value in values:
        tracer.observe(name, value, host=host)
    return watcher.tick(host, t, tracer)


def measure(watcher, rule, host="h"):
    return SLOWatcher._measure(parse_rule(rule), watcher.windows[host])


class TestHostSeries:
    def test_window_rollover_keeps_depth_and_total(self):
        watcher, tracer = SLOWatcher([]), Tracer()
        depth = SLOWatcher.WINDOWS_KEPT
        total = depth + 6
        for i in range(total):
            tick(watcher, tracer, "h", float(i + 1), counters={"c": 1})
        assert len(watcher.windows["h"]) == depth
        assert watcher.taken["h"] == total
        # The retained tail is the *latest* WINDOWS_KEPT windows.
        assert [w["t_start"] for w in watcher.windows["h"]] == [
            float(i) for i in range(6, total)]

    def test_rollover_determinism(self):
        """Same tick sequence -> identical retained windows and
        merged histograms, regardless of when we look."""

        def build():
            watcher, tracer = SLOWatcher([]), Tracer()
            for i in range(SLOWatcher.WINDOWS_KEPT + 4):
                tick(watcher, tracer, "h", float(i + 1),
                     counters={"c": float(i)}, values=[float(i + 1)])
            return watcher

        a, b = build(), build()
        assert list(a.windows["h"]) == list(b.windows["h"])
        for stat in ("count", "p99", "max"):
            rule = f"r: {stat}(lat) <= 0 over 16"
            assert measure(a, rule) == measure(b, rule)

    def test_counter_sum_and_rate(self):
        watcher, tracer = SLOWatcher([]), Tracer()
        for i in range(4):
            tick(watcher, tracer, "h", float(i + 1), counters={"c": 2.0})
        assert measure(watcher, "s: sum(c) <= 0 over 4") == (8.0, "c")
        # 8 increments over a 4-second span.
        value, _ = measure(watcher, "r: rate(c) <= 0 over 4")
        assert value == pytest.approx(2.0)

    def test_windowed_histogram_merge(self):
        watcher, tracer = SLOWatcher([]), Tracer()
        tick(watcher, tracer, "h", 1.0, values=[1.0, 2.0])
        tick(watcher, tracer, "h", 2.0, values=[64.0])
        assert measure(watcher, "r: count(lat) <= 0 over 2")[0] == 3
        assert measure(watcher, "r: min(lat) <= 0 over 2")[0] == 1.0
        assert measure(watcher, "r: max(lat) <= 0 over 2")[0] == 64.0
        # Restricting to the last window drops the earlier samples.
        assert measure(watcher, "r: count(lat) <= 0 over 1")[0] == 1
        assert measure(watcher, "r: min(lat) <= 0 over 1")[0] == 64.0
        assert measure(watcher, "r: max(missing) <= 0 over 2") is None

    def test_windows_tile_and_sum_to_registry(self):
        """A host's first window starts at time 0 against an empty
        registry; each later one where the previous one ended, however
        long the host stayed silent in between."""
        watcher, tracer = SLOWatcher([]), Tracer()
        tracer.count("c", 3.0, host="h")
        tracer.observe("lat", 0.5, host="h")
        for t in (0.5, 0.75, 4.0, 4.25):
            tick(watcher, tracer, "h", t, counters={"c": 1.0},
                 values=[t])
        windows = list(watcher.windows["h"])
        assert [(w["t_start"], w["t_end"]) for w in windows] == [
            (0.0, 0.5), (0.5, 0.75), (0.75, 4.0), (4.0, 4.25)]
        registry = tracer.host_metrics["h"]
        assert sum(w["counters"]["c"] for w in windows) == \
            registry.counter("c") == 7.0
        assert sum(w["histograms"]["lat"]["count"] for w in windows) == \
            registry.histogram("lat").count == 5


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
    def _breach(self, watcher, tracer, host="h", n=1, t0=0.0):
        alerts = []
        for i in range(n):
            alerts += tick(watcher, tracer, host, t0 + i + 1,
                           values=[50.0], name="rpc.latency:X")
        return alerts

    def test_breach_fires_once_until_refire(self):
        watcher, tracer = SLOWatcher(
            ["r: p99(rpc.latency:*) <= 5.0 over 2"]), Tracer()
        refire = SLOWatcher.REFIRE_WINDOWS
        alerts = self._breach(watcher, tracer, n=refire)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["rule"] == "r"
        assert alert["host"] == "h"
        assert alert["value"] > 5.0
        assert watcher.alerts == alerts
        # The breach persists: it fires again REFIRE_WINDOWS windows on.
        again = self._breach(watcher, tracer, n=1, t0=float(refire))
        assert [a["window"] for a in alerts + again] == [1, refire + 1]

    def test_healthy_then_breach_transition(self):
        watcher, tracer = SLOWatcher(
            ["r: max(queue.depth) <= 10 over 1"]), Tracer()
        assert not tick(watcher, tracer, "h", 1.0, values=[2.0],
                        name="queue.depth")
        fired = tick(watcher, tracer, "h", 2.0, values=[99.0],
                     name="queue.depth")
        assert len(fired) == 1
        assert fired[0]["metric"] == "queue.depth"

    def test_glob_matches_worst_variant(self):
        watcher, tracer = SLOWatcher(
            ["r: max(rpc.latency:*) <= 5.0 over 1"]), Tracer()
        tracer.observe("rpc.latency:FAST", 1.0, host="h")
        tracer.observe("rpc.latency:SLOW", 40.0, host="h")
        fired = watcher.tick("h", 1.0, tracer)
        assert len(fired) == 1
        assert fired[0]["metric"] == "rpc.latency:SLOW"
        assert fired[0]["value"] == pytest.approx(40.0, rel=1.0)

    def test_rate_rule_on_counters(self):
        watcher, tracer = SLOWatcher(
            ["r: rate(rpc.dropped:*) <= 0.5 over 2"]), Tracer()
        fired = []
        for i in range(2):
            fired += tick(watcher, tracer, "h", float(i + 1),
                          counters={"rpc.dropped:exec": 5.0})
        assert fired
        assert fired[0]["value"] == pytest.approx(5.0)

    def test_alert_emits_trace_event(self):
        from repro.obs.events import SLO_ALERT

        tracer = Tracer()
        watcher = SLOWatcher(["r: max(queue.depth) <= 1 over 1"])
        tick(watcher, tracer, "h", 1.0, values=[9.0], name="queue.depth")
        events = tracer.events_of(SLO_ALERT)
        assert len(events) == 1
        assert events[0].fields["rule"] == "r"
        assert events[0].host == "h"
        assert events[0].ts == 1.0  # the window's end


class TestWindowExtremes:
    """``max``/``min`` rules read each window's own samples, not the
    extremes of the whole run so far."""

    @staticmethod
    def _feed(watcher, values, name="queue.depth"):
        """One value per monitor tick into the host's registry, then the
        tick that closes its window, as a network agent does."""
        tracer, fired = Tracer(), []
        for t, value in enumerate(values, start=1):
            fired += tick(watcher, tracer, "h", float(t), values=[value],
                          name=name)
        return fired
    def test_max_forgets_an_early_peak(self):
        watcher = SLOWatcher(["q: max(queue.depth) <= 64 over 2"])
        fired = self._feed(watcher, [100.0] + [1.0] * 18)
        # Windows 1 and 2 hold the peak; no later window is above 1.0,
        # so nothing refires at REFIRE_WINDOWS.
        assert [a["window"] for a in fired] == [1]
        assert fired[0]["value"] == 100.0

    def test_min_forgets_an_early_trough(self):
        watcher = SLOWatcher(["q: min(queue.depth) <= 10 over 2"])
        fired = self._feed(watcher, [1.0] + [100.0] * 18)
        # From window 3 on, no window in the span holds the 1.0.
        refire = SLOWatcher.REFIRE_WINDOWS
        assert [a["window"] for a in fired] == [3, 3 + refire,
                                               3 + 2 * refire]
        assert all(10.0 < a["value"] <= 100.0 for a in fired)
