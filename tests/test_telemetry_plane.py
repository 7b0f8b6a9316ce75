"""End-to-end tests for the cluster telemetry plane: per-tick metrics
windows, SLO alerts, the flight recorder, and the Prometheus view."""

import json

import pytest

from repro.agents.nas import NASConfig
from repro.apps.matmul import MatmulConfig, run_matmul
from repro.cluster import TestbedConfig, vienna_testbed
from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    SLOWatcher,
    Tracer,
    events as ev,
    load_bundle,
    merge_snapshots,
    render_incident,
    render_prom,
    tracing,
)
from repro.obs.timeseries import metrics_document


def as_json(snapshot):
    """``snapshot`` as the JSON it serialises to (bucket keys as str)."""
    return json.loads(json.dumps(snapshot))


def run_traced_matmul(config, n=64, nodes=4, kill=None, after=0.0,
                      slo=None):
    """Matmul on a fresh traced testbed; optionally kill a host mid-run
    and keep the world going ``after`` extra simulated seconds.  ``slo``
    replaces the NAS's watcher before the run starts."""
    with tracing(Tracer()) as tracer:
        runtime = vienna_testbed(config)
        if slo is not None:
            runtime.nas.slo = slo
        if kill is not None:
            runtime.world.schedule_failure(*kill)
        try:
            runtime.run_app(
                lambda: run_matmul(
                    MatmulConfig(n=n, nr_nodes=nodes, real_compute=False)
                )
            )
        except Exception:
            if kill is None:
                raise
        if after:
            runtime.world.kernel.run(until=runtime.world.now() + after)
    return tracer, runtime


class TestOneStore:
    """The per-host registries are the tracer's only metrics store; the
    cluster view is their merge."""

    def test_sample_lands_once_in_its_hosts_registry(self):
        tracer = Tracer()
        tracer.count("y", 2.0, host="a")
        tracer.observe("lat", 0.5, host="a")
        assert list(tracer.host_metrics) == ["a"]
        assert tracer.host_metrics["a"].snapshot()["counters"] == {"y": 2.0}
        assert tracer.metrics.counter("y") == 2.0
        assert tracer.metrics.histogram("lat").count == 1

    def test_hostless_sample_reaches_the_merged_document(self):
        tracer = Tracer()
        tracer.count("x")
        tracer.count("y", host="a")
        doc = metrics_document(tracer)
        assert doc["merged"]["counters"] == {"x": 1.0, "y": 1.0}
        assert sorted(doc["hosts"]) == ["", "a"]
        text = render_prom(doc["merged"])
        assert "repro_x_total 1" in text
        assert "repro_y_total 1" in text

    def test_untraced_document_is_empty(self):
        assert metrics_document(NULL_TRACER) == {
            "merged": {"counters": {}, "histograms": {}}, "hosts": {}}


class TestHeartbeatPiggyback:
    """Metrics windows: each host's monitor tick hands one window to the
    NAS's SLO watcher; nothing rides the heartbeat."""

    def test_deltas_reach_domain_manager(self):
        """One window per tick: every live host has a series at the
        watcher, with as many windows as that host took samples."""
        config = TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(monitor_period=0.02, probe_period=5.0),
        )
        tracer, runtime = run_traced_matmul(config)
        series = runtime.nas.slo.series
        assert set(series) == set(runtime.nas.known_hosts())
        for host, s in series.items():
            samples = tracer.host_metrics[host].snapshot()["counters"]
            assert s.total_windows == samples["nas.samples"] > 0
        merged = runtime.metrics_document()["merged"]
        assert any(name.startswith("rpc.latency:")
                   for name in merged["histograms"])

    def test_aggregate_matches_per_host_registries(self):
        """The metrics document is the tracer's per-host registries,
        and each host's windows are exact diffs of its registry: what
        the watcher retains is a part of what the registry holds."""
        config = TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(monitor_period=0.02, probe_period=5.0),
        )
        tracer, runtime = run_traced_matmul(config, after=0.2)
        doc = runtime.metrics_document()
        assert as_json(tracer.metrics.snapshot()) == doc["merged"]
        assert sorted(doc["hosts"]) == sorted(tracer.host_metrics)
        for host, s in runtime.nas.slo.series.items():
            live = tracer.host_metrics[host].snapshot()
            assert doc["hosts"][host]["counters"] == live["counters"]
            for name in live["counters"]:
                assert s.counter_sum(name) <= live["counters"][name] + 1e-9
            for name, hist in live["histograms"].items():
                windowed = s.histogram(name)
                assert windowed is None or windowed.count <= hist["count"]

    def test_telemetry_off_ships_nothing(self):
        """Untraced, agents take no windows: the watcher holds no series
        and evaluates nothing."""
        runtime = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(monitor_period=0.02),
        ))
        assert not runtime.world.tracer.enabled
        runtime.run_app(lambda: run_matmul(
            MatmulConfig(n=64, nr_nodes=4, real_compute=False)))
        assert runtime.nas.slo.series == {}
        assert runtime.nas.slo.alerts == []


class TestPromExposition:
    def test_p99_matches_hand_merged_histograms(self):
        """Acceptance: the exposition's rpc latency histogram equals the
        merge of the per-host histograms done by hand, bucket for
        bucket — hence identical p99."""
        config = TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(monitor_period=0.02, probe_period=5.0),
        )
        tracer, runtime = run_traced_matmul(config)
        doc = runtime.metrics_document()
        assert as_json(tracer.metrics.snapshot()) == doc["merged"]
        # Hand-merge the per-host snapshots the document is built from.
        by_hand = merge_snapshots(
            registry.snapshot() for registry in tracer.host_metrics.values())
        lat_names = [n for n in by_hand["histograms"]
                     if n.startswith("rpc.latency:")]
        assert lat_names
        for name in lat_names:
            want = by_hand["histograms"][name]
            got = doc["merged"]["histograms"][name]
            assert got["count"] == want["count"]
            assert got["p99"] == pytest.approx(want["p99"])
            assert {int(k): v for k, v in got["buckets"].items()} == \
                want["buckets"]
        # And the prom text carries the same bucket table, cumulative.
        text = render_prom(doc["merged"])
        name = lat_names[0]
        variant = name.split(":", 1)[1]
        want = by_hand["histograms"][name]
        prefix = f'repro_rpc_latency_bucket{{variant="{variant}",le='
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith(prefix)]
        cumulative, expect = 0, []
        for idx in sorted(want["buckets"]):
            cumulative += want["buckets"][idx]
            expect.append(cumulative)
        expect.append(want["count"])  # the +Inf bucket
        assert counts == expect
        assert f'repro_rpc_latency_count{{variant="{variant}"}} ' \
            f'{want["count"]}' in text

    def test_exposition_shape(self):
        from repro.obs.metrics import Metrics

        m = Metrics()
        m.count("rpc.calls:X", 3)
        m.observe("lat", 0.5)
        text = render_prom(m.snapshot())
        assert "# TYPE repro_rpc_calls_total counter" in text
        assert 'repro_rpc_calls_total{variant="X"} 3' in text
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")


class TestFlightRecorder:
    def _tracer_with_recorder(self, **kwargs):
        tracer = Tracer()
        recorder = FlightRecorder(tracer, **kwargs)
        recorder.attach()
        return tracer, recorder

    def test_trigger_event_captures_bundle(self):
        tracer, recorder = self._tracer_with_recorder()
        tracer.emit(ev.RPC_REQUEST, ts=0.5, host="a", kind="X")
        tracer.host_failed("a", 1.0)
        assert len(recorder.incidents) == 1
        bundle = recorder.incidents[0]
        assert bundle["trigger"] == ev.HOST_FAILED
        assert bundle["failed_hosts"] == ["a"]
        assert any(e["etype"] == ev.RPC_REQUEST for e in bundle["events"])
        # Capturing emitted a flight.record marker, which must not
        # re-trigger a capture.
        assert tracer.events_of(ev.FLIGHT_RECORD)
        assert len(recorder.incidents) == 1

    def test_debounce_per_trigger_type(self):
        tracer, recorder = self._tracer_with_recorder()
        assert FlightRecorder.MIN_INTERVAL == 1.0
        tracer.emit(ev.RPC_TIMEOUT, ts=1.0, host="a", kind="X")
        tracer.emit(ev.RPC_TIMEOUT, ts=1.2, host="a", kind="X")
        assert len(recorder.incidents) == 1
        assert recorder.suppressed == 1
        # A different trigger type is not debounced by the first.
        tracer.host_failed("a", 1.3)
        assert len(recorder.incidents) == 2
        # And past the interval the same type fires again.
        tracer.emit(ev.RPC_TIMEOUT, ts=2.5, host="b", kind="Y")
        assert len(recorder.incidents) == 3

    def test_bundle_written_and_rendered(self, tmp_path):
        tracer, recorder = self._tracer_with_recorder(
            incident_dir=str(tmp_path))
        tracer.observe("rpc.latency:X", 0.25, host="a")
        tracer.host_failed("a", 2.0)
        bundle = recorder.incidents[0]
        assert bundle["path"].endswith(".json")
        loaded = load_bundle(bundle["path"])
        assert loaded["incident_id"] == bundle["incident_id"]
        text = render_incident(loaded)
        assert bundle["incident_id"] in text
        assert "failed hosts: a" in text


class TestHostKillAcceptance:
    def test_host_kill_during_matmul_yields_incident_bundle(self, tmp_path):
        """The issue's acceptance scenario: kill a worker mid-matmul;
        the incident bundle carries merged cluster metrics at bucket
        level, the dead host's force-closed spans marked host_failed,
        and an SLO alert."""
        config = TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(
                monitor_period=0.02, probe_period=0.2,
                failure_timeout=0.1,
            ),
            incident_dir=str(tmp_path),
        )
        config.shell.rpc_timeout = 5.0
        # A threshold any real RPC breaches: guarantees an SLO alert
        # from the first latency window.
        tracer, runtime = run_traced_matmul(
            config, kill=("rachel", 0.06), after=1.0,
            slo=SLOWatcher(["rpc-p99: p99(rpc.latency:*) <= 1e-9 over 1"]))

        assert "rachel" in tracer.failed_hosts
        bundles = [b for b in runtime.flight.incidents
                   if b["trigger"] == ev.HOST_FAILED]
        assert len(bundles) == 1
        bundle = bundles[0]
        assert bundle["failed_hosts"] == ["rachel"]

        # Merged cluster metrics, bucket-level.
        metrics = bundle["metrics"]
        for name, value in metrics["merged"]["counters"].items():
            assert value == sum(host["counters"].get(name, 0.0)
                                for host in metrics["hosts"].values())
        assert metrics["merged"]["histograms"]
        some_hist = next(iter(metrics["merged"]["histograms"].values()))
        assert some_hist["buckets"]
        assert metrics["hosts"]

        # The dead host's spans were force-closed and marked.
        marked = [e for e in bundle["events"]
                  if e["host"] == "rachel"
                  and e["fields"].get("host_failed")]
        assert marked

        # An SLO alert fired before (or at) the capture...
        assert bundle["slo_alerts"]
        assert bundle["slo_alerts"][0]["rule"] == "rpc-p99"
        # ...and also produced its own trace event + incident.
        assert tracer.events_of(ev.SLO_ALERT)
        assert any(b["trigger"] == ev.SLO_ALERT
                   for b in runtime.flight.incidents)

        # Bundles landed on disk as loadable JSON.
        written = sorted(tmp_path.glob("*.json"))
        assert written
        loaded = load_bundle(str(written[0]))
        json.dumps(loaded)  # plain data
        assert render_incident(loaded)
