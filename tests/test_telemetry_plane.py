"""End-to-end tests for the cluster telemetry plane: NAS heartbeat
piggyback, SLO alerts, the flight recorder, and the Prometheus view."""

import json

import pytest

from repro.agents.nas import NASConfig
from repro.apps.matmul import MatmulConfig, run_matmul
from repro.cluster import TestbedConfig, vienna_testbed
from repro.obs import (
    FlightRecorder,
    Tracer,
    events as ev,
    load_bundle,
    merge_snapshots,
    render_incident,
    render_prom,
    tracing,
)


def run_traced_matmul(config, n=64, nodes=4, kill=None, after=0.0):
    """Matmul on a fresh traced testbed; optionally kill a host mid-run
    and keep the world going ``after`` extra simulated seconds."""
    with tracing(Tracer()) as tracer:
        runtime = vienna_testbed(config)
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


class TestHeartbeatPiggyback:
    def test_deltas_reach_domain_manager(self):
        config = TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(monitor_period=0.02, probe_period=5.0),
        )
        tracer, runtime = run_traced_matmul(config)
        cluster = runtime.nas.cluster_metrics()
        assert cluster is not None and cluster.ingested > 0
        # Every live host ships windows (empty deltas included).
        assert set(cluster.hosts()) == set(runtime.nas.known_hosts())
        merged = cluster.merged_snapshot()
        assert any(name.startswith("rpc.latency:")
                   for name in merged["histograms"])

    def test_aggregate_matches_per_host_registries(self):
        """What the NAS assembled from deltas equals the tracer's own
        per-host registries for everything that was shipped: the delta
        protocol loses nothing, bucket for bucket."""
        config = TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(monitor_period=0.02, probe_period=5.0),
        )
        tracer, runtime = run_traced_matmul(config, after=0.2)
        cluster = runtime.nas.cluster_metrics()
        for host in cluster.hosts():
            shipped = cluster.host_snapshot(host)
            live = tracer.host_metrics[host].snapshot() \
                if host in tracer.host_metrics \
                else {"counters": {}, "histograms": {}}
            for name, hist in shipped["histograms"].items():
                # Shipped view is a prefix of the live view: a final
                # partial window may not have been collected yet.
                assert name in live["histograms"]
                assert hist["count"] <= live["histograms"][name]["count"]
            for name, value in shipped["counters"].items():
                assert value <= live["counters"][name] + 1e-9

    def test_telemetry_off_ships_nothing(self):
        config = TestbedConfig(
            load_profile="dedicated", seed=5,
            nas=NASConfig(monitor_period=0.02, telemetry=False),
        )
        tracer, runtime = run_traced_matmul(config)
        assert runtime.nas.cluster_metrics() is None
        assert runtime.nas.slo is None
        assert "nas.telemetry.windows" not in \
            tracer.metrics.snapshot()["counters"]


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
        assert doc["source"] == "nas"
        # Hand-merge the per-host snapshots the document is built from.
        by_hand = merge_snapshots(
            runtime.nas.cluster_metrics().host_snapshot(h)
            for h in runtime.nas.cluster_metrics().hosts())
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
        tracer, recorder = self._tracer_with_recorder(min_interval=1.0)
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

    def test_detach_stops_captures(self):
        tracer, recorder = self._tracer_with_recorder()
        recorder.detach()
        tracer.host_failed("a", 1.0)
        assert not recorder.incidents


class TestSanitizerTriggers:
    def test_failure_hooks_fire_outside_lock(self):
        from repro.sanitizer import Sanitizer

        san = Sanitizer()
        seen = []
        san.failure_hooks.append(seen.append)
        san._emit("san-migrate-pending", "test finding", ("x.py", 1),
                  symbol="obj-1")
        assert len(seen) == 1
        assert seen[0].rule == "san-migrate-pending"

    def test_runtime_maps_findings_to_flight_triggers(self):
        from repro.obs.flight import TRIGGER_MIGRATE_PENDING
        from repro.sanitizer.core import Finding

        with tracing(Tracer()):
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=5)
            )
            for rule, trigger in (
                ("san-migrate-pending", TRIGGER_MIGRATE_PENDING),
                ("san-unrelated", None),
            ):
                before = len(runtime.flight.incidents)
                runtime._on_sanitizer_finding(Finding(
                    rule=rule, severity="error", path="x.py", line=1,
                    col=0, message="m", symbol="s"))
                grew = len(runtime.flight.incidents) - before
                assert grew == (1 if trigger else 0)
            triggers = [b["trigger"] for b in runtime.flight.incidents]
            assert triggers == [TRIGGER_MIGRATE_PENDING]


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
                # A threshold any real RPC breaches: guarantees an SLO
                # alert from the first ingested latency window.
                slo_rules=("rpc-p99: p99(rpc.latency:*) <= 1e-9 over 1",),
            ),
            incident_dir=str(tmp_path),
        )
        config.shell.rpc_timeout = 5.0
        tracer, runtime = run_traced_matmul(
            config, kill=("rachel", 0.06), after=1.0)

        assert "rachel" in tracer.failed_hosts
        bundles = [b for b in runtime.flight.incidents
                   if b["trigger"] == ev.HOST_FAILED]
        assert len(bundles) == 1
        bundle = bundles[0]
        assert bundle["failed_hosts"] == ["rachel"]

        # Merged cluster metrics, bucket-level.
        metrics = bundle["metrics"]
        assert metrics["source"] in ("nas", "tracer")
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
