"""Tests for repro.obs: tracer, metrics, exporters, runtime integration."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    Histogram,
    Metrics,
    Tracer,
    current_tracer,
    events as ev,
    render_summary,
    set_tracer,
    snapshot_document,
    to_chrome_trace,
    tracing,
)


class TestTracerBasics:
    def test_null_tracer_is_disabled_and_silent(self):
        NULL_TRACER.emit("rpc.request", ts=0.0, kind="X")
        NULL_TRACER.count("anything")
        NULL_TRACER.observe("anything", 1.0)
        assert NULL_TRACER.enabled is False

    def test_tracer_records_events(self):
        tracer = Tracer()
        tracer.emit(ev.RPC_REQUEST, ts=1.0, host="h1", actor="a",
                    dur=0.5, kind="ECHO", nbytes=10)
        tracer.emit(ev.RPC_DROP, ts=2.0, host="h1", kind="ECHO")
        assert len(tracer.events) == 2
        span, drop = tracer.events
        assert span.is_span and span.dur == 0.5
        assert not drop.is_span
        assert span.fields["kind"] == "ECHO"
        assert tracer.events_of(ev.RPC_DROP) == [drop]

    def test_ambient_installation(self):
        assert current_tracer() is NULL_TRACER
        with tracing() as tracer:
            assert current_tracer() is tracer
            with tracing(Tracer()) as inner:
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        set_tracer(Tracer())
        try:
            assert current_tracer() is not NULL_TRACER
        finally:
            set_tracer(None)
        assert current_tracer() is NULL_TRACER

    def test_nested_installs_restore_in_order(self):
        outer, mid, inner = Tracer(), Tracer(), Tracer()
        with tracing(outer):
            with tracing(mid):
                with tracing(inner):
                    assert current_tracer() is inner
                assert current_tracer() is mid
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_reentrant_install_of_same_tracer(self):
        tracer = Tracer()
        with tracing(tracer):
            with tracing(tracer) as again:
                assert again is tracer
                assert current_tracer() is tracer
            # Inner exit restores the outer install of the same tracer.
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER


class TestRingBuffer:
    def test_cap_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(max_events=3)
        for i in range(5):
            tracer.emit(ev.OBJ_CREATE, ts=float(i), host="h",
                        obj_id=f"o{i}")
        assert len(tracer.events) == 3
        assert tracer.dropped_events == 2
        assert [e.fields["obj_id"] for e in tracer.events] == [
            "o2", "o3", "o4",
        ]

    def test_etype_index_tracks_eviction(self):
        tracer = Tracer(max_events=2)
        tracer.emit(ev.OBJ_CREATE, ts=0.0, obj_id="o1")
        tracer.emit(ev.RPC_DROP, ts=1.0, kind="X")
        tracer.emit(ev.OBJ_CREATE, ts=2.0, obj_id="o2")  # evicts o1
        assert [e.fields["obj_id"]
                for e in tracer.events_of(ev.OBJ_CREATE)] == ["o2"]
        assert len(tracer.events_of(ev.RPC_DROP)) == 1
        assert tracer.dropped_events == 1

    def test_uncapped_tracer_never_drops(self):
        tracer = Tracer()
        for i in range(1000):
            tracer.emit(ev.OBJ_CREATE, ts=float(i), obj_id=str(i))
        assert len(tracer.events) == 1000
        assert tracer.dropped_events == 0
        assert len(tracer.events_of(ev.OBJ_CREATE)) == 1000

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)

    def test_summary_reports_evictions(self):
        from repro.obs import render_summary

        tracer = Tracer(max_events=1)
        tracer.emit(ev.OBJ_CREATE, ts=0.0, obj_id="o1")
        tracer.emit(ev.OBJ_CREATE, ts=1.0, obj_id="o2")
        assert "evicted by max_events" in render_summary(
            snapshot_document(tracer))


class TestMetrics:
    def test_counters(self):
        m = Metrics()
        m.count("x")
        m.count("x", 2.5)
        assert m.counter("x") == 3.5
        assert m.counter("missing") == 0.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 3
        assert h.min == 1.0 and h.max == 4.0
        assert h.mean == pytest.approx(7.0 / 3)
        assert sum(h.buckets.values()) == 3

    def test_percentiles_from_log2_buckets(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        # Bucketed estimates: right bucket, interpolated within it.
        assert h.p50 == pytest.approx(50.0, rel=0.5)
        assert h.p95 == pytest.approx(95.0, rel=0.5)
        assert h.p99 == pytest.approx(99.0, rel=0.5)
        assert h.p50 <= h.p95 <= h.p99
        # Estimates never leave the observed range.
        assert 1.0 <= h.p50 and h.p99 <= 100.0

    def test_percentile_edge_cases(self):
        h = Histogram()
        assert h.percentile(0.5) == 0.0  # empty
        h.observe(3.0)
        assert h.p50 == pytest.approx(3.0)
        assert h.p99 == pytest.approx(3.0)
        h2 = Histogram()
        h2.observe(0.0)
        h2.observe(0.0)
        assert h2.p95 == 0.0

    def test_snapshot_includes_percentiles(self):
        m = Metrics()
        for v in (1.0, 2.0, 4.0, 8.0):
            m.observe("lat", v)
        snap = m.snapshot()["histograms"]["lat"]
        assert {"p50", "p95", "p99"} <= set(snap)
        assert snap["p50"] <= snap["p95"] <= snap["p99"]

    def test_snapshot_is_plain_data(self):
        m = Metrics()
        m.count("c", 2)
        m.observe("lat", 0.25)
        snap = m.snapshot()
        json.dumps(snap)  # picklable/serializable plain dicts
        assert snap["counters"]["c"] == 2
        assert snap["histograms"]["lat"]["count"] == 1


class TestChromeExport:
    def test_span_and_instant_shapes(self):
        tracer = Tracer()
        tracer.emit(ev.RPC_REQUEST, ts=0.001, host="h1", actor="cli@h1",
                    dur=0.002, kind="ECHO")
        tracer.emit(ev.OBJ_CREATE, ts=0.005, host="h2", actor="oa",
                    obj_id="o1")
        data = to_chrome_trace(snapshot_document(tracer))
        events = data["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        instants = [e for e in events if e.get("ph") == "i"]
        metas = [e for e in events if e.get("ph") == "M"]
        assert len(spans) == 1 and len(instants) == 1
        assert spans[0]["ts"] == pytest.approx(1000.0)   # µs
        assert spans[0]["dur"] == pytest.approx(2000.0)
        assert spans[0]["cat"] == "rpc"
        # pid/tid metadata names both hosts and both actors
        named = {m["args"]["name"] for m in metas}
        assert {"h1", "h2", "cli@h1", "oa"} <= named
        json.dumps(data)  # valid JSON all the way down

    def test_summary_renders_sections(self):
        tracer = Tracer()
        tracer.emit(ev.RPC_REQUEST, ts=0.0, dur=0.001, kind="ECHO",
                    nbytes=100)
        tracer.observe("rpc.latency:ECHO", 0.002)
        tracer.emit(ev.MIGRATE, ts=0.0, dur=0.01, obj_id="o1",
                    src="a", dst="b")
        tracer.emit(ev.MIGRATE_STEP, ts=0.0, obj_id="o1", step="quiesced")
        tracer.count("proc.spawned", 3)
        text = render_summary(snapshot_document(tracer))
        assert "ECHO" in text
        assert "Migrations" in text
        assert "quiesced" in text
        assert "proc.spawned" in text

    def test_summary_empty_tracer(self):
        assert "no events" in render_summary(snapshot_document(Tracer()))


class TestRuntimeIntegration:
    def test_world_adopts_ambient_tracer(self):
        from repro.kernel import VirtualKernel
        from repro.simnet import SimWorld

        with tracing() as tracer:
            world = SimWorld(VirtualKernel(strict=True), seed=0)
            assert world.tracer is tracer
            assert world.kernel.tracer is tracer
        # Built outside the context: null again.
        world2 = SimWorld(VirtualKernel(strict=True), seed=0)
        assert world2.tracer is NULL_TRACER

    def test_traced_app_produces_rpc_and_object_events(self):
        from repro import (
            JSCodebase,
            JSObj,
            JSRegistration,
            TestbedConfig,
            vienna_testbed,
        )
        from tests.conftest import Counter  # noqa: F401

        with tracing() as tracer:
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=7)
            )

            def app():
                reg = JSRegistration()
                cb = JSCodebase()
                cb.add(Counter)
                cb.load(["rachel", "theresa"])
                obj = JSObj("Counter", "rachel")
                obj.sinvoke("incr")
                handle = obj.ainvoke("incr")
                handle.get_result()
                obj.migrate("theresa")
                obj.sinvoke("incr")
                obj.free()
                reg.unregister()

            runtime.run_app(app)

        etypes = {e.etype for e in tracer.events}
        assert ev.RPC_REQUEST in etypes
        assert ev.RPC_REPLY in etypes
        assert ev.RPC_EXEC in etypes
        assert ev.OBJ_CREATE in etypes
        assert ev.OBJ_INVOKE in etypes
        assert ev.OBJ_DISPATCH in etypes
        assert ev.MIGRATE in etypes
        assert ev.PROC_SPAWN in etypes
        # The full Figure-3 step sequence shows up, in order.
        steps = [e.fields["step"]
                 for e in tracer.events_of(ev.MIGRATE_STEP)]
        assert steps.index("out-start") < steps.index("quiesced")
        assert steps.index("quiesced") < steps.index("pushed")
        assert "adopted" in steps and "tombstone" in steps
        # Latency histograms exist for the invoke kinds used.
        snap = tracer.metrics.snapshot()
        assert any(name.startswith("rpc.latency:")
                   for name in snap["histograms"])
        # Timestamps are simulated seconds: monotone non-negative and
        # bounded by the final virtual clock.
        ts = [e.ts for e in tracer.events]
        assert min(ts) >= 0.0
        assert max(ts) <= runtime.world.now() + 1e-9

    def test_untraced_runtime_records_nothing(self):
        from repro import TestbedConfig, vienna_testbed

        runtime = vienna_testbed(
            TestbedConfig(load_profile="dedicated", seed=7)
        )
        assert runtime.world.tracer is NULL_TRACER


class TestHistogramMerge:
    """Satellite fix: snapshots must preserve the raw bucket table and
    merged histograms must behave exactly like observing the union."""

    def test_snapshot_preserves_buckets(self):
        h = Histogram()
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert sum(snap["buckets"].values()) == 4
        assert snap["buckets"] == dict(h.buckets)

    def test_from_snapshot_round_trip(self):
        h = Histogram()
        for v in (0.001, 0.25, 7.0, 7.0, 1e6):
            h.observe(v)
        clone = Histogram.from_snapshot(h.snapshot())
        assert clone.count == h.count
        assert clone.total == pytest.approx(h.total)
        assert clone.min == h.min and clone.max == h.max
        assert dict(clone.buckets) == dict(h.buckets)
        assert clone.p99 == pytest.approx(h.p99)

    def test_merge_equals_union(self):
        import math

        a, b, union = Histogram(), Histogram(), Histogram()
        xs = [0.1, 0.2, 0.4, 3.0, 9.0]
        ys = [0.05, 5.0, 80.0]
        for v in xs:
            a.observe(v); union.observe(v)
        for v in ys:
            b.observe(v); union.observe(v)
        a.merge(b)
        assert a.count == union.count
        # Sums may differ by float summation order only.
        assert math.isclose(a.total, union.total)
        assert a.min == union.min and a.max == union.max
        assert dict(a.buckets) == dict(union.buckets)
        # Same buckets => identical interpolated percentiles.
        assert a.p50 == pytest.approx(union.p50)
        assert a.p99 == pytest.approx(union.p99)

    def test_merge_empty_cases(self):
        a, b = Histogram(), Histogram()
        a.merge(b)
        assert a.count == 0
        b.observe(2.0)
        a.merge(b)
        assert a.count == 1 and a.min == 2.0 and a.max == 2.0
        empty = Histogram()
        a.merge(empty)
        assert a.count == 1

    def test_metrics_merge_snapshot(self):
        import math

        m1, m2 = Metrics(), Metrics()
        m1.count("rpc", 3)
        m2.count("rpc", 2)
        m2.count("only2", 1)
        m1.observe("lat", 1.0)
        m2.observe("lat", 4.0)
        m2.observe("other", 0.5)
        m1.merge_snapshot(m2.snapshot())
        assert m1.counter("rpc") == 5
        assert m1.counter("only2") == 1
        lat = m1.snapshot()["histograms"]["lat"]
        assert lat["count"] == 2
        assert math.isclose(lat["sum"], 5.0)
        assert lat["min"] == 1.0 and lat["max"] == 4.0
        assert m1.snapshot()["histograms"]["other"]["count"] == 1

    def test_merge_snapshots_helper(self):
        from repro.obs import merge_snapshots

        snaps = []
        for base in (1.0, 10.0, 100.0):
            m = Metrics()
            m.count("c")
            m.observe("h", base)
            snaps.append(m.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["counters"]["c"] == 3
        h = merged["histograms"]["h"]
        assert h["count"] == 3
        assert h["min"] == 1.0 and h["max"] == 100.0


class TestHistogramMergeProperties:
    """Hypothesis: count/min/max/buckets exact under merge; percentiles
    within one log2 bucket of the union's; merge is commutative and
    associative at the bucket level."""

    from hypothesis import given, settings, strategies as st

    values = st.lists(
        st.floats(min_value=1e-6, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        max_size=40,
    )

    @staticmethod
    def _fill(vs):
        h = Histogram()
        for v in vs:
            h.observe(v)
        return h

    @given(xs=values, ys=values)
    @settings(max_examples=60, deadline=None)
    def test_merge_matches_union(self, xs, ys):
        import math

        merged = self._fill(xs)
        merged.merge(self._fill(ys))
        union = self._fill(xs + ys)
        assert merged.count == union.count
        assert math.isclose(merged.total, union.total, rel_tol=1e-9,
                            abs_tol=1e-12)
        if xs or ys:
            assert merged.min == union.min
            assert merged.max == union.max
        assert dict(merged.buckets) == dict(union.buckets)
        for q in (0.5, 0.95, 0.99):
            assert merged.percentile(q) == pytest.approx(
                union.percentile(q))

    @given(xs=values, ys=values)
    @settings(max_examples=40, deadline=None)
    def test_merge_commutative(self, xs, ys):
        ab = self._fill(xs); ab.merge(self._fill(ys))
        ba = self._fill(ys); ba.merge(self._fill(xs))
        assert ab.count == ba.count
        assert dict(ab.buckets) == dict(ba.buckets)
        assert ab.min == ba.min and ab.max == ba.max

    @given(xs=values, ys=values, zs=values)
    @settings(max_examples=40, deadline=None)
    def test_merge_associative(self, xs, ys, zs):
        left = self._fill(xs)
        left.merge(self._fill(ys))
        left.merge(self._fill(zs))
        inner = self._fill(ys)
        inner.merge(self._fill(zs))
        right = self._fill(xs)
        right.merge(inner)
        assert left.count == right.count
        assert dict(left.buckets) == dict(right.buckets)
        assert left.min == right.min and left.max == right.max

    @given(xs=values)
    @settings(max_examples=40, deadline=None)
    def test_percentile_within_one_bucket_of_exact(self, xs):
        import math

        if not xs:
            return
        h = self._fill(xs)
        exact = sorted(xs)
        for q in (0.5, 0.95, 0.99):
            est = h.percentile(q)
            rank = min(len(exact) - 1,
                       max(0, math.ceil(q * len(exact)) - 1))
            true = exact[rank]
            # The estimate lands in the true value's log2 bucket (or at
            # a clamped extreme): within a factor of 2 either side.
            assert est <= true * 2.0 + 1e-12
            assert est >= true / 2.0 - 1e-12
            assert h.min <= est <= h.max


class TestSnapshotDelta:
    def test_delta_ships_only_growth(self):
        from repro.obs.slo import _snapshot_delta as snapshot_delta

        m = Metrics()
        m.count("a", 2)
        m.observe("h", 1.0)
        first = m.snapshot()
        d0 = snapshot_delta(first, None)
        assert d0["counters"]["a"] == 2
        assert d0["histograms"]["h"]["count"] == 1
        m.count("a")
        m.observe("h", 8.0)
        second = m.snapshot()
        d1 = snapshot_delta(second, first)
        assert d1["counters"] == {"a": 1}
        assert d1["histograms"]["h"]["count"] == 1
        # No growth at all -> empty delta.
        assert snapshot_delta(second, second) == {
            "counters": {}, "histograms": {}}

    def test_delta_sequence_reconstructs_cumulative(self):
        import math

        from repro.obs.slo import _snapshot_delta as snapshot_delta

        m = Metrics()
        deltas, last = [], None
        for batch in ([0.5, 2.0], [64.0], [], [0.25, 0.25, 1.5]):
            for v in batch:
                m.observe("h", v)
            m.count("n", len(batch))
            snap = m.snapshot()
            deltas.append(snapshot_delta(snap, last))
            last = snap
        replay = Metrics()
        for d in deltas:
            replay.merge_snapshot(d)
        got = replay.snapshot()["histograms"]["h"]
        want = m.snapshot()["histograms"]["h"]
        assert got["count"] == want["count"]
        assert math.isclose(got["sum"], want["sum"])
        assert got["min"] == want["min"] and got["max"] == want["max"]
        assert got["buckets"] == want["buckets"]
        assert replay.counter("n") == m.counter("n")
