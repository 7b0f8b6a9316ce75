"""Tests for the span layer: TraceContext propagation, critical path,
spans document, top frames, host-failure handling."""

import pytest

from repro.obs import (
    NULL_TRACER,
    Tracer,
    critical_path,
    current_context,
    events as ev,
    frames_from_trace,
    render_critical_path,
    render_span_tree,
    render_top,
    spans_document,
    tracing,
)


# ---------------------------------------------------------------------------
# span primitives
# ---------------------------------------------------------------------------


class TestSpanPrimitives:
    def test_emit_span_returns_context_and_records(self):
        tracer = Tracer()
        ctx = tracer.emit_span(ev.COMPUTE, ts=1.0, dur=0.5, host="h",
                               parent=None, flops=10)
        assert ctx.trace_id and ctx.span_id and ctx.parent_id is None
        (event,) = tracer.events
        assert event.ctx == ctx and event.dur == 0.5

    def test_begin_span_installs_context_and_end_restores(self):
        tracer = Tracer()
        assert current_context() is None
        outer = tracer.begin_span(ev.APP, ts=0.0, host="h", parent=None)
        assert current_context() == outer.ctx
        assert outer.ctx.span_id in tracer.open_spans
        inner = tracer.begin_span(ev.OBJ_INVOKE, ts=0.1, host="h")
        assert inner.ctx.parent_id == outer.ctx.span_id
        assert inner.ctx.trace_id == outer.ctx.trace_id
        tracer.end_span(inner, ts=0.2)
        assert current_context() == outer.ctx
        tracer.end_span(outer, ts=0.3)
        assert current_context() is None
        assert tracer.open_spans == {}
        invoke = tracer.events_of(ev.OBJ_INVOKE)[0]
        assert invoke.dur == pytest.approx(0.1)

    def test_uninstalled_span_leaves_current_context_alone(self):
        tracer = Tracer()
        span = tracer.begin_span(ev.OBJ_INVOKE, ts=0.0, host="h",
                                 parent=None, install=False)
        assert current_context() is None
        tracer.end_span(span, ts=0.1)
        assert current_context() is None

    def test_end_span_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin_span(ev.APP, ts=0.0, host="h", parent=None)
        tracer.end_span(span, ts=1.0)
        tracer.end_span(span, ts=2.0)  # no-op: already closed
        assert len(tracer.events_of(ev.APP)) == 1
        tracer.end_span(None, ts=3.0)  # no-op: disabled hook point

    def test_instants_inherit_current_span_context(self):
        tracer = Tracer()
        span = tracer.begin_span(ev.APP, ts=0.0, host="h", parent=None)
        tracer.emit(ev.OBJ_CREATE, ts=0.1, host="h", obj_id="o1")
        tracer.end_span(span, ts=0.2)
        create = tracer.events_of(ev.OBJ_CREATE)[0]
        assert create.ctx is not None
        assert create.ctx.span_id == span.ctx.span_id

    def test_null_tracer_span_api_allocates_nothing(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit_span(ev.COMPUTE, ts=0.0) is None
        assert NULL_TRACER.begin_span(ev.APP, ts=0.0) is None
        NULL_TRACER.end_span(None, ts=0.0)
        NULL_TRACER.host_failed("h", ts=0.0)
        assert current_context() is None


# ---------------------------------------------------------------------------
# traced matmul: the acceptance-criteria run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def matmul_tracer():
    from repro import TestbedConfig, vienna_testbed
    from repro.apps.matmul import MatmulConfig, run_matmul

    with tracing(Tracer()) as tracer:
        runtime = vienna_testbed(
            TestbedConfig(load_profile="dedicated", seed=3)
        )
        runtime.run_app(
            lambda: run_matmul(
                MatmulConfig(n=32, nr_nodes=3, real_compute=False)
            )
        )
    return tracer


class TestReplyAncestry:
    def test_every_cross_host_reply_descends_from_its_request(
        self, matmul_tracer
    ):
        tracer = matmul_tracer
        by_id = {e.ctx.span_id: e for e in tracer.events
                 if e.ctx is not None}
        requests = {e.fields["msg_id"]: e
                    for e in tracer.events_of(ev.RPC_REQUEST)}
        replies = tracer.events_of(ev.RPC_REPLY)
        assert replies, "traced matmul produced no replies"
        cross_host = 0
        for reply in replies:
            request = requests[reply.fields["msg_id"]]
            if request.host == reply.host:
                continue
            cross_host += 1
            assert reply.ctx is not None
            assert reply.ctx.trace_id == request.ctx.trace_id
            # Walk the parent chain; the requesting span must appear.
            chain = []
            node = reply.ctx
            while node is not None and node.parent_id is not None:
                parent = by_id.get(node.parent_id)
                assert parent is not None, (
                    f"broken parent chain at {node.parent_id}"
                )
                assert parent.ctx.trace_id == reply.ctx.trace_id
                chain.append(parent)
                node = parent.ctx
            assert request in chain, (
                f"request {request.fields['msg_id']} is not an ancestor "
                f"of its reply"
            )
        assert cross_host > 0, "no cross-host RPCs in traced matmul"

    def test_invocation_span_is_ancestor_of_its_request(
        self, matmul_tracer
    ):
        tracer = matmul_tracer
        by_id = {e.ctx.span_id: e for e in tracer.events
                 if e.ctx is not None}
        invokes = tracer.events_of(ev.OBJ_INVOKE)
        assert invokes
        # matmul hands its tasks out via minvoke, so the invocation
        # requests travel as INVOKE_BATCH under obj.invoke.batch spans.
        owners = {
            "INVOKE": ev.OBJ_INVOKE,
            "INVOKE_BATCH": ev.OBJ_INVOKE_BATCH,
        }
        found = 0
        for request in tracer.events_of(ev.RPC_REQUEST):
            owner = owners.get(request.fields["kind"])
            if owner is None:
                continue
            parent = by_id.get(request.ctx.parent_id)
            while parent is not None and parent.etype != owner:
                parent = by_id.get(parent.ctx.parent_id)
            assert parent is not None
            found += 1
        assert found > 0

    def test_app_root_span_owns_the_main_trace(self, matmul_tracer):
        apps = matmul_tracer.events_of(ev.APP)
        assert len(apps) == 1
        (app,) = apps
        assert app.ctx.parent_id is None
        spans_in_trace = [
            e for e in matmul_tracer.events
            if e.ctx is not None and e.ctx.trace_id == app.ctx.trace_id
        ]
        # The application trace dominates the run.
        assert len(spans_in_trace) > 50


class TestCriticalPath:
    def test_segments_tile_the_makespan(self, matmul_tracer):
        cp = critical_path(matmul_tracer)
        assert cp is not None
        total = sum(seg.dur for seg in cp.segments)
        assert total == pytest.approx(cp.makespan, rel=0.01)
        # Segments are contiguous and ordered.
        for a, b in zip(cp.segments, cp.segments[1:]):
            assert b.start == pytest.approx(a.end, abs=1e-9)
        assert cp.segments[0].start == pytest.approx(cp.trace_start)
        assert cp.segments[-1].end == pytest.approx(cp.trace_end)

    def test_totals_cover_expected_categories(self, matmul_tracer):
        cp = critical_path(matmul_tracer)
        totals = cp.totals()
        assert sum(totals.values()) == pytest.approx(cp.makespan,
                                                     rel=0.01)
        # A distributed matmul is network- and compute-bound.
        assert totals.get("network", 0.0) > 0.0
        assert totals.get("compute", 0.0) > 0.0

    def test_renderers_produce_text(self, matmul_tracer):
        cp = critical_path(matmul_tracer)
        text = render_critical_path(cp)
        assert "Critical path" in text
        assert "makespan" in text
        tree = render_span_tree(matmul_tracer)
        assert "app" in tree and "rpc.request" in tree

    def test_spans_document_shape(self, matmul_tracer):
        import json

        doc = spans_document(matmul_tracer, with_critical_path=True)
        json.dumps(doc)  # JSON-serializable all the way down
        assert doc["span_count"] == len(doc["spans"])
        assert doc["trace_id"]
        for span in doc["spans"]:
            assert {"trace_id", "span_id", "etype", "ts", "dur",
                    "host"} <= set(span)
        segs = doc["critical_path"]["segments"]
        total = sum(s["dur"] for s in segs)
        assert total == pytest.approx(doc["makespan"], rel=0.01)


class TestTopFrames:
    def test_frames_reconstruct_per_host_activity(self, matmul_tracer):
        frames = frames_from_trace(matmul_tracer, max_frames=6)
        assert frames
        hosts = {row.host for f in frames for row in f.rows}
        assert {"milena"} <= hosts
        # Somebody computed and somebody sent RPCs in some window.
        assert any(row.cpu_busy > 0 for f in frames for row in f.rows)
        assert any(row.rpc_tx > 0 for f in frames for row in f.rows)
        text = render_top(frames)
        assert "js-top" in text and "in-flight" in text

# ---------------------------------------------------------------------------
# async continuation + spawn propagation
# ---------------------------------------------------------------------------


class TestAsyncPropagation:
    def test_obj_wait_parents_under_the_async_invocation(self):
        from repro import (
            JSCodebase,
            JSObj,
            JSRegistration,
            TestbedConfig,
            vienna_testbed,
        )
        from tests.conftest import Counter  # noqa: F401

        with tracing(Tracer()) as tracer:
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=7)
            )

            def app():
                reg = JSRegistration()
                cb = JSCodebase()
                cb.add(Counter)
                cb.load(["rachel"])
                obj = JSObj("Counter", "rachel")
                handle = obj.ainvoke("incr")
                assert handle.ctx is not None
                handle.get_result()
                obj.free()
                reg.unregister()

            runtime.run_app(app)

        waits = tracer.events_of(ev.OBJ_WAIT)
        assert waits, "blocking get_result recorded no obj.wait span"
        invokes = {e.ctx.span_id: e
                   for e in tracer.events_of(ev.OBJ_INVOKE)}
        for wait in waits:
            parent = invokes.get(wait.ctx.parent_id)
            assert parent is not None
            assert parent.fields["mode"] == "async"
            assert wait.ctx.trace_id == parent.ctx.trace_id

    def test_spawned_process_inherits_span_context(self):
        from repro.kernel.virtual import VirtualKernel

        with tracing(Tracer()) as tracer:
            kernel = VirtualKernel(strict=True)
            kernel.tracer = tracer

            def child():
                tracer.emit(ev.OBJ_CREATE, ts=kernel.now(), host="h",
                            obj_id="o1")

            def parent():
                span = tracer.begin_span(ev.APP, ts=kernel.now(),
                                         host="h", parent=None)
                kernel.spawn(child, name="child")
                kernel.sleep(0.01)
                tracer.end_span(span, ts=kernel.now())

            main = kernel.spawn(parent, name="parent")
            kernel.run(main=main)

        app_span = tracer.events_of(ev.APP)[0]
        create = tracer.events_of(ev.OBJ_CREATE)[0]
        assert create.ctx is not None
        assert create.ctx.trace_id == app_span.ctx.trace_id
        assert create.ctx.span_id == app_span.ctx.span_id

    def test_local_oneway_span_covers_dispatch(self):
        """The oinvoke local fast path hands its span to the fired
        worker: the span must stay open across the dispatch (it used to
        be closed by the issuing caller at fire time, recording ~zero
        duration and orphaning the dispatch span)."""
        from repro import (
            JSCodebase,
            JSObj,
            JSRegistration,
            TestbedConfig,
            vienna_testbed,
        )
        from tests.conftest import Spinner  # noqa: F401

        with tracing(Tracer()) as tracer:
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=7)
            )
            kernel = runtime.world.kernel

            def app():
                reg = JSRegistration()
                obj = JSObj("Spinner", "local")
                obj.oinvoke("spin", [30e6])
                kernel.sleep(10.0)  # let the fired worker finish
                obj.free()
                reg.unregister()

            runtime.run_app(app)

        oneways = [e for e in tracer.events_of(ev.OBJ_INVOKE)
                   if e.fields.get("mode") == "oneway"]
        assert oneways, "local oinvoke recorded no oneway span"
        (oneway,) = oneways
        dispatches = [e for e in tracer.events_of(ev.OBJ_DISPATCH)
                      if e.ctx.parent_id == oneway.ctx.span_id]
        assert dispatches, "dispatch span not parented under the oneway"
        # The span brackets the modelled compute, not just the issue.
        assert oneway.dur >= dispatches[0].dur > 0.0

    def test_batch_span_parents_per_call_spans(self):
        """minvoke: one obj.invoke.batch span per destination group,
        with every per-call obj.invoke span (mode=batch) as a child,
        plus the batching counters."""
        from repro import (
            JSCodebase,
            JSObj,
            JSRegistration,
            TestbedConfig,
            vienna_testbed,
        )
        from tests.conftest import Counter  # noqa: F401

        with tracing(Tracer()) as tracer:
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=7)
            )

            def app():
                reg = JSRegistration()
                cb = JSCodebase()
                cb.add(Counter)
                cb.load(["rachel"])
                obj = JSObj("Counter", "rachel")
                assert obj.minvoke(
                    "incr", [[1], [2], [3]]
                ).get_results() == [1, 3, 6]
                obj.free()
                reg.unregister()

            runtime.run_app(app)

        batches = tracer.events_of(ev.OBJ_INVOKE_BATCH)
        assert len(batches) == 1
        (batch,) = batches
        assert batch.fields["size"] == 3
        calls = [e for e in tracer.events_of(ev.OBJ_INVOKE)
                 if e.fields.get("mode") == "batch"]
        assert len(calls) == 3
        for call in calls:
            assert call.ctx.parent_id == batch.ctx.span_id
            assert call.ctx.trace_id == batch.ctx.trace_id
        assert tracer.metrics.counter("invoke.batched") == 3
        assert tracer.metrics.counter("invoke.batch.messages") == 1
        assert tracer.metrics.counter("invoke.batch.dispatched") == 3
        hist = tracer.metrics.histogram("batch.size")
        assert hist is not None


# ---------------------------------------------------------------------------
# host failure
# ---------------------------------------------------------------------------


class TestHostFailure:
    def test_open_spans_on_failed_host_are_closed_and_marked(self):
        from repro.kernel.virtual import VirtualKernel
        from repro.simnet import HostSpec, SimWorld

        with tracing(Tracer()) as tracer:
            world = SimWorld(VirtualKernel(strict=True), seed=0)
            from repro.simnet.topology import Segment

            world.add_segment(Segment("s", bandwidth_mbits=100.0))
            world.add_machine(
                HostSpec(name="doomed", model="test", mflops=100.0), "s"
            )
            world.add_machine(
                HostSpec(name="fine", model="test", mflops=100.0), "s"
            )

            def app():
                tracer.begin_span(ev.OBJ_DISPATCH, ts=world.now(),
                                  host="doomed", actor="oa@doomed",
                                  parent=None, install=False)
                survivor = tracer.begin_span(
                    ev.APP, ts=world.now(), host="fine", parent=None,
                    install=False,
                )
                world.kernel.sleep(1.0)
                world.fail_host("doomed")
                # Later events from the dead host are marked, not lost.
                tracer.emit(ev.RPC_DROP, ts=world.now(), host="doomed",
                            kind="INVOKE")
                tracer.end_span(survivor, ts=world.now())

            main = world.kernel.spawn(app, name="app")
            world.kernel.run(main=main)

        dispatches = tracer.events_of(ev.OBJ_DISPATCH)
        assert len(dispatches) == 1
        (dispatch,) = dispatches
        assert dispatch.fields["host_failed"] is True
        assert dispatch.ctx is not None  # span context kept
        assert dispatch.dur == pytest.approx(1.0)
        failed = tracer.events_of(ev.HOST_FAILED)
        assert len(failed) == 1 and failed[0].host == "doomed"
        drop = tracer.events_of(ev.RPC_DROP)[0]
        assert drop.fields["host_failed"] is True
        # The survivor span on the healthy host stays unmarked.
        app_event = tracer.events_of(ev.APP)[0]
        assert "host_failed" not in app_event.fields
        assert tracer.open_spans == {}

    def test_nas_failure_run_keeps_span_contexts(self):
        from repro import TestbedConfig, vienna_testbed

        with tracing(Tracer()) as tracer:
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=5)
            )
            runtime.nas.config.monitor_period = 0.05
            runtime.nas.config.probe_period = 0.05
            runtime.nas.config.failure_timeout = 0.2
            runtime.world.schedule_failure("rachel", at=0.3)

            def app():
                runtime.world.kernel.sleep(2.0)

            runtime.run_app(app)

        failed = tracer.events_of(ev.HOST_FAILED)
        assert any(e.host == "rachel" for e in failed)
        marked = [e for e in tracer.events
                  if e.fields.get("host_failed")]
        for event in marked:
            assert event.host == "rachel"
        # Marked span events still carry their trace context.
        assert all(e.ctx is not None for e in marked
                   if e.etype == ev.NAS_SAMPLE)
        # No span from the dead host is left dangling open.
        assert not any(s.host == "rachel"
                       for s in tracer.open_spans.values())
