"""The recording tracer's ring is compact, and reads back as it was.

``Tracer`` keeps one flat tuple per event (layout in
:mod:`repro.obs.tracer`), not a ``TraceEvent`` with a field dict and a
``TraceContext``.  These tests pin what that buys and what it must not
change:

* the memory a traced ``sinvoke`` loop retains per recorded event,
  measured with ``tracemalloc`` after a collection (about 310 B; a
  ``TraceEvent`` per event retained about 550 B);
* ring records whose field values are scalars are not tracked by the
  garbage collector once a collection has seen them;
* the holder's ``obj.dispatch`` and ``lock.wait`` records share one
  ``obj_id`` and one ``method`` string across calls, rather than each
  keeping the copy its request decoded;
* ``tracer.events`` reads back, field for field and in field order,
  the ``TraceEvent`` the recording call describes — under ``max_events``
  eviction, with ``host_failed`` marks and ``end_span`` field merges.
"""

import gc
import os
import tracemalloc
from collections import deque

import repro.sanitizer
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.obs import TraceContext, TraceEvent, Tracer, tracing
from repro.obs.events import (
    ETYPE,
    HOST_FAILED,
    HOST_RESTARTED,
    KEYS,
    LOCK_WAIT,
    OBJ_DISPATCH,
    record_fields,
)
from tests.conftest import Counter, Spinner
from tests.test_trace_golden import traced_run

#: retained bytes per recorded event a traced sync call may cost
BYTES_PER_EVENT = 350

_SCALARS = (str, int, float, bool, type(None))

#: what the symsan sanitizer keeps per event under ``REPRO_SAN=1`` is
#: its own bookkeeping, not the ring's
_NOT_SANITIZER = [tracemalloc.Filter(
    False, os.path.join(os.path.dirname(repro.sanitizer.__file__), "*"))]


def _traced_bytes() -> int:
    """Bytes ``tracemalloc`` holds as allocated, outside the sanitizer."""
    snapshot = tracemalloc.take_snapshot().filter_traces(_NOT_SANITIZER)
    return sum(stat.size for stat in snapshot.statistics("filename"))


def _retained_per_event(calls: int) -> float:
    """Bytes a traced ``sinvoke`` loop retains per event it records,
    after warm-up, with the metrics backlog folded at both readings."""
    with tracing(Tracer()) as tracer:
        rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))
    measured = {}

    def app():
        reg = JSRegistration()
        codebase = JSCodebase()
        codebase.add(Counter)
        codebase.load(["rachel"])
        obj = JSObj("Counter", "rachel")

        def sync_calls(n):
            # One blocking round trip per call is the workload measured.
            for _ in range(n):
                # symlint: disable-next-line=remote-invoke-in-loop
                obj.sinvoke("get")

        sync_calls(100)
        tracer.host_metrics
        gc.collect()
        tracemalloc.start()
        try:
            events = len(tracer.events)
            before = _traced_bytes()
            sync_calls(calls)
            tracer.host_metrics
            gc.collect()
            measured["bytes"] = _traced_bytes() - before
            measured["events"] = len(tracer.events) - events
        finally:
            tracemalloc.stop()
        reg.unregister()

    rt.run_app(app, node="milena")
    assert measured["events"] >= 8 * calls
    return measured["bytes"] / measured["events"]


def test_a_recorded_event_retains_at_most_350_bytes():
    per_event = _retained_per_event(600)
    assert per_event <= BYTES_PER_EVENT, (
        f"{per_event:.0f} B retained per recorded event "
        f"(limit {BYTES_PER_EVENT})")


def test_scalar_records_are_not_gc_tracked():
    tracer = Tracer()
    traced_run(tracer)
    gc.collect()
    scalar = [record for record in tracer.records
              if all(isinstance(v, _SCALARS) for v in record[KEYS + 1:])]
    assert len(scalar) >= 0.9 * len(tracer.records)
    assert not any(gc.is_tracked(record) for record in scalar)


def test_holder_records_share_their_strings():
    """6 traced calls of one method on one object, 5 of them queued
    behind a running one, keep one ``method`` and one ``obj_id`` object
    in the ring's ``obj.dispatch`` and ``lock.wait`` records."""
    with tracing(Tracer()) as tracer:
        rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))

    def app():
        reg = JSRegistration()
        codebase = JSCodebase()
        codebase.add(Spinner)
        codebase.load(["rachel"])
        spinner = JSObj("Spinner", "rachel")
        handles = [spinner.ainvoke("spin", [1e6]) for _ in range(6)]
        for handle in handles:
            handle.get_result()
        reg.unregister()

    rt.run_app(app, node="milena")
    for etype, calls in ((OBJ_DISPATCH, 6), (LOCK_WAIT, 5)):
        fields = [record_fields(r) for r in tracer.records
                  if r[ETYPE] == etype]
        assert len(fields) == calls, etype
        assert len({id(f["method"]) for f in fields}) == 1, etype
        assert len({id(f["obj_id"]) for f in fields}) == 1, etype


class ShadowTracer(Tracer):
    """A tracer that also keeps the ``TraceEvent`` ring a recording used
    to keep: the same field dict and context object, appended in the
    same order and evicted at the same bound."""

    def __init__(self, max_events=None):
        super().__init__(max_events)
        self.shadow = deque(maxlen=max_events)

    def _record(self, etype, ts, host, actor, dur, ctx, fields):
        # Appended first: a trigger inside ``_record`` may record more.
        self.shadow.append(TraceEvent(ts, etype, host, actor, dur, fields,
                                      ctx))
        super()._record(etype, ts, host, actor, dur, ctx, fields)


def test_events_read_back_the_old_ring_on_a_run():
    tracer = ShadowTracer(max_events=300)
    traced_run(tracer)
    assert tracer.dropped_events == 1323 - 300
    assert len(tracer.events) == len(tracer.shadow) == 300
    # repr covers the field order; == compares the contexts as tuples
    assert [repr(e) for e in tracer.events] == [
        repr(e) for e in tracer.shadow]
    assert list(tracer.events) == list(tracer.shadow)
    assert tracer.events[0] == tracer.shadow[0]
    assert tracer.events[-1] == tracer.shadow[-1]
    assert tracer.events[10:13] == list(tracer.shadow)[10:13]
    for etype in {e.etype for e in tracer.shadow}:
        assert tracer.events_of(etype) == [
            e for e in tracer.shadow if e.etype == etype]


def test_events_read_back_marks_merges_and_eviction():
    tracer = Tracer(max_events=4)
    invoke = tracer.begin_span("obj.invoke", ts=1.0, host="a", actor="x",
                               obj_id=7, method="m")
    tracer.end_span(invoke, ts=2.5, error=False)
    exec_span = tracer.begin_span("rpc.exec", ts=2.0, host="b",
                                  install=False, kind="k", msg_id="m1")
    tracer.host_failed("b", ts=3.0)
    tracer.end_span(exec_span, ts=4.0, error=True)  # already force-closed
    tracer.emit("nas.probe", ts=3.5, host="b", peer="a", ok=False)
    tracer.host_restarted("b", ts=5.0)

    assert tracer.dropped_events == 1  # obj.invoke went first
    assert len(tracer.events) == 4
    forced, failed, probe, restarted = tracer.events
    assert repr(forced) == repr(TraceEvent(
        2.0, "rpc.exec", "b", "", 1.0,
        {"kind": "k", "msg_id": "m1", "host_failed": True},
        TraceContext("t2", "s2", None)))
    assert repr(failed) == repr(TraceEvent(
        3.0, HOST_FAILED, "b", "", None, {"host_failed": True}, None))
    assert repr(probe) == repr(TraceEvent(
        3.5, "nas.probe", "b", "", None,
        {"peer": "a", "ok": False, "host_failed": True}, None))
    assert repr(restarted) == repr(TraceEvent(
        5.0, HOST_RESTARTED, "b", "", None, {}, None))

    tracer.events.clear()
    assert len(tracer.events) == 0 and tracer.dropped_events == 1


def test_end_span_merges_fields_in_order():
    tracer = Tracer()
    span = tracer.begin_span("obj.invoke", ts=1.0, host="a", actor="x",
                             obj_id=7, method="m")
    tracer.end_span(span, ts=2.5, mode="sync", method="n")
    (event,) = tracer.events
    assert list(event.fields.items()) == [
        ("obj_id", 7), ("method", "n"), ("mode", "sync")]
    assert event.dur == 1.5
    assert event.ctx == TraceContext("t1", "s1", None)
    tracer.emit("obj.create", ts=3.0, obj_id=1, class_name="C",
                location="a")
    tracer.emit("obj.free", ts=4.0, obj_id=2, class_name="D",
                location="b")
    assert tracer.records[1][KEYS] is tracer.records[2][KEYS]
