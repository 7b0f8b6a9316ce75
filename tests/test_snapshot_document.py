"""The snapshot document: one schema for live runs and incident bundles.

Every post-run view reads :func:`repro.obs.snapshot_document`; a bundle
is that document under a four-key header.  These tests pin that a
document survives the trip through JSON with every view's output
unchanged, that a bundle carries every key of the document, and that
js-top follows a host through a crash and its restart.
"""

import json

import pytest

from repro.apps.matmul import MatmulConfig, run_matmul
from repro.cluster import TestbedConfig, vienna_testbed
from repro.obs import (
    FlightRecorder,
    Tracer,
    frames_from_trace,
    render_critical_path,
    render_incident,
    render_prom,
    render_span_tree,
    render_summary,
    render_top,
    snapshot_document,
    spans_document,
    to_chrome_trace,
    tracing,
)


def traced_matmul(kill=None, restart_at=None, until=None, n=32, nodes=3):
    """A nominal matmul on a traced dedicated testbed (seed 1); optionally
    crash ``kill = (host, t)``, restart it at ``restart_at`` and keep the
    world running to ``until``."""
    with tracing(Tracer()) as tracer:
        runtime = vienna_testbed(TestbedConfig(load_profile="dedicated",
                                               seed=1))
        world = runtime.world
        if kill is not None:
            world.schedule_failure(*kill)
        if restart_at is not None:
            world.kernel.call_at(restart_at, world.restart_host, kill[0])
        runtime.run_app(lambda: run_matmul(
            MatmulConfig(n=n, nr_nodes=nodes, real_compute=False)))
        if until is not None:
            world.kernel.run(until=until)
    return tracer, runtime


@pytest.fixture(scope="module")
def killed_run():
    """A run with a failed host, whose incident bundles caught spans
    still open."""
    return traced_matmul(kill=("greta", 0.05), nodes=4)


def every_view(doc):
    """Each view's output on ``doc``, as text."""
    return {
        "summary": render_summary(doc),
        "chrome": json.dumps(to_chrome_trace(doc)),
        "top": render_top(frames_from_trace(doc)),
        "span tree": render_span_tree(doc),
        "critical path": render_critical_path(doc),
        "spans": json.dumps(spans_document(doc)),
        "prom": render_prom(doc["metrics"]["merged"]),
        "incident": render_incident(doc),
    }


def test_views_render_a_json_round_trip_identically(killed_run):
    """The live document after the run and every bundle captured during
    it render the same from memory and from their JSON."""
    tracer, runtime = killed_run
    live = snapshot_document(
        tracer, nas=runtime.nas.history_document(),
        slo_alerts=list(runtime.nas.slo.alerts))
    assert live["failed_hosts"] == ["greta"] and live["critical_path"]
    docs = [live, *runtime.flight.incidents]
    assert any(doc["open_spans"] for doc in docs)
    for doc in docs:
        loaded = json.loads(json.dumps(doc, default=repr))
        assert every_view(loaded) == every_view(doc)


def test_bundle_is_the_document_under_a_header(killed_run):
    tracer, runtime = killed_run
    assert runtime.flight.incidents
    doc_keys = list(snapshot_document(tracer))
    for bundle in runtime.flight.incidents:
        keys = [key for key in bundle if key != "path"]
        assert keys == ["incident_id", "trigger", "ts", "context"] + doc_keys
        assert len(bundle["events"]) <= FlightRecorder.RING_TAIL
        assert every_view(bundle)


def test_untraced_document_is_empty():
    doc = snapshot_document(Tracer())
    assert doc["ring_len"] == 0 and doc["events"] == []
    assert doc["critical_path"] is None
    assert render_span_tree(doc) == "(no spans recorded)"
    assert frames_from_trace(doc) == []


def test_top_shows_a_restarted_host_alive_again():
    """``js-top`` follows each host's failure and restart marks: a host
    that came back is alive in every later frame, not dead for the rest
    of the run."""
    tracer, _ = traced_matmul(kill=("bruno", 0.05), restart_at=0.2,
                              until=1.3, n=64, nodes=2)
    assert tracer.failed_hosts == frozenset()
    frames = frames_from_trace(snapshot_document(tracer))
    alive = {frame.t: row.alive for frame in frames
             for row in frame.rows if row.host == "bruno"}
    assert [t for t, up in alive.items() if 0.05 <= t < 0.2 and up] == []
    assert any(0.05 <= t < 0.2 for t in alive)
    later = [up for t, up in alive.items() if t >= 0.2]
    assert later and all(later)
