"""repro.obs — structured tracing + metrics for the PySymphony runtime.

Usage::

    from repro.obs import Tracer, tracing

    with tracing(Tracer()) as tracer:
        vienna_testbed().run_app(app)   # worlds adopt the ambient tracer
    print(render_summary(tracer))

Every invocation, migration, classload, persistence call and NAS
exchange opens a *span* carrying a :class:`TraceContext` that is
propagated across hosts and async continuations; see
:mod:`repro.obs.spans` for the propagation rules,
:mod:`repro.obs.critical_path` for the longest-causal-chain analysis and
:mod:`repro.obs.top` for the js-top console.  :mod:`repro.obs.events`
documents the event schema and DESIGN.md the hook-point map.
"""

from repro.obs import events
from repro.obs.critical_path import (
    CriticalPath,
    critical_path,
    render_critical_path,
    render_span_tree,
    spans_document,
)
from repro.obs.events import TraceEvent
from repro.obs.export import (
    render_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import FlightRecorder, load_bundle, render_incident
from repro.obs.metrics import (
    Histogram,
    Metrics,
    merge_snapshots,
    snapshot_delta,
)
from repro.obs.prom import render_prom
from repro.obs.slo import DEFAULT_RULES, SLORule, SLOWatcher, parse_rule
from repro.obs.spans import OpenSpan, TraceContext, current_context
from repro.obs.timeseries import ClusterMetrics, HostSeries, MetricsDelta
from repro.obs.top import (
    TopFrame,
    frames_from_trace,
    render_top,
    render_top_frame,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "events",
    "TraceEvent",
    "TraceContext",
    "OpenSpan",
    "current_context",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "tracing",
    "Metrics",
    "Histogram",
    "merge_snapshots",
    "snapshot_delta",
    "MetricsDelta",
    "HostSeries",
    "ClusterMetrics",
    "SLORule",
    "SLOWatcher",
    "DEFAULT_RULES",
    "parse_rule",
    "FlightRecorder",
    "load_bundle",
    "render_incident",
    "render_prom",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_summary",
    "CriticalPath",
    "critical_path",
    "render_critical_path",
    "render_span_tree",
    "spans_document",
    "TopFrame",
    "frames_from_trace",
    "render_top",
    "render_top_frame",
]
