"""The failure flight recorder: automatic incident capture.

When something goes wrong — a host dies, an RPC gives up, the sanitizer
detects a risky migration, an SLO breaches — the moment is
already slipping out of the tracer's ring buffer.  The
:class:`FlightRecorder` hooks those trigger events and snapshots the
cluster's state *at that instant* into a JSON **incident bundle**:

========================  =============================================
``events``                the tail of the tracer ring (last N events)
``open_spans``            spans in flight when the trigger fired
``failed_hosts``          hosts the tracer knows are dead
``metrics``               merged cluster metrics, bucket-level, and
                          the per-host snapshots behind the merge
``nas``                   NAS snapshot history / membership (provider)
``critical_path``         the affected trace's critical path
``slo_alerts``            every SLO alert fired so far
========================  =============================================

Trigger surface: ``host.failed``, ``slo.alert`` and ``rpc.timeout``
trace events (registered via :meth:`Tracer.on_event`), plus explicit
:meth:`record` calls from the sanitizer's failure hooks
(``san-migrate-pending``).  Captures are debounced
per trigger type (:attr:`FlightRecorder.MIN_INTERVAL` simulated seconds)
so an RPC-timeout storm yields one bundle, not hundreds.

Bundles are kept in memory (``incidents``, newest last, bounded) and —
when ``incident_dir`` is set — written to ``<dir>/<incident_id>.json``
for ``repro incidents`` to render.
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.obs.critical_path import critical_path
from repro.obs.events import (
    FLIGHT_RECORD,
    HOST_FAILED,
    RPC_TIMEOUT,
    SLO_ALERT,
    TraceEvent,
    event_doc,
    fields_doc,
)
from repro.obs.timeseries import metrics_document

#: trigger name for the sanitizer-side hook (not a trace etype)
TRIGGER_MIGRATE_PENDING = "san-migrate-pending"

_EVENT_TRIGGERS = (HOST_FAILED, SLO_ALERT, RPC_TIMEOUT)


class FlightRecorder:
    """Captures incident bundles on failure triggers.

    ``nas_provider`` / ``slo_provider`` are zero-argument callables
    returning a JSON-safe NAS history document and the SLO alerts fired
    so far; they are supplied by the runtime wiring
    (:mod:`repro.cluster.builder`) and called only at capture time,
    never on the hot path.  The bundle's metrics are
    :func:`~repro.obs.timeseries.metrics_document` of the tracer.
    """

    #: trace events a bundle keeps from the tail of the ring
    RING_TAIL = 400
    #: sim seconds within which a repeat of one trigger type is debounced
    MIN_INTERVAL = 1.0
    #: bundles kept in memory (oldest evicted past the cap)
    MAX_INCIDENTS = 32

    def __init__(self, tracer, *, nas_provider=None, slo_provider=None,
                 incident_dir: str | None = None) -> None:
        self.tracer = tracer
        self.nas_provider = nas_provider
        self.slo_provider = slo_provider
        self.incident_dir = incident_dir
        #: captured bundles, newest last (oldest evicted past the cap)
        self.incidents: deque[dict] = deque(maxlen=self.MAX_INCIDENTS)
        self.suppressed = 0
        self._seq = 0
        self._last_capture: dict[str, float] = {}
        self._recording = False

    # -- trigger wiring ------------------------------------------------------

    def attach(self) -> None:
        """Register the trace-event triggers on a recording tracer (call
        it once: each call registers them again)."""
        if not self.tracer.enabled:
            return
        for etype in _EVENT_TRIGGERS:
            self.tracer.on_event(etype, self._on_trigger_event)

    def _on_trigger_event(self, event: TraceEvent) -> None:
        context = fields_doc(event.fields)
        if event.host:
            context["host"] = event.host
        self.record(event.etype, ts=event.ts, event=event, **context)

    # -- capture -------------------------------------------------------------

    def record(self, trigger: str, ts: float, event: TraceEvent | None = None,
               **context) -> dict | None:
        """Capture a bundle for ``trigger`` at simulated time ``ts``.

        Returns the bundle, or None when debounced (same trigger type
        within ``MIN_INTERVAL``) or re-entered (a capture is already in
        progress — capturing can itself emit a ``flight.record`` event).
        """
        if self._recording:
            return None
        last = self._last_capture.get(trigger)
        if last is not None and (ts - last) < self.MIN_INTERVAL:
            self.suppressed += 1
            return None
        self._last_capture[trigger] = ts
        self._recording = True
        try:
            bundle = self._capture(trigger, ts, event, context)
            self.incidents.append(bundle)
            self._write(bundle)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.emit(FLIGHT_RECORD, ts=ts, trigger=trigger,
                            incident_id=bundle["incident_id"])
            return bundle
        finally:
            self._recording = False

    def _capture(self, trigger: str, ts: float,
                 event: TraceEvent | None, context: dict) -> dict:
        self._seq += 1
        tracer = self.tracer
        bundle: dict = {
            "incident_id": f"inc-{self._seq:04d}-{trigger.replace('.', '-')}",
            "trigger": trigger,
            "ts": ts,
            "context": context,
        }
        events = list(getattr(tracer, "events", ()))
        tail = events[-self.RING_TAIL:]
        bundle["ring_len"] = len(events)
        bundle["dropped_events"] = getattr(tracer, "dropped_events", 0)
        bundle["events"] = [event_doc(e) for e in tail]
        bundle["open_spans"] = [
            {
                "span_id": span.ctx.span_id,
                "trace_id": span.ctx.trace_id,
                "etype": span.etype,
                "ts": span.ts,
                "host": span.host,
                "actor": span.actor,
                "age": max(0.0, ts - span.ts),
                "fields": fields_doc(span.fields),
            }
            for span in list(getattr(tracer, "open_spans", {}).values())
        ]
        bundle["failed_hosts"] = sorted(getattr(tracer, "failed_hosts", ()))
        bundle["metrics"] = metrics_document(tracer)
        bundle["nas"] = self._provided(self.nas_provider)
        bundle["slo_alerts"] = self._provided(self.slo_provider) or []
        bundle["critical_path"] = self._critical_path_doc(events, event)
        return bundle

    def _critical_path_doc(self, events: list[TraceEvent],
                           event: TraceEvent | None) -> dict | None:
        """The affected trace's critical path: the trigger event's trace
        when it has one, the main trace otherwise."""
        trace_id = None
        if event is not None and event.ctx is not None:
            trace_id = event.ctx.trace_id
        try:
            cp = critical_path(events, trace_id=trace_id)
            if cp is None and trace_id is not None:
                cp = critical_path(events)
            return cp.as_dict() if cp else None
        except Exception:
            return None

    def _provided(self, provider):
        if provider is None:
            return None
        try:
            return provider()
        except Exception:
            return None

    def _write(self, bundle: dict) -> None:
        if not self.incident_dir:
            return
        os.makedirs(self.incident_dir, exist_ok=True)
        path = os.path.join(self.incident_dir,
                            f"{bundle['incident_id']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=1, default=repr)
        bundle["path"] = path


# -- rendering ---------------------------------------------------------------


def load_bundle(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def render_incident(bundle: dict, max_events: int = 20) -> str:
    """A terminal summary of one incident bundle (``repro incidents``)."""
    lines = [
        f"incident {bundle.get('incident_id', '?')}  "
        f"trigger={bundle.get('trigger', '?')}  t={bundle.get('ts', 0.0):.3f}",
    ]
    context = bundle.get("context") or {}
    if context:
        ctx = "  ".join(f"{k}={v}" for k, v in sorted(context.items()))
        lines.append(f"  context: {ctx}")
    failed = bundle.get("failed_hosts") or []
    if failed:
        lines.append(f"  failed hosts: {', '.join(failed)}")
    lines.append(
        f"  ring: {len(bundle.get('events', []))} events captured "
        f"(of {bundle.get('ring_len', 0)} recorded, "
        f"{bundle.get('dropped_events', 0)} dropped)")
    open_spans = bundle.get("open_spans") or []
    if open_spans:
        lines.append(f"  open spans at capture: {len(open_spans)}")
        for span in sorted(open_spans, key=lambda s: -s.get("age", 0.0))[:8]:
            where = f" [{span['host']}]" if span.get("host") else ""
            lines.append(
                f"    {span.get('etype', '?')}{where}  "
                f"age={span.get('age', 0.0):.3f}s  "
                f"span={span.get('span_id', '?')}")
    metrics = bundle.get("metrics") or {}
    merged = metrics.get("merged") or {}
    hists = merged.get("histograms") or {}
    lines.append(
        "  metrics: "
        f"{len(merged.get('counters', {}))} counters, "
        f"{len(hists)} histograms over "
        f"{len(metrics.get('hosts', {}))} hosts")
    for name in sorted(hists)[:6]:
        h = hists[name]
        lines.append(
            f"    {name}: n={h.get('count', 0)} p50={h.get('p50', 0.0):.4f} "
            f"p99={h.get('p99', 0.0):.4f} max={h.get('max', 0.0):.4f}")
    alerts = bundle.get("slo_alerts") or []
    if alerts:
        lines.append(f"  slo alerts so far: {len(alerts)}")
        for alert in alerts[-5:]:
            lines.append(
                f"    [{alert.get('host', '?')}] {alert.get('rule', '?')}: "
                f"{alert.get('stat', '?')}({alert.get('metric', '?')}) = "
                f"{alert.get('value', 0.0):.4f} > "
                f"{alert.get('threshold', 0.0):g} "
                f"at t={alert.get('ts', 0.0):.3f}")
    cp = bundle.get("critical_path")
    if cp:
        totals = cp.get("totals") or {}
        breakdown = "  ".join(
            f"{cat}={dur:.3f}s"
            for cat, dur in sorted(totals.items(), key=lambda kv: -kv[1]))
        lines.append(
            f"  critical path: trace {cp.get('trace_id', '?')} "
            f"makespan={cp.get('makespan', 0.0):.3f}s  {breakdown}")
    events = bundle.get("events") or []
    shown = events[-max_events:]
    if shown:
        lines.append(f"  last {len(shown)} events:")
        for e in shown:
            where = f" [{e['host']}]" if e.get("host") else ""
            mark = " !host_failed" if e.get("fields", {}).get("host_failed") \
                else ""
            lines.append(
                f"    t={e.get('ts', 0.0):.3f} {e.get('etype', '?')}"
                f"{where}{mark}")
    return "\n".join(lines)
