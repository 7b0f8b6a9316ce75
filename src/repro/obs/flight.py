"""The snapshot document and the failure flight recorder.

:func:`snapshot_document` is the one JSON-safe document of a tracer's
state: every post-run view in :mod:`repro.obs` reads it, and an
incident bundle is this document under an ``incident_id`` / ``trigger``
/ ``ts`` / ``context`` header, so a bundle loaded from disk goes
through the same views as a live run.  Its keys, in order:

========================  =============================================
``ring_len``              events in the tracer ring
``dropped_events``        events the ring evicted (``max_events``)
``events``                the ring (or its last ``tail`` events), as
                          :func:`~repro.obs.events.event_doc` dicts,
                          built from the ring records kept
``open_spans``            spans in flight at the snapshot
``failed_hosts``          hosts the tracer knows are dead
``metrics``               ``merged`` cluster metrics, bucket-level, and
                          the per-host snapshots behind the merge
``nas``                   NAS snapshot history / membership (provider)
``slo_alerts``            every SLO alert fired so far
``critical_path``         one trace's critical path, over the whole ring
========================  =============================================

When something goes wrong — a host dies, an RPC gives up, an SLO
breaches — the moment is already slipping out of the tracer's ring
buffer.  The :class:`FlightRecorder` hooks those trigger events and
captures the document *at that instant*, with the critical path of the
trigger's own trace, as an **incident bundle**.

Trigger surface: the ``host.failed``, ``slo.alert`` and ``rpc.timeout``
trace events (registered via :meth:`Tracer.on_event`); :meth:`record`
captures one on demand.  Captures are debounced per trigger type
(:attr:`FlightRecorder.MIN_INTERVAL` simulated seconds) so an
RPC-timeout storm yields one bundle, not hundreds.

Bundles are kept in memory (``incidents``, newest last, bounded) and —
when ``incident_dir`` is set — written to ``<dir>/<incident_id>.json``
for ``repro incidents`` to render.
"""

from __future__ import annotations

import json
import os
from collections import deque
from itertools import islice

from repro.obs.critical_path import critical_path
from repro.obs.events import (
    FLIGHT_RECORD,
    HOST_FAILED,
    RPC_TIMEOUT,
    SLO_ALERT,
    TS,
    TraceEvent,
    event_doc,
    fields_doc,
)
from repro.obs.tracer import Tracer

_EVENT_TRIGGERS = (HOST_FAILED, SLO_ALERT, RPC_TIMEOUT)


def _metrics_doc(registry) -> dict:
    """A registry snapshot with its histograms' bucket keys as sorted
    strings, so ``json.dump`` round-trips it."""
    snap = registry.snapshot()
    for hist in snap["histograms"].values():
        hist["buckets"] = {str(k): v
                           for k, v in sorted(hist["buckets"].items())}
    return snap


def snapshot_document(tracer, *, tail: int | None = None, nas=None,
                      slo_alerts: list | None = None,
                      trace_id: str | None = None) -> dict:
    """The tracer's state as one JSON-safe document (schema in the
    module docstring; empty under a non-recording tracer).

    ``tail`` keeps only the ring's last N events (``ring_len`` still
    counts them all).  Open spans' ages are measured to the last event
    in the ring.  ``trace_id`` names the trace whose critical path the
    document carries; by default, or when that trace has no spans, it is
    the main trace.  The critical path is taken over the whole ring, not
    the tail.
    """
    if not tracer.enabled:
        tracer = Tracer()
    records = tracer.records
    kept = (records if tail is None
            else list(islice(reversed(records), tail))[::-1])
    ts = records[-1][TS] if records else 0.0
    hosts = tracer.host_metrics
    return {
        "ring_len": len(records),
        "dropped_events": tracer.dropped_events,
        "events": [event_doc(record) for record in kept],
        "open_spans": [
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
            for span in list(tracer.open_spans.values())
        ],
        "failed_hosts": sorted(tracer.failed_hosts),
        "metrics": {
            "merged": _metrics_doc(tracer.metrics),
            "hosts": {host: _metrics_doc(hosts[host])
                      for host in sorted(hosts)},
        },
        "nas": nas,
        "slo_alerts": slo_alerts or [],
        "critical_path": critical_path(records, trace_id),
    }


class FlightRecorder:
    """Captures incident bundles on failure triggers.

    ``nas_provider`` / ``slo_provider`` are zero-argument callables
    returning a JSON-safe NAS history document and the SLO alerts fired
    so far; they are supplied by the runtime wiring
    (:mod:`repro.cluster.builder`) and called only at capture time,
    never on the hot path.
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
        """Capture a bundle for ``trigger`` at simulated time ``ts``: the
        snapshot document, with the critical path of ``event``'s trace
        when it has one.

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
            self._seq += 1
            bundle = {
                "incident_id":
                    f"inc-{self._seq:04d}-{trigger.replace('.', '-')}",
                "trigger": trigger,
                "ts": ts,
                "context": context,
            }
            bundle.update(snapshot_document(
                self.tracer, tail=self.RING_TAIL,
                nas=self._provided(self.nas_provider),
                slo_alerts=self._provided(self.slo_provider),
                trace_id=(event.ctx.trace_id
                          if event is not None and event.ctx is not None
                          else None)))
            self.incidents.append(bundle)
            self._write(bundle)
            if self.tracer.enabled:
                self.tracer.emit(FLIGHT_RECORD, ts=ts, trigger=trigger,
                                 incident_id=bundle["incident_id"])
            return bundle
        finally:
            self._recording = False

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
