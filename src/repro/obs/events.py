"""The trace-event vocabulary: every typed event the runtime can emit.

One :class:`TraceEvent` is one timestamped fact about the runtime, in
simulated seconds.  Events with a ``dur`` are *spans* (they cover a time
interval); events without one are *instants*.  The schema below is the
contract between the hook points (transport, kernel, agents) and the
exporters in :mod:`repro.obs.export`; DESIGN.md documents it for users.

Event types and their fields
----------------------------
``rpc.request`` (span, dur = wire time incl. FIFO wait)
    kind, nbytes, src, dst, msg_id, oneway
``rpc.reply`` (span, dur = wire time of the reply leg)
    kind (``<kind>:reply``), nbytes, src, dst, msg_id
``rpc.exec`` (span, dur = handler execution time)
    kind, msg_id, error (True when the handler raised)
``rpc.drop`` (instant)
    kind, stage (``request`` | ``reply``), reason
``proc.spawn`` (instant)
    pid; actor = process name
``compute`` (span, dur = modelled execution time)
    flops; host = executing machine
``obj.create`` / ``obj.free`` (instant)
    obj_id, class_name, location
``obj.invoke`` (span, dur = caller-observed invocation time; for
one-sided calls dur covers dispatch of the spawned local worker or the
local resolve-and-send when remote)
    obj_id, method, mode (``sync`` | ``async`` | ``oneway`` | ``batch``)
``obj.invoke.batch`` (span, dur = ship-to-collect time of one
``INVOKE_BATCH`` message; parents the per-call ``obj.invoke`` spans of
a ``minvoke`` group)
    dest, size
``obj.dispatch`` (span, dur = holder-side execution incl. compute charge)
    obj_id, method, flops
``obj.wait`` (span, dur = time a ``ResultHandle.get_result`` blocked)
    label; parent = the async ``obj.invoke`` span it waits for
``lock.wait`` (span, dur = holder-side queueing before dispatch)
    obj_id, method (serial dispatch / migration quiescing delay)
``obj.fetch_state`` (instant)
    obj_id, nbytes
``migrate`` (span, dur = full ao-side protocol time)
    obj_id, src, dst, error
``migrate.step`` (instant; the Figure-3 sequence)
    obj_id, step (``out-start`` -> ``quiesced`` -> ``pushed`` ->
    ``tombstone`` on pa1; ``adopted`` on pa2)
``persist.store`` / ``persist.load`` (span)
    obj_id / key; paper Section 4.7 persistence traffic
``classload`` (span, dur = codebase distribution time)
    classes, nbytes, hosts
``app`` (span, dur = whole application run; the root of an app's trace)
    app; actor = application process name
``nas.sample`` (span, dur = one monitoring tick incl. report exchange)
    host, idle, avail_mem_mb, js_mem_mb
``nas.probe`` (instant)
    peer, ok (heartbeat outcome)
``nas.release`` / ``nas.takeover`` (instant)
    the NAS fault-tolerance protocol firing
``host.failed`` (instant)
    a machine failing; open spans on it are force-closed with a
    ``host_failed: True`` field (their events are kept, not lost)
``host.restarted`` (instant)
    a crashed machine coming back (fresh holder tables, NAS
    re-registration); later events on the host lose the
    ``host_failed`` taint
``rpc.timeout`` (instant)
    kind, msg_id, waited; a caller gave up on a reply
    (:class:`~repro.transport.errors.RPCTimeoutError`)
``rpc.retry`` (instant)
    kind, dst, attempt, backoff, error; the reliability layer is about
    to re-send a failed attempt (see :mod:`repro.rmi.reliability`)
``circuit.state`` (instant)
    host, state (``closed`` | ``open`` | ``half-open``); the per-host
    circuit breaker changed state
``chaos.inject`` (instant)
    fault (``drop`` | ``duplicate`` | ``delay`` | ``reorder`` |
    ``partition`` | ``stall`` | ``crash`` | ``restart``), stage, kind,
    src, dst; the chaos plane injected one fault
    (see :mod:`repro.chaos`)
``slo.alert`` (instant)
    rule, metric, value, threshold, window; an SLO rule breached for
    one evaluation window (see :mod:`repro.obs.slo`)
``flight.record`` (instant)
    trigger, incident_id; the flight recorder captured a bundle
    (see :mod:`repro.obs.flight`)

Spans additionally carry a :class:`repro.obs.spans.TraceContext` in
``ctx`` (trace_id / span_id / parent_id); instants inherit the emitting
process's current context so they can be located inside the span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.spans import TraceContext

RPC_REQUEST = "rpc.request"
RPC_REPLY = "rpc.reply"
RPC_EXEC = "rpc.exec"
RPC_DROP = "rpc.drop"

PROC_SPAWN = "proc.spawn"
COMPUTE = "compute"

OBJ_CREATE = "obj.create"
OBJ_FREE = "obj.free"
OBJ_INVOKE = "obj.invoke"
OBJ_INVOKE_BATCH = "obj.invoke.batch"
OBJ_DISPATCH = "obj.dispatch"
OBJ_WAIT = "obj.wait"
LOCK_WAIT = "lock.wait"
OBJ_FETCH_STATE = "obj.fetch_state"

MIGRATE = "migrate"
MIGRATE_STEP = "migrate.step"

PERSIST_STORE = "persist.store"
PERSIST_LOAD = "persist.load"
CLASSLOAD = "classload"
APP = "app"

NAS_SAMPLE = "nas.sample"
NAS_PROBE = "nas.probe"
NAS_RELEASE = "nas.release"
NAS_TAKEOVER = "nas.takeover"

HOST_FAILED = "host.failed"
HOST_RESTARTED = "host.restarted"
RPC_TIMEOUT = "rpc.timeout"
RPC_RETRY = "rpc.retry"
CIRCUIT_STATE = "circuit.state"
CHAOS_INJECT = "chaos.inject"
SLO_ALERT = "slo.alert"
FLIGHT_RECORD = "flight.record"


@dataclass(slots=True)
class TraceEvent:
    """One timestamped runtime fact (span when ``dur`` is set)."""

    ts: float                      # simulated seconds
    etype: str                     # one of the constants above
    host: str = ""                 # machine it happened on ("" = global)
    actor: str = ""                # agent / process name
    dur: float | None = None       # span duration in simulated seconds
    fields: dict = field(default_factory=dict)
    ctx: TraceContext | None = None  # causal identity (spans always set it)

    @property
    def is_span(self) -> bool:
        return self.dur is not None


def fields_doc(fields: dict) -> dict:
    """``fields`` made JSON-safe: a value that is not a JSON scalar
    becomes its ``repr``."""
    return {
        k: v if isinstance(v, (str, int, float, bool, type(None))) else repr(v)
        for k, v in fields.items()
    }


def event_doc(event: TraceEvent) -> dict:
    """One event as a JSON-safe dict, with its span context's ids when it
    has one (incident bundles, ``repro spans --json``)."""
    doc = {
        "ts": event.ts,
        "etype": event.etype,
        "host": event.host,
        "actor": event.actor,
        "dur": event.dur,
        "fields": fields_doc(event.fields),
    }
    if event.ctx is not None:
        doc["trace_id"] = event.ctx.trace_id
        doc["span_id"] = event.ctx.span_id
        doc["parent_id"] = event.ctx.parent_id
    return doc
