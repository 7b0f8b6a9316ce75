"""The tracer: null by default, recording when installed.

Hook points throughout the runtime hold a tracer reference and guard the
expensive part (building a field dict, deriving a span context) behind
``tracer.enabled``::

    if tracer.enabled:
        span = tracer.begin_span(RPC_EXEC, ts=now, host=..., parent=ctx)

:class:`NullTracer` keeps that check a single attribute load, so the
instrumented runtime costs nothing measurable when tracing is off — in
particular, no :class:`~repro.obs.spans.TraceContext` is ever allocated.

:class:`Tracer` appends :class:`TraceEvent` records to one deque and
nothing else: ``events_of`` is a scan of it, because the post-run
views read a snapshot document
(:func:`repro.obs.flight.snapshot_document`), not the tracer.  Every
recording call — ``emit``, ``emit_span``, ``end_span``, a host
failure's force-close — builds its event once, in ``_record``, from the
field dict it already holds.  With ``max_events`` set the deque
becomes a ring buffer: the oldest event is evicted on overflow and
``dropped_events`` counts the loss.  Like the rest of the runtime, a
tracer is called by one thread at a time (the one holding the kernel's
baton) and takes no lock.

Aggregates fold on read: ``count``/``observe`` append one sample to a
backlog, and ``host_metrics`` and ``metrics`` first fold whatever is
pending (:func:`repro.obs.metrics.fold`, in arrival order), so what the
tracer hands out is current as of that read.  Each sample is applied
once, to the registry of the host it names (``""`` when it names none):
the per-host registries are the only store, and ``metrics``, the
cluster view, is their merge.  The backlog also folds on its own at
:data:`_FOLD_AT` samples, which bounds it between reads.

Spans come in two shapes:

* ``emit_span`` — a span whose duration is already known (the transport
  computes wire time up front); records immediately, returns the
  :class:`TraceContext` so it can be propagated (e.g. onto a Message).
* ``begin_span`` / ``end_span`` — a span covering a code region; while
  open it is tracked in ``open_spans`` (what the flight recorder
  snapshots into an incident bundle) and, by default, installed as the
  calling process's current context so nested spans parent correctly.

Installation is ambient: ``set_tracer()`` / the ``tracing()`` context
manager set a module-level current tracer which ``SimWorld`` picks up at
construction time, so application code never threads a tracer through
the runtime explicitly.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.obs import spans as _spans
from repro.obs.events import HOST_FAILED, HOST_RESTARTED, TraceEvent
from repro.obs.metrics import Metrics, fold
from repro.obs.spans import OpenSpan, TraceContext

#: sentinel meaning "parent the span under the current thread context"
_USE_CURRENT = object()

#: the calling process's span context lives in ``_state.ctx``
_state = _spans._state

#: ``TraceContext`` without the NamedTuple ``__new__`` hop
_new_tuple = tuple.__new__

#: pending ``count``/``observe`` samples that make the tracer fold on its
#: own, so the backlog stays bounded however long nothing reads it
_FOLD_AT = 4096


class NullTracer:
    """The do-nothing tracer every component holds by default."""

    enabled = False

    def emit(self, etype: str, ts: float, host: str = "", actor: str = "",
             dur: float | None = None, ctx: TraceContext | None = None,
             **fields) -> None:
        pass

    def count(self, name: str, value: float = 1.0, host: str = "") -> None:
        pass

    def observe(self, name: str, value: float, host: str = "") -> None:
        pass

    # -- span API (all no-ops; hook points never reach these when the
    # -- ``tracer.enabled`` guard is respected) ------------------------------

    def emit_span(self, etype: str, ts: float, dur: float = 0.0,
                  host: str = "", actor: str = "", parent=_USE_CURRENT,
                  **fields) -> TraceContext | None:
        return None

    def begin_span(self, etype: str, ts: float, host: str = "",
                   actor: str = "", parent=_USE_CURRENT,
                   install: bool = True, **fields) -> OpenSpan | None:
        return None

    def end_span(self, span: OpenSpan | None, ts: float,
                 restore: bool = True, **fields) -> None:
        pass

    def host_failed(self, host: str, ts: float) -> None:
        pass

    def host_restarted(self, host: str, ts: float) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records typed events and aggregates counters/histograms."""

    enabled = True

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be positive (or None)")
        self.events: deque[TraceEvent] = deque()
        self.max_events = max_events
        self.dropped_events = 0
        #: span_id -> OpenSpan for every begun-but-not-ended span
        self.open_spans: dict[str, OpenSpan] = {}
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._failed_hosts: set[str] = set()
        #: host -> Metrics, the one metrics store.  Hook points that know
        #: which machine an aggregate belongs to pass ``host=``; a sample
        #: naming no host lands in the ``""`` registry.
        self._registries: dict[str, Metrics] = {}
        #: ``(is_observe, name, value, host)`` samples not folded yet
        self._samples: deque[tuple] = deque()
        #: etype -> callbacks fired synchronously after an event of that
        #: type records (the flight recorder's trigger surface).  Empty
        #: for ordinary tracers, so recording pays one falsy check.
        self._triggers: dict[str, list] = {}

    # -- recording -----------------------------------------------------------

    def emit(self, etype: str, ts: float, host: str = "", actor: str = "",
             dur: float | None = None, ctx: TraceContext | None = None,
             **fields) -> None:
        # Instants inherit the emitting process's current span, so they
        # can be located inside the span tree.
        self._record(etype, ts, host, actor, dur,
                     _state.ctx if ctx is None else ctx, fields)

    def _record(self, etype: str, ts: float, host: str, actor: str,
                dur: float | None, ctx: TraceContext | None,
                fields: dict) -> None:
        """Build and store one event.  ``fields`` becomes the event's
        own dict: every caller hands over one nobody else writes to."""
        if self._failed_hosts and host in self._failed_hosts:
            fields.setdefault("host_failed", True)
        event = TraceEvent(ts, etype, host, actor, dur, fields, ctx)
        if self.max_events and len(self.events) >= self.max_events:
            self.events.popleft()
            self.dropped_events += 1
        self.events.append(event)
        if self._triggers:
            self._fire_triggers(event)

    def count(self, name: str, value: float = 1.0, host: str = "") -> None:
        samples = self._samples
        samples.append((False, name, value, host))
        if len(samples) >= _FOLD_AT:
            self._fold()

    def observe(self, name: str, value: float, host: str = "") -> None:
        samples = self._samples
        samples.append((True, name, value, host))
        if len(samples) >= _FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        if self._samples:
            fold(self._samples, self._registries)

    @property
    def host_metrics(self) -> dict[str, Metrics]:
        """host -> that host's registry, current as of this read."""
        self._fold()
        return self._registries

    @property
    def metrics(self) -> Metrics:
        """The cluster view: every host's registry merged, in sorted host
        order, current as of this read."""
        hosts = self.host_metrics
        merged = Metrics()
        for host in sorted(hosts):
            merged.merge_snapshot(hosts[host].snapshot())
        return merged

    def events_of(self, etype: str) -> list[TraceEvent]:
        """The ring's events of ``etype``, oldest first (a scan)."""
        return [event for event in self.events if event.etype == etype]

    # -- triggers ------------------------------------------------------------

    def on_event(self, etype: str, callback) -> None:
        """Register ``callback(event)`` to run synchronously after every
        recorded event of ``etype`` (the flight recorder's hook).  The
        tracer does not guard re-entry, so a callback may emit only
        events that have no triggers, or must guard itself: the flight
        recorder emits ``flight.record`` (no triggers) and its
        ``_recording`` flag turns away a capture inside a capture."""
        self._triggers.setdefault(etype, []).append(callback)

    def _fire_triggers(self, event: TraceEvent) -> None:
        for callback in tuple(self._triggers.get(event.etype, ())):
            callback(event)

    @property
    def failed_hosts(self) -> frozenset:
        """Hosts the tracer has seen fail (``host_failed`` was called)."""
        return frozenset(self._failed_hosts)

    # -- spans ---------------------------------------------------------------

    def new_context(self, parent: TraceContext | None) -> TraceContext:
        """A fresh span context: child of ``parent``, or a new trace root."""
        span_id = f"s{next(self._span_ids)}"
        if parent is None:
            return _new_tuple(TraceContext, (
                f"t{next(self._trace_ids)}", span_id, None))
        return _new_tuple(TraceContext, (
            parent.trace_id, span_id, parent.span_id))

    def emit_span(self, etype: str, ts: float, dur: float = 0.0,
                  host: str = "", actor: str = "", parent=_USE_CURRENT,
                  **fields) -> TraceContext:
        """Record a span whose duration is already known; returns its
        context so callers can propagate it (e.g. onto a Message)."""
        ctx = self.new_context(
            _state.ctx if parent is _USE_CURRENT else parent)
        self._record(etype, ts, host, actor, dur, ctx, fields)
        return ctx

    def begin_span(self, etype: str, ts: float, host: str = "",
                   actor: str = "", parent=_USE_CURRENT,
                   install: bool = True, **fields) -> OpenSpan:
        """Open a span covering a code region.  With ``install`` (the
        default) it becomes the calling process's current context until
        ``end_span``; pass ``install=False`` when opening on behalf of
        another process (e.g. an async worker not yet running)."""
        ctx = self.new_context(
            _state.ctx if parent is _USE_CURRENT else parent)
        prev = None
        if install:
            prev = _state.ctx
            _state.ctx = ctx
        span = OpenSpan(ctx, etype, ts, host, actor, fields, install, prev)
        self.open_spans[ctx.span_id] = span
        return span

    def end_span(self, span: OpenSpan | None, ts: float,
                 restore: bool = True, **fields) -> None:
        """Close ``span`` and record it, ``fields`` merged into the ones
        it was opened with.  ``restore=False`` keeps the span's context
        installed (for tail work caused by the span, e.g. the transport's
        reply leg).  Already-closed spans (force-closed by a host
        failure) are ignored."""
        if span is None or span.closed:
            return
        span.closed = True
        self.open_spans.pop(span.ctx.span_id, None)
        if span.installed and restore:
            _state.ctx = span.prev
        if fields:
            span.fields.update(fields)
        self._record(span.etype, span.ts, span.host, span.actor,
                     max(0.0, ts - span.ts), span.ctx, span.fields)

    # -- failure semantics ---------------------------------------------------

    def host_failed(self, host: str, ts: float) -> None:
        """A machine died: force-close its open spans (marked with
        ``host_failed: True`` — their events are kept, not lost) and mark
        every later event on that host the same way."""
        self._failed_hosts.add(host)
        for span in [s for s in self.open_spans.values() if s.host == host]:
            span.closed = True
            self.open_spans.pop(span.ctx.span_id, None)
            span.fields["host_failed"] = True
            self._record(span.etype, span.ts, host, span.actor,
                         max(0.0, ts - span.ts), span.ctx, span.fields)
        self.emit(HOST_FAILED, ts=ts, host=host)

    def host_restarted(self, host: str, ts: float) -> None:
        """A crashed machine came back: stop tainting its events.  The
        ``host_failed`` marks on pre-restart events are history and stay;
        spans opened after the restart belong to the fresh incarnation
        and must not inherit the taint."""
        self._failed_hosts.discard(host)
        self.emit(HOST_RESTARTED, ts=ts, host=host)


_current: NullTracer = NULL_TRACER


def current_tracer() -> NullTracer:
    """The ambient tracer new worlds adopt (NULL_TRACER unless installed)."""
    return _current


def set_tracer(tracer: NullTracer | None) -> None:
    global _current
    _current = tracer if tracer is not None else NULL_TRACER


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (a fresh one by default) for the with-block."""
    tracer = tracer if tracer is not None else Tracer()
    previous = _current
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
