"""The tracer: null by default, recording when installed.

Hook points throughout the runtime hold a tracer reference and guard the
expensive part (building a field dict, deriving a span context) behind
``tracer.enabled``::

    if tracer.enabled:
        span = tracer.begin_span(RPC_EXEC, ts=now, host=..., parent=ctx)

:class:`NullTracer` keeps that check a single attribute load, so the
instrumented runtime costs nothing measurable when tracing is off — in
particular, no :class:`~repro.obs.spans.TraceContext` is ever allocated.

:class:`Tracer` appends :class:`TraceEvent` records to a deque (append
is atomic under the GIL, so the uncapped event path takes no lock — see
DESIGN.md) and keeps a per-etype index so ``events_of`` is O(result)
rather than an O(n) scan.  Every recording call — ``emit``,
``emit_span``, ``end_span``, a host failure's force-close — builds its
event once, in ``_record``, from the field dict it already holds.  With
``max_events`` set the deque becomes a ring buffer: the oldest event is
evicted on overflow and ``dropped_events`` counts the loss (eviction
mutates the deque, the index and the counter together, so only capped
tracers pay for a lock).

Aggregates fold on read: ``count``/``observe`` append one sample to a
backlog, and ``metrics``, ``host_metrics``, ``metrics_for`` and
``merged_host_metrics`` first fold whatever is pending into the
registries (:meth:`repro.obs.metrics.Metrics.fold`: one lock, arrival
order), so a registry the tracer hands out is current as of that read.
The backlog also folds on its own at :data:`_FOLD_AT` samples, which
bounds it between reads.

Spans come in two shapes:

* ``emit_span`` — a span whose duration is already known (the transport
  computes wire time up front); records immediately, returns the
  :class:`TraceContext` so it can be propagated (e.g. onto a Message).
* ``begin_span`` / ``end_span`` — a span covering a code region; while
  open it is tracked in ``open_spans`` (the live-introspection source
  for ``repro top``) and, by default, installed as the calling process's
  current context so nested spans parent correctly.

Installation is ambient: ``set_tracer()`` / the ``tracing()`` context
manager set a module-level current tracer which ``SimWorld`` picks up at
construction time, so application code never threads a tracer through
the runtime explicitly.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.obs import spans as _spans
from repro.obs.events import HOST_FAILED, HOST_RESTARTED, TraceEvent
from repro.obs.metrics import Metrics, merge_snapshots
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
        self._by_etype: dict[str, deque[TraceEvent]] = {}
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._failed_hosts: set[str] = set()
        self._metrics = Metrics()
        #: host -> Metrics: the per-host registries behind the cluster
        #: telemetry plane.  Hook points that know which machine an
        #: aggregate belongs to pass ``host=`` and the sample lands both
        #: globally and in that host's registry, so merging the per-host
        #: registries reproduces the global one.
        self._host_metrics: dict[str, Metrics] = {}
        #: ``(is_observe, name, value, host)`` samples not folded yet
        self._samples: deque[tuple] = deque()
        #: etype -> callbacks fired synchronously after an event of that
        #: type records (the flight recorder's trigger surface).  Empty
        #: for ordinary tracers, so recording pays one falsy check.
        self._triggers: dict[str, list] = {}
        # Ring eviction touches the deque, the index and the drop counter
        # together; only capped tracers pay for the lock.
        self._ring_lock = threading.Lock() if max_events else None

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
        if self._ring_lock is None:
            # justification: an uncapped tracer never evicts, so this
            # instance takes no lock anywhere — appends are GIL-atomic.
            self.events.append(event)  # symlint: disable=unguarded-write
            self._index(etype).append(event)
        else:
            with self._ring_lock:
                if len(self.events) >= (self.max_events or 0):
                    evicted = self.events.popleft()
                    old_index = self._by_etype.get(evicted.etype)
                    if old_index:
                        old_index.popleft()
                    self.dropped_events += 1
                self.events.append(event)
                self._index(etype).append(event)
        if self._triggers:
            # Callbacks may do arbitrary work (the flight recorder
            # snapshots the whole ring); never run them under the lock.
            self._fire_triggers(event)

    def _index(self, etype: str) -> deque[TraceEvent]:
        index = self._by_etype.get(etype)
        if index is None:
            # justification: called from _record, which is either
            # lock-free (uncapped: GIL-atomic dict store) or already
            # holds _ring_lock (capped path).
            index = self._by_etype[etype] = deque()  # symlint: disable=unguarded-write
        return index

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
            self._metrics.fold(self._samples, self._host_metrics)

    @property
    def metrics(self) -> Metrics:
        """The global registry, current as of this read."""
        self._fold()
        return self._metrics

    @property
    def host_metrics(self) -> dict[str, Metrics]:
        """host -> that host's registry, current as of this read."""
        self._fold()
        return self._host_metrics

    def metrics_for(self, host: str) -> Metrics:
        """The per-host metrics registry for ``host`` (created lazily)."""
        self._fold()
        # setdefault, as Metrics.fold creates them: a racing fold and
        # this call end up holding the same registry
        return self._host_metrics.setdefault(host, Metrics())

    def merged_host_metrics(self) -> dict:
        """One snapshot merging every per-host registry — the tracer-side
        'merge the per-host histograms by hand' view of the cluster."""
        hosts = self.host_metrics
        return merge_snapshots(hosts[h].snapshot() for h in sorted(hosts))

    def events_of(self, etype: str) -> list[TraceEvent]:
        return list(self._by_etype.get(etype, ()))

    # -- triggers ------------------------------------------------------------

    def on_event(self, etype: str, callback) -> None:
        """Register ``callback(event)`` to run synchronously after every
        recorded event of ``etype``.  Callbacks must not emit (re-entry
        is not guarded); the flight recorder is the intended consumer."""
        self._triggers.setdefault(etype, []).append(callback)

    def remove_trigger(self, etype: str, callback) -> None:
        callbacks = self._triggers.get(etype)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)
            if not callbacks:
                del self._triggers[etype]

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
