"""``TraceContext``: causal identity for spans, propagated across hosts.

A *span* is a trace event with a duration **and** an identity: which
trace it belongs to (``trace_id``), which span it is (``span_id``) and
which span caused it (``parent_id``).  The identity travels three ways:

1. **Within a process** — a thread-local *current context*.  Both
   kernels back every process with its own OS thread, so the thread
   local doubles as per-process storage in the virtual and the real
   kernel alike.
2. **Across spawns** — ``kernel.spawn`` captures the spawner's current
   context onto the child process, and the child installs it before
   running its function (async continuations stay linked to their
   cause).
3. **Across hosts** — the transport stores the request span's context
   on the :class:`~repro.transport.rpc.Message`, and the handler-side
   ``rpc.exec`` span adopts it as parent; the reply span chains off the
   exec span, so a cross-host reply is always a descendant of the
   request that caused it.

The span *lifecycle* lives on :class:`repro.obs.tracer.Tracer`
(``emit_span`` / ``begin_span`` / ``end_span``); this module only owns
the identity type, the thread-local current context, and the
:class:`OpenSpan` book-keeping record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NamedTuple


class TraceContext(NamedTuple):
    """The causal coordinates of one span (all ids are opaque strings)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


class _SpanState(threading.local):
    """The current span context of the calling kernel process."""

    def __init__(self) -> None:
        self.ctx: TraceContext | None = None


#: the tracer's hot path reads and writes ``_state.ctx`` directly
_state = _SpanState()


def current_context() -> TraceContext | None:
    """The calling process's current span context (None outside spans)."""
    return _state.ctx


def set_context(ctx: TraceContext | None) -> TraceContext | None:
    """Install ``ctx`` as the current context; returns the previous one."""
    previous = _state.ctx
    _state.ctx = ctx
    return previous


@dataclass(slots=True)
class OpenSpan:
    """A span that has begun but not ended (tracked by the tracer)."""

    ctx: TraceContext
    etype: str
    ts: float                       # simulated start time
    host: str = ""
    actor: str = ""
    fields: dict = field(default_factory=dict)
    #: whether begin_span installed ctx as the thread's current context
    installed: bool = False
    #: the context to restore at end_span (when installed)
    prev: TraceContext | None = None
    #: set once ended (or force-closed by a host failure)
    closed: bool = False
