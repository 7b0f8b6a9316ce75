"""Critical-path extraction over one trace's span set.

Given all spans of a trace (events with a ``ctx`` and a duration), the
extractor walks a *frontier* backwards from the trace's end: at each
step it picks the latest-ending span that ends at or before the
frontier (ties broken toward the later-starting, i.e. innermost, span),
emits the segment it covers, and moves the frontier to that span's
start.  Time not covered by any span ending at the frontier is emitted
as a *gap* segment attributed to the innermost span containing it
(queueing: someone was waiting, nothing was progressing the chain).

By construction the segments exactly tile ``[trace_start, trace_end]``,
so their durations sum to the trace makespan — the critical path
accounts for 100% of wall-clock, split into categories:

========  =====================================================
network   ``rpc.request`` / ``rpc.reply`` wire time
compute   modelled CPU (``compute`` spans)
lock      holder-side queueing (``lock.wait``)
queue     ``obj.wait`` handle waits and uncovered gaps
runtime   everything else (handler bodies, protocol steps, ...)
========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs import events as ev
from repro.obs.events import TraceEvent, event_doc

_EPS = 1e-12

_CATEGORY = {
    ev.RPC_REQUEST: "network",
    ev.RPC_REPLY: "network",
    ev.COMPUTE: "compute",
    ev.LOCK_WAIT: "lock",
    ev.OBJ_WAIT: "queue",
}

#: field keys worth surfacing as a one-word segment detail, in order
#: (``dest`` identifies obj.invoke.batch transfer segments)
_DETAIL_KEYS = ("kind", "method", "step", "obj_id", "app", "label", "dest")


def _category(etype: str) -> str:
    return _CATEGORY.get(etype, "runtime")


def _detail(event: TraceEvent) -> str:
    for key in _DETAIL_KEYS:
        value = event.fields.get(key)
        if value:
            return str(value)
    return ""


@dataclass
class Segment:
    """One contiguous slice of the critical path."""

    start: float
    end: float
    category: str
    etype: str
    host: str = ""
    actor: str = ""
    span_id: str | None = None
    detail: str = ""

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "start": self.start, "end": self.end, "dur": self.dur,
            "category": self.category, "etype": self.etype,
            "host": self.host, "span_id": self.span_id,
            "detail": self.detail,
        }


@dataclass
class CriticalPath:
    trace_id: str
    trace_start: float
    trace_end: float
    segments: list[Segment]

    @property
    def makespan(self) -> float:
        return self.trace_end - self.trace_start

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.category] = out.get(seg.category, 0.0) + seg.dur
        return out

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "trace_start": self.trace_start,
            "trace_end": self.trace_end,
            "makespan": self.makespan,
            "segments": [seg.as_dict() for seg in self.segments],
            "totals": self.totals(),
        }


def _events_of(source) -> list[TraceEvent]:
    events = getattr(source, "events", source)
    return list(events)


def spans_by_trace(source) -> dict[str, list[TraceEvent]]:
    """All span events (ctx + positive duration), grouped by trace."""
    out: dict[str, list[TraceEvent]] = {}
    for event in _events_of(source):
        if event.ctx is None or event.dur is None:
            continue
        out.setdefault(event.ctx.trace_id, []).append(event)
    return out


def main_trace_id(by_trace: dict[str, list[TraceEvent]]) -> str | None:
    """The most interesting trace: an application-rooted one if any
    exists (``app`` span), otherwise the one with the largest makespan."""

    def makespan(spans: Iterable[TraceEvent]) -> float:
        times = [(s.ts, s.ts + (s.dur or 0.0)) for s in spans]
        return max(t1 for _, t1 in times) - min(t0 for t0, _ in times)

    if not by_trace:
        return None
    app_traces = {
        tid: spans for tid, spans in by_trace.items()
        if any(s.etype == ev.APP for s in spans)
    }
    pool = app_traces or by_trace
    return max(pool, key=lambda tid: makespan(pool[tid]))


def _covering(spans: list[TraceEvent], start: float, end: float
              ) -> TraceEvent | None:
    """The innermost span containing [start, end] (latest-starting)."""
    owner = None
    for span in spans:
        if span.ts <= start + _EPS and span.ts + (span.dur or 0.0) >= \
                end - _EPS:
            if owner is None or span.ts > owner.ts:
                owner = span
    return owner


def critical_path(source, trace_id: str | None = None) -> CriticalPath | None:
    """Extract the critical path of ``trace_id`` (main trace by default)
    from a tracer or an event list; None when there are no spans."""
    by_trace = spans_by_trace(source)
    if trace_id is None:
        trace_id = main_trace_id(by_trace)
    all_spans = by_trace.get(trace_id or "", [])
    if not all_spans:
        return None
    trace_start = min(s.ts for s in all_spans)
    trace_end = max(s.ts + (s.dur or 0.0) for s in all_spans)
    # Zero-duration spans cannot carry a segment; keep them only as gap
    # owners via ``all_spans``.
    spans = sorted(
        (s for s in all_spans if (s.dur or 0.0) > _EPS),
        key=lambda s: (s.ts + (s.dur or 0.0), s.ts),
    )
    segments: list[Segment] = []
    frontier = trace_end
    i = len(spans) - 1
    while frontier - trace_start > _EPS and i >= 0:
        while i >= 0 and spans[i].ts + (spans[i].dur or 0.0) > \
                frontier + _EPS:
            i -= 1
        if i < 0:
            break
        span = spans[i]
        span_end = min(span.ts + (span.dur or 0.0), frontier)
        if frontier - span_end > _EPS:
            owner = _covering(all_spans, span_end, frontier)
            segments.append(Segment(
                start=span_end, end=frontier, category="queue",
                etype=owner.etype if owner else "(idle)",
                host=owner.host if owner else "",
                actor=owner.actor if owner else "",
                span_id=owner.ctx.span_id if owner and owner.ctx else None,
                detail="gap",
            ))
        seg_start = max(span.ts, trace_start)
        segments.append(Segment(
            start=seg_start, end=span_end, category=_category(span.etype),
            etype=span.etype, host=span.host, actor=span.actor,
            span_id=span.ctx.span_id if span.ctx else None,
            detail=_detail(span),
        ))
        frontier = seg_start
        i -= 1
    if frontier - trace_start > _EPS:
        segments.append(Segment(start=trace_start, end=frontier,
                                category="queue", etype="(idle)"))
    segments.reverse()
    return CriticalPath(trace_id=trace_id or "", trace_start=trace_start,
                        trace_end=trace_end, segments=segments)


# -- rendering -------------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    if abs(seconds) >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.3f}ms"


def render_critical_path(cp: CriticalPath, max_segments: int = 40) -> str:
    """The critical path as a table plus per-category totals."""
    from repro.util.tables import render_table

    shown = cp.segments
    elided = 0
    if len(shown) > max_segments:
        # Keep the longest segments, restore chronological order.
        by_dur = sorted(shown, key=lambda s: -s.dur)[:max_segments]
        elided = len(shown) - len(by_dur)
        shown = sorted(by_dur, key=lambda s: s.start)
    rows = [
        [f"{seg.start:.3f}", _fmt_s(seg.dur), seg.category, seg.etype,
         seg.detail, seg.host or "-"]
        for seg in shown
    ]
    parts = [render_table(
        ["t", "dur", "category", "etype", "detail", "host"], rows,
        title=(f"Critical path of trace {cp.trace_id} "
               f"({len(cp.segments)} segments, makespan "
               f"{_fmt_s(cp.makespan)})"),
    )]
    if elided:
        parts.append(f"  ({elided} shorter segments elided)")
    totals = cp.totals()
    covered = sum(totals.values())
    breakdown = "  ".join(
        f"{cat}={_fmt_s(dur)} ({dur / covered * 100.0:.1f}%)"
        for cat, dur in sorted(totals.items(), key=lambda kv: -kv[1])
    )
    parts.append(f"time on the critical path: {breakdown}")
    parts.append(
        f"segments sum to {_fmt_s(covered)} of {_fmt_s(cp.makespan)} "
        "makespan"
    )
    return "\n".join(parts)


def render_span_tree(source, trace_id: str | None = None,
                     max_lines: int = 120) -> str:
    """An indented listing of one trace's span tree."""
    by_trace = spans_by_trace(source)
    if trace_id is None:
        trace_id = main_trace_id(by_trace)
    spans = by_trace.get(trace_id or "", [])
    if not spans:
        return "(no spans recorded)"
    spans = sorted(spans, key=lambda s: (s.ts, -(s.dur or 0.0)))
    ids = {s.ctx.span_id for s in spans if s.ctx}
    children: dict[str | None, list[TraceEvent]] = {}
    for span in spans:
        parent = span.ctx.parent_id if span.ctx else None
        if parent not in ids:
            parent = None  # orphan (parent was an instant or unrecorded)
        children.setdefault(parent, []).append(span)

    lines = [f"trace {trace_id}: {len(spans)} spans"]
    truncated = False

    def walk(parent: str | None, depth: int) -> None:
        nonlocal truncated
        for span in children.get(parent, ()):
            if len(lines) > max_lines:
                truncated = True
                return
            detail = _detail(span)
            label = f"{span.etype} {detail}".rstrip()
            where = f" [{span.host}]" if span.host else ""
            lines.append(
                f"{'  ' * (depth + 1)}{label}  "
                f"t={span.ts:.3f} +{_fmt_s(span.dur or 0.0)}{where}"
            )
            if span.ctx:
                walk(span.ctx.span_id, depth + 1)

    walk(None, 0)
    if truncated:
        lines.append(f"  ... (truncated at {max_lines} lines)")
    return "\n".join(lines)


def spans_document(tracer, with_critical_path: bool = True) -> dict:
    """A JSON-ready document of the main trace: spans + critical path.

    Schema (checked by the CI smoke step): ``trace_id`` (str),
    ``makespan`` (number), ``span_count`` (int), ``spans`` (list of
    objects with trace_id/span_id/parent_id/etype/ts/dur/host), and —
    when requested — ``critical_path`` with ``segments`` and ``totals``.
    """
    by_trace = spans_by_trace(tracer)
    trace_id = main_trace_id(by_trace)
    spans = by_trace.get(trace_id or "", [])
    doc: dict = {
        "trace_id": trace_id or "",
        "trace_count": len(by_trace),
        "span_count": len(spans),
        "dropped_events": getattr(tracer, "dropped_events", 0),
        "makespan": 0.0,
        "spans": [],
    }
    if spans:
        start = min(s.ts for s in spans)
        end = max(s.ts + (s.dur or 0.0) for s in spans)
        doc["makespan"] = end - start
        doc["spans"] = [
            event_doc(s) for s in sorted(spans, key=lambda s: s.ts)]
    if with_critical_path:
        cp = critical_path(tracer, trace_id=trace_id)
        doc["critical_path"] = cp.as_dict() if cp else None
    return doc
