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

:func:`critical_path` runs over a tracer's ring when
:func:`repro.obs.flight.snapshot_document` is built and returns the
dict the document carries; the renderers below read the document.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs import events as ev
from repro.obs.events import TraceEvent

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


def _detail(fields: dict) -> str:
    for key in _DETAIL_KEYS:
        value = fields.get(key)
        if value:
            return str(value)
    return ""


def _segment(start: float, end: float, category: str, etype: str,
             host: str = "", span_id: str | None = None,
             detail: str = "") -> dict:
    """One contiguous slice of the critical path."""
    return {
        "start": start, "end": end, "dur": end - start,
        "category": category, "etype": etype, "host": host,
        "span_id": span_id, "detail": detail,
    }


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


def critical_path(events: Iterable[TraceEvent],
                  trace_id: str | None = None) -> dict | None:
    """The critical path of ``trace_id`` over recorded events, as the
    JSON-safe dict a snapshot document carries; the main trace when
    ``trace_id`` is None or has no spans, and None when there are no
    spans at all."""
    by_trace: dict[str, list[TraceEvent]] = {}  # span events, by trace
    for event in events:
        if event.ctx is not None and event.dur is not None:
            by_trace.setdefault(event.ctx.trace_id, []).append(event)
    if trace_id not in by_trace:
        trace_id = main_trace_id(by_trace)
    if trace_id is None:
        return None
    all_spans = by_trace[trace_id]
    trace_start = min(s.ts for s in all_spans)
    trace_end = max(s.ts + (s.dur or 0.0) for s in all_spans)
    # Zero-duration spans cannot carry a segment; keep them only as gap
    # owners via ``all_spans``.
    spans = sorted(
        (s for s in all_spans if (s.dur or 0.0) > _EPS),
        key=lambda s: (s.ts + (s.dur or 0.0), s.ts),
    )
    segments: list[dict] = []
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
            if owner is None:
                segments.append(_segment(span_end, frontier, "queue",
                                         "(idle)", detail="gap"))
            else:
                segments.append(_segment(
                    span_end, frontier, "queue", owner.etype, owner.host,
                    owner.ctx.span_id, "gap"))
        seg_start = max(span.ts, trace_start)
        segments.append(_segment(
            seg_start, span_end, _category(span.etype), span.etype,
            span.host, span.ctx.span_id, _detail(span.fields)))
        frontier = seg_start
        i -= 1
    if frontier - trace_start > _EPS:
        segments.append(_segment(trace_start, frontier, "queue", "(idle)"))
    segments.reverse()
    totals: dict[str, float] = {}
    for seg in segments:
        totals[seg["category"]] = (totals.get(seg["category"], 0.0)
                                   + seg["dur"])
    return {
        "trace_id": trace_id,
        "trace_start": trace_start,
        "trace_end": trace_end,
        "makespan": trace_end - trace_start,
        "segments": segments,
        "totals": totals,
    }


# -- rendering -------------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    if abs(seconds) >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.3f}ms"


def render_critical_path(doc: dict, max_segments: int = 40) -> str:
    """A snapshot document's critical path as a table plus per-category
    totals."""
    from repro.util.tables import render_table

    cp = doc["critical_path"]
    shown = cp["segments"]
    elided = 0
    if len(shown) > max_segments:
        # Keep the longest segments, restore chronological order.
        by_dur = sorted(shown, key=lambda s: -s["dur"])[:max_segments]
        elided = len(shown) - len(by_dur)
        shown = sorted(by_dur, key=lambda s: s["start"])
    rows = [
        [f"{seg['start']:.3f}", _fmt_s(seg["dur"]), seg["category"],
         seg["etype"], seg["detail"], seg["host"] or "-"]
        for seg in shown
    ]
    parts = [render_table(
        ["t", "dur", "category", "etype", "detail", "host"], rows,
        title=(f"Critical path of trace {cp['trace_id']} "
               f"({len(cp['segments'])} segments, makespan "
               f"{_fmt_s(cp['makespan'])})"),
    )]
    if elided:
        parts.append(f"  ({elided} shorter segments elided)")
    totals = cp["totals"]
    covered = sum(totals.values())
    breakdown = "  ".join(
        f"{cat}={_fmt_s(dur)} ({dur / covered * 100.0:.1f}%)"
        for cat, dur in sorted(totals.items(), key=lambda kv: -kv[1])
    )
    parts.append(f"time on the critical path: {breakdown}")
    parts.append(
        f"segments sum to {_fmt_s(covered)} of {_fmt_s(cp['makespan'])} "
        "makespan"
    )
    return "\n".join(parts)


def _trace_spans(doc: dict) -> tuple[str, list[dict]]:
    """The id of the trace a document's critical path follows (the main
    trace, unless the document was captured for another) and that
    trace's spans among the document's events, in ring order."""
    cp = doc["critical_path"]
    if cp is None:
        return "", []
    trace_id = cp["trace_id"]
    return trace_id, [e for e in doc["events"]
                      if e["dur"] is not None
                      and e.get("trace_id") == trace_id]


def render_span_tree(doc: dict, max_lines: int = 120) -> str:
    """An indented listing of the span tree of a snapshot document's
    critical-path trace (in a bundle, of its spans in the ring's tail)."""
    trace_id, spans = _trace_spans(doc)
    if not spans:
        return "(no spans recorded)"
    spans = sorted(spans, key=lambda s: (s["ts"], -s["dur"]))
    ids = {s["span_id"] for s in spans}
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        parent = span["parent_id"]
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
            label = f"{span['etype']} {_detail(span['fields'])}".rstrip()
            where = f" [{span['host']}]" if span["host"] else ""
            lines.append(
                f"{'  ' * (depth + 1)}{label}  "
                f"t={span['ts']:.3f} +{_fmt_s(span['dur'])}{where}"
            )
            walk(span["span_id"], depth + 1)

    walk(None, 0)
    if truncated:
        lines.append(f"  ... (truncated at {max_lines} lines)")
    return "\n".join(lines)


def spans_document(doc: dict, with_critical_path: bool = True) -> dict:
    """The ``repro spans --json`` view of a snapshot document: the spans
    of the trace its critical path follows (the main trace live; the
    trigger event's trace in an incident bundle) plus that path.

    ``spans``, ``span_count`` and ``trace_count`` come from the
    document's ``events``, which in a bundle are only the ring's tail;
    ``makespan`` and ``critical_path`` cover the whole ring.

    Schema (checked by the CI smoke step): ``trace_id`` (str),
    ``makespan`` (number), ``span_count`` (int), ``spans`` (list of
    objects with trace_id/span_id/parent_id/etype/ts/dur/host), and —
    when requested — ``critical_path`` with ``segments`` and ``totals``.
    """
    trace_id, spans = _trace_spans(doc)
    cp = doc["critical_path"]
    out: dict = {
        "trace_id": trace_id,
        "trace_count": len({e["trace_id"] for e in doc["events"]
                            if e["dur"] is not None and "trace_id" in e}),
        "span_count": len(spans),
        "dropped_events": doc["dropped_events"],
        "makespan": cp["makespan"] if cp else 0.0,
        "spans": sorted(spans, key=lambda s: s["ts"]),
    }
    if with_critical_path:
        out["critical_path"] = cp
    return out
