"""Exporters: Chrome trace_event JSON and a human text summary, both
views of a snapshot document (:func:`repro.obs.flight.snapshot_document`).

The Chrome format (load via ``chrome://tracing`` or https://ui.perfetto.dev)
maps naturally: our spans become ``ph: "X"`` complete events, instants
become ``ph: "i"``; hosts become pids and actors tids, so the timeline
groups one swimlane per machine.  Spans carrying a
:class:`~repro.obs.spans.TraceContext` export their ids in ``args``,
and each cross-host ``rpc.request`` -> ``rpc.exec`` parent/child pair
additionally becomes a flow-event arrow (``ph: "s"`` / ``ph: "f"``)
between the two machines' swimlanes.  Simulated seconds are scaled to
the format's microseconds.
"""

from __future__ import annotations

import json
from collections import defaultdict

from repro.obs.events import (
    MIGRATE,
    MIGRATE_STEP,
    OBJ_CREATE,
    OBJ_FREE,
    OBJ_INVOKE,
    PROC_SPAWN,
    RPC_DROP,
    RPC_EXEC,
    RPC_REPLY,
    RPC_REQUEST,
)
from repro.util.tables import render_table

_US = 1_000_000.0  # trace_event timestamps are in microseconds


def to_chrome_trace(doc: dict) -> dict:
    """A snapshot document's events as a Chrome ``trace_event`` JSON
    object."""
    pids: dict[str, int] = {}
    tids: dict[tuple[int, str], int] = {}
    out: list[dict] = []

    def pid_of(host: str) -> int:
        name = host or "<global>"
        if name not in pids:
            pids[name] = len(pids) + 1
            out.append({
                "name": "process_name", "ph": "M", "pid": pids[name],
                "tid": 0, "args": {"name": name},
            })
        return pids[name]

    def tid_of(pid: int, actor: str) -> int:
        key = (pid, actor or "-")
        if key not in tids:
            tids[key] = sum(1 for p, _ in tids if p == pid) + 1
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": tids[key], "args": {"name": actor or "-"},
            })
        return tids[key]

    #: span_id -> (event, pid, tid) for the cross-host flow pass
    placed: dict[str, tuple[dict, int, int]] = {}

    for ev in doc["events"]:
        pid = pid_of(ev["host"])
        tid = tid_of(pid, ev["actor"])
        args = dict(ev["fields"])
        is_span = ev["dur"] is not None
        if "span_id" in ev:
            args.update((key, ev[key])
                        for key in ("trace_id", "span_id", "parent_id"))
            if is_span:
                placed[ev["span_id"]] = (ev, pid, tid)
        record = {
            "name": ev["etype"],
            "cat": ev["etype"].split(".", 1)[0],
            "pid": pid,
            "tid": tid,
            "ts": ev["ts"] * _US,
            "args": args,
        }
        if is_span:
            record["ph"] = "X"
            record["dur"] = ev["dur"] * _US
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)

    # Flow arrows: every child span on a different host than its parent
    # (request -> exec across the wire, exec -> reply chains, ...).
    flow_id = 0
    for child, cpid, ctid in placed.values():
        if child["parent_id"] not in placed:
            continue
        parent, ppid, ptid = placed[child["parent_id"]]
        if parent["host"] == child["host"]:
            continue
        flow_id += 1
        out.append({
            "name": "causal", "cat": "flow", "ph": "s", "id": flow_id,
            "pid": ppid, "tid": ptid, "ts": parent["ts"] * _US,
        })
        out.append({
            "name": "causal", "cat": "flow", "ph": "f", "bp": "e",
            "id": flow_id, "pid": cpid, "tid": ctid,
            "ts": child["ts"] * _US,
        })

    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(doc), fh)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.3f}ms"


def render_summary(doc: dict) -> str:
    """A text digest of a snapshot document: RPC traffic, object
    activity, migrations, drops."""
    parts: list[str] = []
    events = doc["events"]
    of: dict[str, list[dict]] = defaultdict(list)
    for ev in events:
        of[ev["etype"]].append(ev)

    rpc: dict[str, dict] = defaultdict(
        lambda: {"n": 0, "bytes": 0, "lat": 0.0, "lat_max": 0.0,
                 "p50": 0.0, "p95": 0.0, "p99": 0.0}
    )
    for ev in of[RPC_REQUEST]:
        row = rpc[ev["fields"].get("kind", "?")]
        row["n"] += 1
        row["bytes"] += ev["fields"].get("nbytes", 0)
    merged = doc["metrics"]["merged"]
    for name, hist in merged["histograms"].items():
        if name.startswith("rpc.latency:"):
            row = rpc[name.split(":", 1)[1]]
            row["lat"] = hist["mean"]
            row["lat_max"] = hist["max"]
            row["p50"] = hist["p50"]
            row["p95"] = hist["p95"]
            row["p99"] = hist["p99"]
    if rpc:
        rows = [
            [kind, row["n"], row["bytes"], _fmt_s(row["lat"]),
             _fmt_s(row["p50"]), _fmt_s(row["p95"]), _fmt_s(row["p99"]),
             _fmt_s(row["lat_max"])]
            for kind, row in sorted(rpc.items(), key=lambda kv: -kv[1]["n"])
        ]
        parts.append(render_table(
            ["kind", "requests", "req bytes", "mean rtt", "p50", "p95",
             "p99", "max rtt"],
            rows, title="RPC traffic by kind",
        ))

    drops = of[RPC_DROP]
    parts.append(
        f"handlers executed: {len(of[RPC_EXEC])}   "
        f"replies: {len(of[RPC_REPLY])}   drops: {len(drops)}   "
        f"processes spawned: {len(of[PROC_SPAWN])}"
    )
    for ev in drops:
        fields = ev["fields"]
        parts.append(
            f"  drop [{fields.get('stage', '?')}] "
            f"{fields.get('kind', '?')} at t={ev['ts']:.3f}: "
            f"{fields.get('reason', '?')}"
        )

    invokes = of[OBJ_INVOKE]
    if of[OBJ_CREATE] or invokes:
        modes: dict[str, int] = defaultdict(int)
        for ev in invokes:
            modes[ev["fields"].get("mode", "?")] += 1
        mode_txt = ", ".join(
            f"{m}={n}" for m, n in sorted(modes.items())
        ) or "none"
        parts.append(
            f"objects: {len(of[OBJ_CREATE])} created, "
            f"{len(of[OBJ_FREE])} freed; invocations: {mode_txt}"
        )

    migrations = of[MIGRATE]
    if migrations:
        rows = []
        steps_by_obj: dict[str, list[dict]] = defaultdict(list)
        for ev in of[MIGRATE_STEP]:
            steps_by_obj[ev["fields"].get("obj_id", "?")].append(ev)
        for ev in migrations:
            obj_id = ev["fields"].get("obj_id", "?")
            steps = " > ".join(
                s["fields"].get("step", "?") for s in steps_by_obj[obj_id]
            )
            rows.append([
                obj_id, ev["fields"].get("src", "?"),
                ev["fields"].get("dst", "?"), _fmt_s(ev["dur"] or 0.0),
                steps,
            ])
        parts.append(render_table(
            ["object", "from", "to", "duration", "protocol steps"],
            rows, title="Migrations",
        ))

    counters = merged["counters"]
    if counters:
        rows = [[name, round(value, 3)]
                for name, value in sorted(counters.items())]
        parts.append(render_table(["counter", "value"], rows,
                                  title="Counters"))

    if events:
        span = [ev["ts"] for ev in events]
        dropped = doc["dropped_events"]
        suffix = f" ({dropped} evicted by max_events)" if dropped else ""
        parts.insert(0, (
            f"trace: {len(events)} events over "
            f"{_fmt_s(max(span) - min(span))} simulated{suffix}"
        ))
    else:
        parts.append("(no events recorded)")
    return "\n".join(parts)
