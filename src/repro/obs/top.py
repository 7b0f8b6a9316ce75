"""``js-top``: a per-node, top-style view of a PySymphony run.

:func:`frames_from_trace` feeds ``python -m repro top``: the verb runs
the target under the tracer (virtual-time runs finish in host
milliseconds) and this reconstructs one frame per simulated-time window
from a snapshot document's events: RPC rates from ``rpc.request``
spans, CPU-busy from ``compute`` span overlap, idle/memory from the
``nas.sample`` fields, in-flight/slowest spans from span intervals, and
liveness from each host's ``host.failed`` / ``host.restarted`` marks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.obs import events as ev
from repro.util.tables import render_table


@dataclass
class HostRow:
    """One node's line in a frame."""

    host: str
    alive: bool = True
    idle: float | None = None        # sysmon CPU idle (%)
    mem_mb: float | None = None      # JS memory in use (MB)
    cpu_busy: float | None = None    # fraction of the window in compute
    rpc_tx: int = 0                  # requests sent (window or cumulative)
    rpc_rx: int = 0                  # requests received
    inflight: int = 0                # open spans touching the frame time
    migrations: int = 0              # objects adopted (cumulative)
    slowest_open: str = ""           # oldest span still open, with age


@dataclass
class TopFrame:
    t: float                         # simulated frame time
    window: float                    # seconds covered (0 = cumulative)
    rows: list[HostRow] = field(default_factory=list)
    open_spans: int = 0
    events: int = 0


def _host_of_addr(addr: str) -> str:
    """'oa@milena' -> 'milena' (transport addresses print agent@host)."""
    return addr.rsplit("@", 1)[-1] if "@" in addr else addr


def _fmt(value, suffix: str = "", none: str = "-") -> str:
    if value is None:
        return none
    if isinstance(value, float):
        return f"{value:.1f}{suffix}"
    return f"{value}{suffix}"


def render_top_frame(frame: TopFrame) -> str:
    window = (f"window {frame.window:.2f}s" if frame.window
              else "cumulative")
    rows = []
    for row in sorted(frame.rows, key=lambda r: r.host):
        rows.append([
            row.host if row.alive else f"{row.host}!",
            _fmt(row.idle, "%"),
            "-" if row.cpu_busy is None else f"{row.cpu_busy * 100.0:.0f}%",
            _fmt(row.mem_mb),
            row.rpc_tx,
            row.rpc_rx,
            row.inflight,
            row.migrations,
            row.slowest_open or "-",
        ])
    table = render_table(
        ["node", "idle", "js cpu", "js mem MB", "rpc tx", "rpc rx",
         "in-flight", "migr", "slowest open span"],
        rows,
        title=(f"js-top  t={frame.t:.2f}s  {window}  "
               f"{len(frame.rows)} nodes  {frame.open_spans} open spans  "
               f"{frame.events} events"),
    )
    return table


def render_top(frames: list[TopFrame]) -> str:
    return "\n\n".join(render_top_frame(frame) for frame in frames)


def frames_from_trace(doc: dict, period: float | None = None,
                      max_frames: int = 60) -> list[TopFrame]:
    """Reconstruct per-window frames from a snapshot document's events."""
    events: list[dict] = sorted(doc["events"], key=lambda e: e["ts"])
    if not events:
        return []
    t_min = events[0]["ts"]
    t_max = max(e["ts"] + (e["dur"] or 0.0) for e in events)
    makespan = max(t_max - t_min, 1e-9)
    if period is None or period <= 0.0:
        period = makespan / min(max_frames, 8)
    n_frames = max(1, min(max_frames, int(makespan / period + 0.999999)))
    period = makespan / n_frames

    hosts = sorted({e["host"] for e in events if e["host"]})
    stamps = [e["ts"] for e in events]
    spans = [e for e in events if e["dur"] is not None and e["host"]]
    # Per host, in time order: request send and arrival times, compute
    # spans, NAS samples, adoption times and (ts, up) failure/restart marks.
    tx, rx, computes, samples, adopted, marks = (
        {host: [] for host in hosts} for _ in range(6))
    for e in events:
        etype, host = e["etype"], e["host"]
        if etype == ev.RPC_REQUEST:
            if host:
                tx[host].append(e["ts"])
            dst = _host_of_addr(str(e["fields"].get("dst", "")))
            if dst in rx:
                rx[dst].append(e["ts"] + (e["dur"] or 0.0))
        elif not host:
            continue
        elif etype == ev.COMPUTE and e["dur"] is not None:
            computes[host].append(e)
        elif etype == ev.NAS_SAMPLE:
            samples[host].append(e)
        elif (etype == ev.MIGRATE_STEP
              and e["fields"].get("step") == "adopted"):
            adopted[host].append(e["ts"])
        elif etype in (ev.HOST_FAILED, ev.HOST_RESTARTED):
            marks[host].append((e["ts"], etype == ev.HOST_RESTARTED))
    for arrivals in rx.values():
        arrivals.sort()

    def window(times: list[float], lo: float, t: float) -> int:
        return bisect_right(times, t) - bisect_right(times, lo)

    frames: list[TopFrame] = []
    for k in range(1, n_frames + 1):
        t = t_min + k * period
        lo = t - period
        live = [s for s in spans if s["ts"] <= t < s["ts"] + s["dur"]]
        frame = TopFrame(t=t, window=period, open_spans=len(live),
                         events=bisect_right(stamps, t))
        live_on: dict[str, list[dict]] = {}
        for s in live:
            live_on.setdefault(s["host"], []).append(s)
        for host in hosts:
            ups = [up for ts, up in marks[host] if ts <= t]
            row = HostRow(host=host, alive=ups[-1] if ups else True)
            row.rpc_tx = window(tx[host], lo, t)
            row.rpc_rx = window(rx[host], lo, t)
            busy = 0.0
            for c in computes[host]:
                busy += max(0.0, min(t, c["ts"] + c["dur"])
                            - max(lo, c["ts"]))
            row.cpu_busy = min(1.0, busy / period)
            latest = None
            for s in samples[host]:
                if s["ts"] <= t:
                    latest = s
                else:
                    break
            if latest is not None:
                row.idle = latest["fields"].get("idle")
                row.mem_mb = latest["fields"].get("js_mem_mb")
            row.migrations = bisect_right(adopted[host], t)
            mine = live_on.get(host, [])
            row.inflight = len(mine)
            if mine:
                oldest = min(mine, key=lambda s: s["ts"])
                row.slowest_open = (
                    f"{oldest['etype']} +{t - oldest['ts']:.2f}s")
            frame.rows.append(row)
        frames.append(frame)
    return frames
