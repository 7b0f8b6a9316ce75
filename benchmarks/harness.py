"""Shared benchmark harness.

Every benchmark builds a *fresh* testbed per configuration (monitoring
state is deliberately stateful within a runtime, and benchmarks must not
see each other's history), runs a workload in virtual time, and prints
paper-style rows via :func:`repro.util.tables.render_table`.

pytest-benchmark measures host wall time of the simulation; the numbers
that matter for the reproduction — simulated seconds — are attached to
``benchmark.extra_info`` and printed as tables.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.agents.nas import NASConfig
from repro.apps.matmul import MatmulConfig, fig5_elapsed, run_matmul
from repro.cluster import TestbedConfig, vienna_testbed
from repro.obs import Tracer, set_tracer
from repro.util.tables import render_table

#: node counts swept for Figure 5 (the paper sweeps 1..13)
FIG5_NODE_COUNTS = [1, 2, 4, 6, 8, 10, 11, 12, 13]
#: problem sizes (the paper plots several N; exact values unreadable from
#: the scan, we use a spread around N=1000)
FIG5_SIZES = [600, 1000, 1500, 2000]

#: set REPRO_BENCH_METRICS=1 to run every benchmark testbed under a
#: Tracer and attach its metrics snapshot to ``benchmark.extra_info``.
METRICS_ENV = "REPRO_BENCH_METRICS"


def metrics_enabled() -> bool:
    return os.environ.get(METRICS_ENV, "") not in ("", "0")


def fresh_testbed(profile: str, seed: int = 1, **config_kwargs):
    if metrics_enabled():
        # Install a fresh ambient tracer so this testbed's world (and
        # everything on it) records; retrieve it via runtime.world.tracer.
        set_tracer(Tracer())
    config = TestbedConfig(load_profile=profile, seed=seed, **config_kwargs)
    return vienna_testbed(config)


def attach_metrics(benchmark, runtime) -> None:
    """Put the runtime's metrics snapshot into ``benchmark.extra_info``
    (no-op unless REPRO_BENCH_METRICS is set)."""
    tracer = runtime.world.tracer
    if benchmark is None or not tracer.enabled:
        return
    snapshot = tracer.metrics.snapshot()
    benchmark.extra_info["metrics_counters"] = snapshot["counters"]
    benchmark.extra_info["metrics_histograms"] = snapshot["histograms"]


@dataclass
class Fig5Point:
    profile: str
    n: int
    nodes: int
    elapsed: float           # simulated seconds
    speedup: float           # vs the 1-node sequential baseline


def fig5_point(
    profile: str, n: int, nodes: int, seed: int = 1,
    sequential_baseline: float | None = None,
) -> Fig5Point:
    """One point of Figure 5 on a fresh testbed.  ``nodes == 1`` is the
    paper's sequential baseline (no JavaSymphony at all)."""
    elapsed = fig5_elapsed(fresh_testbed(profile, seed), n, nodes)
    baseline = sequential_baseline if sequential_baseline else elapsed
    return Fig5Point(
        profile=profile,
        n=n,
        nodes=nodes,
        elapsed=elapsed,
        speedup=baseline / elapsed,
    )


def fig5_series(
    profile: str, n: int, node_counts=None, seed: int = 1
) -> list[Fig5Point]:
    node_counts = node_counts or FIG5_NODE_COUNTS
    sequential = fig5_point(profile, n, 1, seed)
    return [
        sequential if nodes == 1 else
        fig5_point(profile, n, nodes, seed,
                   sequential_baseline=sequential.elapsed)
        for nodes in node_counts
    ]


def print_fig5_table(n: int, night: list[Fig5Point],
                     day: list[Fig5Point]) -> None:
    rows = []
    for pn, pd in zip(night, day):
        assert pn.nodes == pd.nodes
        rows.append([
            pn.nodes,
            round(pn.elapsed, 1), round(pn.speedup, 2),
            round(pd.elapsed, 1), round(pd.speedup, 2),
        ])
    print()
    print(render_table(
        ["nodes", "night time [s]", "night speedup",
         "day time [s]", "day speedup"],
        rows,
        title=(f"Figure 5 | matmul {n}x{n} on the simulated Vienna "
               "cluster (1 node = sequential, no JavaSymphony)"),
    ))


# -- telemetry-plane overhead ------------------------------------------------


def _telemetry_run(traced: bool, n: int, nodes: int, seed: int,
                   period: float) -> dict:
    """One matmul run with the telemetry plane on (ambient tracer, SLO
    windows at every monitor tick) or fully off (NullTracer).  Same seed
    either way, so the simulated schedules are comparable."""
    set_tracer(Tracer() if traced else None)
    try:
        config = TestbedConfig(
            load_profile="night", seed=seed,
            nas=NASConfig(monitor_period=period, probe_period=period),
        )
        runtime = vienna_testbed(config)
        wall0 = time.perf_counter()
        result = runtime.run_app(
            lambda: run_matmul(
                MatmulConfig(n=n, nr_nodes=nodes, real_compute=False)
            )
        )
        wall = time.perf_counter() - wall0
        doc = {
            "telemetry": traced,
            "simulated_elapsed_s": result.elapsed,
            "wall_s": round(wall, 4),
            "messages": runtime.transport.stats.messages,
            "bytes": runtime.transport.stats.bytes_total,
        }
        if traced:
            tracer = runtime.world.tracer
            taken = runtime.nas.slo.taken
            doc["slo_windows"] = sum(taken.values())
            doc["nas_samples"] = tracer.metrics.counter("nas.samples")
            doc["hosts_reporting"] = len(taken)
            doc["histogram_families"] = sorted(
                tracer.metrics.snapshot()["histograms"])
        return doc
    finally:
        set_tracer(None)


def telemetry_comparison(n: int = 256, nodes: int = 8, seed: int = 7,
                         period: float = 1.0) -> dict:
    """Scalar (telemetry off) vs telemetry-enabled same-seed matmul.
    ``simulated_ratio`` is the telemetry plane's cost in *simulated*
    time, which the overhead gate holds at exactly 1: the windows never
    touch the simulated network."""
    off = _telemetry_run(False, n, nodes, seed, period)
    on = _telemetry_run(True, n, nodes, seed, period)
    return {
        "benchmark": "telemetry-overhead",
        "workload": {"app": "matmul", "n": n, "nodes": nodes,
                     "seed": seed, "monitor_period_s": period,
                     "profile": "night"},
        "off": off,
        "on": on,
        "simulated_ratio": on["simulated_elapsed_s"]
        / off["simulated_elapsed_s"],
        "extra_messages": on["messages"] - off["messages"],
        "extra_bytes": on["bytes"] - off["bytes"],
    }


def best(series: list[Fig5Point]) -> Fig5Point:
    return min(series, key=lambda p: p.elapsed)


def at_nodes(series: list[Fig5Point], nodes: int) -> Fig5Point:
    for point in series:
        if point.nodes == nodes:
            return point
    raise KeyError(nodes)
