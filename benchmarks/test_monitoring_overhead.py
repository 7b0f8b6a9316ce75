"""Ext-I: the cost of monitoring itself.

The paper: "The performance measurement and collection periods can be
controlled under the JS-Shell."  That knob matters: every sample is a
message to the cluster manager (crossing the shared 10 Mbit hub for the
Sparcs) plus sender-side CPU, and every probe is a ping.  Sweep the
period and measure the impact on an application using 11 nodes."""

import pytest

from repro.agents.nas import NASConfig
from repro.apps.matmul import MatmulConfig, run_matmul
from repro.cluster import TestbedConfig as TBConfig
from repro.cluster import vienna_testbed
from repro.util.tables import render_table

PERIODS = [0.25, 1.0, 5.0, 20.0]


def run_with_period(period: float) -> tuple[float, int]:
    config = TBConfig(
        load_profile="night",
        seed=3,
        nas=NASConfig(monitor_period=period, probe_period=period),
    )
    runtime = vienna_testbed(config)
    result = runtime.run_app(
        lambda: run_matmul(
            MatmulConfig(n=1000, nr_nodes=11, real_compute=False)
        )
    )
    return result.elapsed, runtime.transport.stats.messages


def test_monitoring_period_sweep(benchmark):
    rows = []
    results = {}

    def run():
        for period in PERIODS:
            elapsed, messages = run_with_period(period)
            results[period] = elapsed
            rows.append([period, round(elapsed, 2), messages])
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["monitor/probe period [s]", "matmul time [s]",
         "total messages"],
        rows,
        title="Ext-I | monitoring overhead vs period "
              "(matmul 1000x1000, 11 nodes, night)",
    ))
    benchmark.extra_info.update(
        {str(k): round(v, 2) for k, v in results.items()}
    )
    # Aggressive monitoring costs real application time...
    assert results[0.25] > 1.2 * results[5.0]
    # ...while relaxing beyond a sane period stops paying anything.
    assert results[20.0] == pytest.approx(results[5.0], rel=0.05)


def test_telemetry_overhead_bounded(benchmark):
    """The telemetry piggyback's overhead gate: shipping per-host
    metrics deltas on the existing heartbeat must stay within 5% of the
    same-seed run with the whole obs plane off."""
    from harness import telemetry_comparison

    doc = benchmark.pedantic(telemetry_comparison, rounds=1, iterations=1)
    benchmark.extra_info["simulated_ratio"] = doc["simulated_ratio"]
    benchmark.extra_info["extra_bytes"] = doc["extra_bytes"]
    # Deltas reuse heartbeat messages: zero extra messages, only bytes.
    assert doc["extra_messages"] == 0
    assert doc["extra_bytes"] > 0
    assert doc["on"]["ingested_windows"] > 0
    assert doc["simulated_ratio"] <= 1.05
