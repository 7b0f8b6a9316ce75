"""Ext-A: RMI micro-benchmarks — sync vs async vs one-sided invocation,
fast (100 Mbit switched) vs slow (10 Mbit shared) segments, payload sweep.

Regenerates the cost structure behind the paper's Section 4.5 claims:
one-sided < async-overlapped < sync for batches, and asynchronous
invocation overlapping useful work."""

import pytest

from harness import attach_metrics, fresh_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.agents.objects import jsclass
from repro.util.serialization import Payload
from repro.util.tables import render_table


@jsclass
class Pong:
    def ping(self, payload=None) -> str:
        return "pong"

    def sink(self, payload=None) -> None:
        return None


def measure_modes(target_host: str, calls: int = 20):
    """Simulated seconds to issue ``calls`` invocations in each mode."""
    runtime = fresh_testbed("dedicated", seed=3)
    timings = {}

    def app():
        from repro import context

        kernel = context.require().runtime.world.kernel
        reg = JSRegistration()
        cb = JSCodebase(); cb.add(Pong); cb.load(target_host)
        obj = JSObj("Pong", target_host)
        obj.sinvoke("ping")  # warm the path

        t0 = kernel.now()
        for _ in range(calls):
            obj.sinvoke("ping")
        timings["sync"] = kernel.now() - t0

        t0 = kernel.now()
        handles = [obj.ainvoke("ping") for _ in range(calls)]
        for handle in handles:
            handle.get_result()
        timings["async-batch"] = kernel.now() - t0

        t0 = kernel.now()
        for _ in range(calls):
            obj.oinvoke("sink")
        timings["oneway-issue"] = kernel.now() - t0

        reg.unregister()

    runtime.run_app(app, node="milena")
    return timings, runtime


@pytest.mark.parametrize("segment,host", [
    ("100Mbit-switched", "rachel"),
    ("10Mbit-shared", "ida"),
])
def test_invocation_modes(benchmark, segment, host):
    result = {}

    def run():
        timings, runtime = measure_modes(host)
        result.update(timings)
        attach_metrics(benchmark, runtime)
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["mode", "sim seconds for 20 calls", "per call [ms]"],
        [[mode, round(t, 4), round(t / 20 * 1000, 2)]
         for mode, t in result.items()],
        title=f"Ext-A | invocation modes, master->{host} ({segment})",
    ))
    benchmark.extra_info.update(
        {k: round(v, 5) for k, v in result.items()}
    )
    # One-sided issue time is far below sync round trips; a pipelined
    # async batch beats sequential sync calls (server dispatch is serial
    # per object, but request/reply legs overlap).
    assert result["oneway-issue"] < 0.2 * result["sync"]
    assert result["async-batch"] < result["sync"]


def test_payload_size_sweep(benchmark):
    """Per-call time vs payload size across the two segment classes."""
    sizes = [1_000, 10_000, 100_000, 1_000_000]
    rows = []

    def run():
        for host, segment in [("rachel", "100Mbit"), ("ida", "10Mbit")]:
            runtime = fresh_testbed("dedicated", seed=3)
            timings = {}

            def app():
                from repro import context

                kernel = context.require().runtime.world.kernel
                reg = JSRegistration()
                cb = JSCodebase(); cb.add(Pong); cb.load(host)
                obj = JSObj("Pong", host)
                obj.sinvoke("ping")
                for size in sizes:
                    t0 = kernel.now()
                    obj.sinvoke("ping", [Payload(nbytes=size)])
                    timings[size] = kernel.now() - t0
                reg.unregister()

            runtime.run_app(app, node="milena")
            rows.append(
                [segment] + [round(timings[s] * 1000, 2) for s in sizes]
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["segment"] + [f"{s//1000} KB [ms]" for s in sizes],
        rows,
        title="Ext-A | sync RMI time vs payload size",
    ))
    # Bandwidth ratio must show: 1 MB over 10 Mbit ~ 10x slower than
    # over 100 Mbit.
    fast_1mb = rows[0][-1]
    slow_1mb = rows[1][-1]
    assert slow_1mb > 5 * fast_1mb


def test_batched_vs_scalar(benchmark):
    """The minvoke tentpole, measured: one INVOKE_BATCH per destination
    must beat N scalar ainvokes on both message count and simulated
    makespan for the same call set."""
    calls = 32
    result = {}

    def run():
        runtime = fresh_testbed("dedicated", seed=3)
        stats = runtime.transport.stats

        def app():
            from repro import context

            kernel = context.require().runtime.world.kernel
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Pong); cb.load("rachel")
            obj = JSObj("Pong", "rachel")
            obj.sinvoke("ping")  # warm the path

            m0 = stats.messages
            t0 = kernel.now()
            handles = [obj.ainvoke("ping") for _ in range(calls)]
            for handle in handles:
                handle.get_result()
            result["scalar-time"] = kernel.now() - t0
            result["scalar-msgs"] = stats.messages - m0

            m0 = stats.messages
            t0 = kernel.now()
            obj.minvoke("ping", [None] * calls).get_results()
            result["batched-time"] = kernel.now() - t0
            result["batched-msgs"] = stats.messages - m0

            reg.unregister()

        runtime.run_app(app, node="milena")
        attach_metrics(benchmark, runtime)
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["strategy", f"sim seconds for {calls} calls", "messages"],
        [
            [name, round(result[f"{name}-time"], 4),
             result[f"{name}-msgs"]]
            for name in ("scalar", "batched")
        ],
        title="Ext-A | batched (minvoke) vs scalar RMI, master->rachel",
    ))
    benchmark.extra_info.update({
        k: round(v, 5) if isinstance(v, float) else v
        for k, v in result.items()
    })
    assert result["batched-msgs"] < result["scalar-msgs"]
    assert result["batched-time"] < result["scalar-time"]


def test_async_overlaps_local_work(benchmark):
    """The paper's motivation for ainvoke: overlap remote waiting with
    useful local computation."""
    result = {}

    def run():
        runtime = fresh_testbed("dedicated", seed=3)

        def app():
            from repro import context

            env = context.require()
            kernel = env.runtime.world.kernel
            world = env.runtime.world
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Pong); cb.load("johanna")
            obj = JSObj("Pong", "johanna")
            obj.sinvoke("ping")

            remote_work = Payload(nbytes=100, flops=42e6)  # ~1 s remote
            local_flops = 60e6                             # ~1 s local

            t0 = kernel.now()
            obj.sinvoke("ping", [remote_work])
            world.compute(reg.home_node, local_flops)
            result["sequential"] = kernel.now() - t0

            t0 = kernel.now()
            handle = obj.ainvoke("ping", [remote_work])
            world.compute(reg.home_node, local_flops)
            handle.get_result()
            result["overlapped"] = kernel.now() - t0
            reg.unregister()

        runtime.run_app(app, node="milena")
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["strategy", "sim seconds"],
        [[k, round(v, 3)] for k, v in result.items()],
        title="Ext-A | overlapping remote invocation with local work",
    ))
    assert result["overlapped"] < 0.75 * result["sequential"]


def test_retry_layer_overhead(benchmark):
    """The reliability layer on the fault-free path: same sinvoke loop
    with and without ``retry_policy``/``dedup_window`` configured.
    Correct-by-construction cost model: zero extra messages (idempotency
    tokens ride the existing request), and the sim-time ratio stays
    within noise."""
    from repro.agents.shell import ShellConfig
    from repro.rmi.reliability import RetryPolicy

    calls = 40
    result = {}

    def measure(shell):
        kwargs = {"shell": shell} if shell is not None else {}
        runtime = fresh_testbed("dedicated", seed=3, **kwargs)
        stats = runtime.transport.stats
        out = {}

        def app():
            from repro import context

            kernel = context.require().runtime.world.kernel
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Pong); cb.load("rachel")
            obj = JSObj("Pong", "rachel")
            obj.sinvoke("ping")  # warm the path
            m0 = stats.messages
            t0 = kernel.now()
            for _ in range(calls):
                obj.sinvoke("ping")
            out["time"] = kernel.now() - t0
            out["msgs"] = stats.messages - m0
            reg.unregister()

        runtime.run_app(app, node="milena")
        return out, runtime

    def run():
        baseline, _ = measure(None)
        reliable_shell = ShellConfig(
            retry_policy=RetryPolicy(), dedup_window=60.0,
        )
        reliable, runtime = measure(reliable_shell)
        result["baseline-time"] = baseline["time"]
        result["reliable-time"] = reliable["time"]
        result["baseline-msgs"] = baseline["msgs"]
        result["reliable-msgs"] = reliable["msgs"]
        attach_metrics(benchmark, runtime)
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = result["reliable-time"] / result["baseline-time"]
    print()
    print(render_table(
        ["config", f"sim seconds for {calls} calls", "messages"],
        [
            ["baseline", round(result["baseline-time"], 4),
             result["baseline-msgs"]],
            ["retry+dedup", round(result["reliable-time"], 4),
             result["reliable-msgs"]],
            ["ratio", round(ratio, 4), ""],
        ],
        title="Ext-A | reliability layer overhead, fault-free path",
    ))
    benchmark.extra_info.update({
        k: round(v, 5) if isinstance(v, float) else v
        for k, v in result.items()
    })
    # No extra wire traffic and no measurable fault-free slowdown.
    assert result["reliable-msgs"] == result["baseline-msgs"]
    assert ratio <= 1.05
