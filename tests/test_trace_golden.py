"""The enabled tracer's record, pinned byte for byte.

One seeded run drives every invocation mode (sync, async, ``minvoke``,
one-sided), a migration and a small nominal matmul under a recording
``Tracer``.  The sha256 covers every event's
``(ts, etype, host, actor, dur, fields, ctx)`` in arrival order, the
global metrics snapshot, every per-host snapshot (in registry creation
order), the ``events_of`` sizes, and the wire bytes and clock of the
run — the NAS heartbeat ships per-host metric deltas and is charged for
their size, so a registry that folded samples in another order would
move the bytes too.  A change to how the tracer records must reproduce
these digests; only a change *meant* to alter the record re-pins them.

The thread test checks the other half of the contract: samples recorded
concurrently from several OS threads are all there once read.
"""

import hashlib
import sys

from repro.apps.matmul import MatmulConfig, run_matmul
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.kernel import RealKernel
from repro.obs import Tracer, tracing
from tests.conftest import Counter


def traced_run(tracer):
    with tracing(tracer):
        rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=5))
    kernel = rt.world.kernel

    def calls():
        reg = JSRegistration()
        codebase = JSCodebase()
        codebase.add(Counter)
        codebase.load(["rachel", "johanna"])
        obj = JSObj("Counter", "rachel")
        obj.sinvoke("incr", [2])
        obj.ainvoke("incr", [3]).get_result()
        obj.minvoke("incr", [[1], [1], [1]]).get_results()
        obj.oinvoke("incr", [4])
        kernel.sleep(1.0)
        obj.migrate("johanna")
        obj.sinvoke("get")
        reg.unregister()

    rt.run_app(calls, node="milena")
    rt.run_app(run_matmul,
               MatmulConfig(n=120, nr_nodes=3, real_compute=False))
    return rt


def record_digest(tracer, rt):
    h = hashlib.sha256()
    for e in tracer.events:
        h.update(repr((e.ts, e.etype, e.host, e.actor, e.dur, e.fields,
                       e.ctx)).encode())
    h.update(repr(tracer.metrics.snapshot()).encode())
    for host, registry in tracer.host_metrics.items():
        h.update(repr((host, registry.snapshot())).encode())
    etypes = sorted({e.etype for e in tracer.events})
    h.update(repr([(t, len(tracer.events_of(t))) for t in etypes]).encode())
    h.update(repr((tracer.dropped_events, len(tracer.open_spans),
                   rt.transport.stats.bytes_total,
                   rt.world.kernel.now())).encode())
    return h.hexdigest()


def test_traced_record_is_pinned():
    tracer = Tracer()
    rt = traced_run(tracer)
    assert len(tracer.events) == 1323
    assert record_digest(tracer, rt) == (
        "eaeb0352abb7d53d747bcabfb903f3ccee5670b6c61c700cc87020360ab421c6"
    )


def test_ring_record_is_pinned():
    tracer = Tracer(max_events=500)
    rt = traced_run(tracer)
    assert len(tracer.events) == 500
    assert tracer.dropped_events == 1323 - 500
    assert record_digest(tracer, rt) == (
        "a22830bbff8720d26e828ddab7f1dc40cd8ad3b70932d251d7db8397d7cc12d7"
    )


def test_concurrent_samples_are_all_folded():
    """Four real threads record while a fifth keeps reading (and so
    folding): every sample lands once, globally and on its host."""
    tracer = Tracer()
    kernel = RealKernel(time_scale=0.005)
    per_thread = 20_000
    done = []

    def writer(i):
        host = f"h{i % 2}"
        for k in range(per_thread):
            tracer.count("hits", host=host)
            tracer.observe("lat", float(k % 7), host=host)

    def reader():
        while not done:
            tracer.metrics.snapshot()
            tracer.merged_host_metrics()

    def main():
        watcher = kernel.spawn(reader)
        writers = [kernel.spawn(writer, i) for i in range(4)]
        try:
            for proc in writers:
                proc.join(timeout=4000.0)  # 20 s of wall time
        finally:
            done.append(True)
        watcher.join(timeout=4000.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        kernel.run(main=kernel.spawn(main))
    finally:
        sys.setswitchinterval(interval)
    total = 4 * per_thread
    assert tracer.metrics.counter("hits") == total
    hist = tracer.metrics.histogram("lat")
    assert hist.count == total
    assert hist.total == 4 * sum(float(k % 7) for k in range(per_thread))
    for host in ("h0", "h1"):
        registry = tracer.metrics_for(host)
        assert registry.counter("hits") == total // 2
        assert registry.histogram("lat").count == total // 2
    assert tracer.merged_host_metrics()["counters"]["hits"] == total
