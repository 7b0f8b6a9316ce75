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
"""

import hashlib

from repro.apps.matmul import MatmulConfig, run_matmul
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
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
        "17e2de221c669153ac04855968dbaada664bd4d8254b024213718ea74e3fce15"
    )


def test_ring_record_is_pinned():
    tracer = Tracer(max_events=500)
    rt = traced_run(tracer)
    assert len(tracer.events) == 500
    assert tracer.dropped_events == 1323 - 500
    assert record_digest(tracer, rt) == (
        "984407a104344eb98be2ad3b84ddfe88a160b0a39c41618e75d2bdd3c817d3ef"
    )

