"""What the instrumentation hooks on the runtime's cold paths record.

One program runs under a recording :class:`~repro.obs.Tracer` and a
:class:`~repro.sanitizer.Sanitizer` whose ``access`` is wrapped: create,
invoke (scalar, batched, asynchronous), migrate, store, load, free, a
classload and unload, a VA watch registered and unregistered, NAS
``add_node``/``remove_node`` and a manager takeover.  A second,
``reliable=True`` leg runs under a drop and a duplicate.  The tables
below pin which ``(owner, field)`` labels reach the sanitizer and which
events, counters and histograms the tracer hooks produce, so an
annotation or a hook that goes missing fails here by name.
"""

from collections import Counter as Tally

from repro.agents.nas import NASConfig
from repro.agents.shell import ShellConfig
from repro.chaos import ChaosInjector, FaultPlan
from repro.cluster import TestbedConfig, vienna_testbed
from repro.cluster.testbed import VIENNA_HOSTS
from repro.constraints import JSConstraints
from repro.core import JS, JSCodebase, JSObj, JSRegistration
from repro.obs import Tracer, tracing
from repro.sanitizer import Sanitizer, sanitizing
from repro.sysmon import SysParam
from repro.varch import Cluster
from tests.conftest import Counter  # noqa: F401 - registers the class

#: trace event types recorded by the hooks under test
HOOK_EVENTS = (
    "app", "classload", "migrate", "nas.probe", "nas.sample", "obj.create",
    "obj.free", "persist.load", "persist.store", "rpc.drop", "rpc.timeout",
)
#: counters and histograms fed by the hooks under test
HOOK_COUNTERS = (
    "invoke.batch.degraded", "invoke.batch.dispatched", "migrations",
    "nas.probes.failed", "nas.probes.ok", "nas.samples", "obj.created",
    "obj.freed", "persist.loads", "persist.stores", "rpc.dedup.hits",
    "rpc.dropped:reply", "rpc.dropped:request", "rpc.timeouts",
)
HOOK_HISTOGRAMS = ("migrate.duration", "migrate.pending_age")

#: the reliable leg: one INVOKE reply lost, one INVOKE request delivered
#: twice, and every INVOKE_BATCH (the batch degrades) and FREE_OBJECT
#: request (unregister drops the row itself) lost
RELIABLE_PLAN = (
    "drop:p=1,kinds=INVOKE,stage=reply,max=1; "
    "duplicate:p=1,kinds=INVOKE,stage=request,max=1; "
    "drop:p=1,kinds=INVOKE_BATCH|FREE_OBJECT,stage=request"
)


def run_observed(program, shell=None, plan=None, after=None):
    """Run ``program(runtime)`` as an application on a dedicated vienna
    testbed (seed 3) under a fresh tracer and sanitizer, then
    ``after(runtime)`` as a second one, homed on rachel.  Returns the
    ``(owner, field)`` tally of sanitizer accesses, the tracer and the
    sanitizer."""
    accesses = Tally()
    san = Sanitizer()
    access = san.access

    def counting_access(owner, field, write=True, scope=None):
        accesses[(owner, field)] += 1
        return access(owner, field, write=write, scope=scope)

    san.access = counting_access
    with sanitizing(san), tracing(Tracer()) as tracer:
        runtime = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=3,
            nas=NASConfig(monitor_period=2.0, probe_period=2.0,
                          failure_timeout=1.0),
            shell=shell or ShellConfig(rpc_timeout=3.0),
        ))
        if plan is not None:
            ChaosInjector(runtime.world, FaultPlan.parse(plan)).install(
                runtime.transport)
        runtime.run_app(program, runtime)
        if after is not None:
            runtime.run_app(after, runtime, node="rachel")
    return accesses, tracer, san


def hook_record(tracer):
    """The hook-produced part of what ``tracer`` recorded."""
    metrics = tracer.metrics
    events = Tally(e.etype for e in tracer.events)
    return {
        "events": {t: events[t] for t in HOOK_EVENTS if events[t]},
        "counters": {n: metrics.counter(n) for n in HOOK_COUNTERS
                     if metrics.counter(n)},
        "histograms": {n: metrics.histogram(n).count
                       for n in HOOK_HISTOGRAMS
                       if metrics.histogram(n) is not None},
    }


def lifecycle(runtime):
    reg = JSRegistration()
    constraints = JSConstraints([(SysParam.IDLE, ">=", 1)])
    Cluster(2, constraints=constraints)  # a VA watch at the home PubOA
    codebase = JSCodebase()
    codebase.add(Counter)
    codebase.load(["rachel", "johanna"])
    obj = JSObj("Counter", "rachel")
    assert obj.sinvoke("incr") == 1
    assert obj.minvoke("incr", [None, None]).get_results() == [2, 3]
    pending = obj.ainvoke("incr")
    obj.migrate("johanna")  # drains the pending call first
    assert pending.get_result() == 4
    copy = JS.load(obj.store(), "rachel")
    assert copy.sinvoke("get") == 4
    copy.free()
    reg.unregister()
    codebase.free()


def membership(runtime):
    shell = runtime.shell
    shell.remove_node("theresa")
    shell.add_node("theresa", "ultras", "vienna")
    nas = runtime.nas
    manager = nas.cluster_manager("sparcs")
    runtime.world.fail_host(manager)
    runtime.world.kernel.sleep(10.0)  # probes find it; a backup takes over
    assert nas.cluster_manager("sparcs") != manager


def faulty_calls(runtime):
    reg = JSRegistration()
    codebase = JSCodebase()
    codebase.add(Counter)
    codebase.load("rachel")
    obj = JSObj("Counter", "rachel")
    assert obj.sinvoke("incr") == 1
    assert obj.sinvoke("incr") == 2
    assert obj.sinvoke("incr") == 3
    # The batch is lost for good; its slots are retried one by one.
    assert obj.minvoke("incr", [None, None]).get_results() == [4, 5]
    reg.unregister()
    assert not runtime.apps


def startup_accesses():
    """The NAS spawning one network agent per vienna host."""
    return Tally({("NAS", f"agents[{host}]"): 1
                  for host, _ in VIENNA_HOSTS})


def test_fault_free_lifecycle_reaches_every_hook():
    accesses, tracer, san = run_observed(lifecycle, after=membership)
    expected = startup_accesses() + Tally({
        ("AppOA[app-1]", "refs[app-1:obj-1]"): 2,  # create, free
        ("AppOA[app-1]", "refs[app-1:obj-2]"): 2,  # load, free
        ("ObjectHolder[oa@rachel]", "objects[app-1:obj-1]"): 2,
        ("ObjectHolder[oa@johanna]", "objects[app-1:obj-1]"): 2,
        ("ObjectHolder[oa@rachel]", "objects[app-1:obj-2]"): 2,
        ("PubOA[rachel]", "loaded[Counter]"): 2,  # load, unload
        ("PubOA[johanna]", "loaded[Counter]"): 2,
        ("PubOA[milena]", "va_watches[app-1:watch-1]"): 2,
        ("NAS", "agents[theresa]"): 2,  # remove_node, add_node
        ("NAS", "managers[ultras]"): 2,
        ("NAS", "agents[dora]"): 1,  # the sparcs takeover
        ("NAS", "managers[sparcs]"): 1,
    })
    assert dict(accesses) == dict(expected)
    assert hook_record(tracer) == {
        "events": {
            "app": 2, "classload": 1, "migrate": 1, "nas.probe": 94,
            "nas.sample": 65, "obj.create": 1, "obj.free": 2,
            "persist.load": 1, "persist.store": 1, "rpc.drop": 14,
            "rpc.timeout": 5,
        },
        "counters": {
            "invoke.batch.dispatched": 2.0, "migrations": 1.0,
            "nas.probes.failed": 5.0, "nas.probes.ok": 89.0,
            "nas.samples": 65.0, "obj.created": 1.0, "obj.freed": 2.0,
            "persist.loads": 1.0, "persist.stores": 1.0,
            "rpc.dropped:request": 14.0, "rpc.timeouts": 5.0,
        },
        "histograms": {"migrate.duration": 1, "migrate.pending_age": 1},
    }
    assert san.findings == []


def test_reliable_leg_under_a_drop_and_a_duplicate():
    accesses, tracer, san = run_observed(
        faulty_calls, shell=ShellConfig(rpc_timeout=3.0, reliable=True),
        plan=RELIABLE_PLAN,
    )
    expected = startup_accesses() + Tally({
        # create, then unregister's own drop after the free is lost
        ("AppOA[app-1]", "refs[app-1:obj-1]"): 2,
        ("ObjectHolder[oa@rachel]", "objects[app-1:obj-1]"): 1,
        ("PubOA[rachel]", "loaded[Counter]"): 1,
    })
    assert dict(accesses) == dict(expected)
    assert hook_record(tracer) == {
        "events": {
            "app": 1, "classload": 1, "nas.probe": 264, "nas.sample": 165,
            "obj.create": 1, "rpc.drop": 9, "rpc.timeout": 8,
        },
        "counters": {
            "invoke.batch.degraded": 1.0, "nas.probes.ok": 264.0,
            "nas.samples": 165.0, "obj.created": 1.0,
            "rpc.dedup.hits": 1.0, "rpc.dropped:reply": 1.0,
            "rpc.dropped:request": 8.0, "rpc.timeouts": 8.0,
        },
        "histograms": {},
    }
    assert san.findings == []
