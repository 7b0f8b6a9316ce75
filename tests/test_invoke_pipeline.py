"""The AppOA invocation pipeline, pinned from outside.

``test_golden_run`` drives every invocation path — sync / async /
one-sided, local and remote, ``minvoke`` groups, the
stale-handle redirect, calls in flight across a migration, store/load —
through one seeded testbed and compares the simulated clock, the
transport's message ledger, the results and the shape of the trace with
values recorded *before* the pipeline was collapsed onto one call
record.  A refactor of ``agents/app_oa.py`` that moves any of them
changed behaviour, not just structure.

The quiescence tests check the invariant the lifecycle exists for:
whatever the mode, target and tracer state, a settled call leaves no
pending count, no open span and exactly one ``obj.invoke`` event.  The
degradation test covers the one carrier no other test reaches: a batch
group re-driven slot by slot after its message ran out of retries.
"""

import threading
from collections import Counter as Multiset
from contextlib import nullcontext

import pytest

from repro.agents.objects import jsclass
from repro.agents.shell import ShellConfig
from repro.chaos import ChaosInjector, FaultPlan
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JS, JSCodebase, JSObj, JSRegistration, minvoke
from repro.errors import ObjectStateError, RemoteInvocationError
from repro.obs import Tracer, events as ev, tracing
from repro.rmi.reliability import RetryPolicy
from repro.util.serialization import Payload
from tests.conftest import Counter  # noqa: F401


def load_counter(hosts):
    codebase = JSCodebase()
    codebase.add(Counter)
    codebase.load(hosts)


def outcome(fn):
    """``fn()``'s result, or the class name of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc).__name__


def golden_script(rt):
    """One pass over every invocation path; returns the result list."""
    kernel = rt.world.kernel
    out = []
    shared = {}

    def owner():
        reg = JSRegistration()
        load_counter(["rachel", "johanna", "greta"])
        local = JSObj("Counter", "local")
        remote = JSObj("Counter", "rachel")
        pair = (local, remote)

        # sync / async / one-sided x local / remote
        out.extend([local.sinvoke("incr", [2]), remote.sinvoke("incr", [2])])
        handles = [o.ainvoke("incr", [3]) for o in pair]
        out.extend(h.get_result() for h in handles)
        for o in pair:
            o.oinvoke("incr", [4])
        kernel.sleep(1.0)  # one-sided calls land
        out.extend([local.sinvoke("get"), remote.sinvoke("get")])

        # a failing call in each mode
        out.extend(outcome(lambda o=o: o.sinvoke("boom")) for o in pair)
        handles = [o.ainvoke("boom") for o in pair]
        out.extend(outcome(h.get_result) for h in handles)
        for o in pair:
            o.oinvoke("boom")
        kernel.sleep(1.0)

        # minvoke: a local group, a remote group, a mixed list with a
        # failing slot
        out.extend(local.minvoke("incr", [[1], [1]]).get_results())
        out.extend(remote.minvoke("incr", [[1], [1], [1]]).get_results())
        mixed = minvoke([
            (local, "incr", [1]), (remote, "boom", None),
            (remote, "get", None), (local, "boom", None),
        ])
        out.extend(
            o if not isinstance(o, Exception) else type(o).__name__
            for o in mixed.outcomes()
        )

        # three minvoke groups of 3, 3 and 2 calls, the last one failing
        calls = [(remote, "incr", None)] * 7 + [(remote, "boom", None)]
        groups = [minvoke(calls[i:i + 3]) for i in (0, 3, 6)]
        out.extend(outcome(h.get_result) for g in groups for h in g.handles)

        # migrate x2 with three async calls in flight each time, then a
        # locally held object pushed out and pulled back
        handles = [remote.ainvoke("incr") for _ in range(3)]
        remote.migrate("johanna")
        out.extend(h.get_result() for h in handles)
        out.append(remote.get_node())
        handles = [remote.ainvoke("incr") for _ in range(3)]
        remote.migrate("greta")
        out.extend(h.get_result() for h in handles)
        out.append(remote.get_node())
        handles = [local.ainvoke("incr") for _ in range(3)]
        local.migrate("rachel")
        out.extend(h.get_result() for h in handles)
        local.migrate("local")
        out.append(local.sinvoke("get"))

        shared.update(reg=reg, remote=remote)

    rt.run_app(owner, node="milena")

    def visitor():
        """A second application holding a handle that goes stale."""
        reg = JSRegistration()
        remote = shared["remote"]
        stale = JSObj._from_ref(remote.ref, reg.app)
        out.append(stale.sinvoke("get"))        # cache: greta
        remote.migrate("johanna")
        stale.oinvoke("incr", [10])             # forwarded by the tombstone
        kernel.sleep(1.0)
        out.extend(stale.minvoke("incr", [[1], [1]]).get_results())
        remote.migrate("rachel")
        out.append(stale.ainvoke("incr").get_result())
        remote.migrate("greta")
        out.extend(stale.minvoke("incr", [None, None]).get_results())
        out.append(stale.get_node())

        # store + load
        key = remote.store("golden")
        clone = JS.load(key)
        away = JS.load(key, "johanna")
        out.extend([clone.sinvoke("incr"), away.sinvoke("incr")])
        out.append(dict(reg.app.foreign_pending))
        out.append(sum(e.pending for e in shared["reg"].app.refs.values()))
        reg.unregister()
        shared["reg"].unregister()

    rt.run_app(visitor, node="anton")
    return out


def golden_run(traced, reliable):
    shell = ShellConfig(reliable=reliable)
    config = TestbedConfig(load_profile="dedicated", seed=3, shell=shell)
    tracer = Tracer() if traced else None
    with tracing(tracer) if traced else nullcontext():
        rt = vienna_testbed(config)
        results = golden_script(rt)
    stats = rt.transport.stats
    return {
        "now": rt.world.kernel.now(),
        "messages": stats.messages,
        "bytes_total": stats.bytes_total,
        "by_kind": dict(stats.by_kind),
        "results": results,
    }, tracer


def trace_shape(tracer):
    """``Counter((etype, mode, parent etype))`` over every
    event of the run.  A span's parent is the span that caused it; an
    instant's is the span it was emitted inside."""
    etype_of = {e.ctx.span_id: e.etype for e in tracer.events
                if e.ctx is not None and e.dur is not None}
    shape = Multiset()
    for e in tracer.events:
        parent = None
        if e.ctx is not None:
            parent = etype_of.get(
                e.ctx.parent_id if e.dur is not None else e.ctx.span_id
            )
        shape[(e.etype, e.fields.get("mode"), parent)] += 1
    return dict(shape)


#: recorded on the tree before the refactor (fire-once RPCs); traced and
#: untraced runs agree on every value
GOLDEN = {
    "now": 3.2804122190476215,
    "messages": 132,
    "bytes_total": 54735,
    "by_kind": {
        "LOAD_CLASSES": 3, "LOAD_CLASSES:reply": 3,
        "CREATE_OBJECT": 1, "CREATE_OBJECT:reply": 1,
        "INVOKE": 21, "INVOKE:reply": 21,
        "INVOKE_BATCH": 7, "INVOKE_BATCH:reply": 7,
        "ONEWAY_INVOKE": 4,
        "MIGRATE_OUT": 6, "MIGRATE_OUT:reply": 6,
        "MIGRATE_IN": 7, "MIGRATE_IN:reply": 7,
        "FETCH_STATE": 1, "FETCH_STATE:reply": 1,
        "CREATE_FROM_STATE": 1, "CREATE_FROM_STATE:reply": 1,
        "FREE_OBJECT": 2, "FREE_OBJECT:reply": 2,
        "PING": 9, "PING:reply": 9,
        "REPORT_PARAMS": 11, "REPORT_AGGREGATE": 1,
    },
    "results": [
        2, 2, 5, 5, 9, 9,                               # sync/async/oneway
        "ValueError", "RemoteInvocationError",          # sync boom
        "ValueError", "RemoteInvocationError",          # async boom
        10, 11, 10, 11, 12,                             # minvoke groups
        12, "RemoteInvocationError", 12, "ValueError",  # mixed minvoke
        13, 14, 15, 16, 17, 18, 19, "RemoteInvocationError",  # 3 + 3 + 2
        20, 21, 22, "johanna", 23, 24, 25, "greta",     # migrate x2
        13, 14, 15, 15,                                 # local out and back
        25, 36, 37, 38, 39, 40, "greta",                # stale handle
        41, 41,                                         # store + load
        {}, 0,                                          # nothing pending
    ],
}

#: what ShellConfig(reliable=True) changes: the three remote
#: one-sided calls travel on an acked RPC (the tombstone's forward of the
#: fourth stays a bare send)
GOLDEN_RELIABLE = {
    **GOLDEN,
    "now": 3.2783494372294397,
    "messages": 135,
    "bytes_total": 55664,
    "by_kind": {**GOLDEN["by_kind"], "ONEWAY_INVOKE:reply": 3},
}

#: (etype, mode, parent etype) -> events
GOLDEN_SHAPE = {
    ("app", None, None): 2,
    ("classload", None, "app"): 1,
    ("compute", None, "app"): 3,
    ("compute", None, "classload"): 3,
    ("compute", None, "migrate"): 7,
    ("compute", None, "nas.sample"): 12,
    ("compute", None, "obj.invoke"): 24,
    ("compute", None, "obj.invoke.batch"): 7,
    ("compute", None, "persist.load"): 1,
    ("compute", None, "persist.store"): 1,
    ("compute", None, "rpc.exec"): 65,
    ("compute", None, None): 9,
    ("migrate", None, "app"): 7,
    ("migrate.step", None, "migrate"): 4,
    ("migrate.step", None, "rpc.exec"): 31,
    ("nas.probe", None, None): 9,
    ("nas.sample", None, None): 13,
    ("obj.create", None, "app"): 2,
    ("obj.dispatch", None, "obj.invoke"): 12,
    ("obj.dispatch", None, "obj.invoke.batch"): 4,
    ("obj.dispatch", None, "rpc.exec"): 34,
    ("obj.fetch_state", None, "rpc.exec"): 1,
    ("obj.free", None, "app"): 4,
    ("obj.invoke", "async", "app"): 14,
    ("obj.invoke", "batch", "obj.invoke.batch"): 21,
    ("obj.invoke", "oneway", "app"): 5,
    ("obj.invoke", "sync", "app"): 10,
    ("obj.invoke.batch", None, "app"): 9,
    ("obj.wait", None, "obj.invoke"): 16,
    ("persist.load", None, "app"): 2,
    ("persist.store", None, "app"): 1,
    ("proc.spawn", None, "app"): 25,
    ("proc.spawn", None, None): 115,
    ("rpc.exec", None, "rpc.request"): 74,
    ("rpc.reply", None, "rpc.exec"): 58,
    ("rpc.request", None, "app"): 3,
    ("rpc.request", None, "classload"): 3,
    ("rpc.request", None, "migrate"): 7,
    ("rpc.request", None, "nas.sample"): 12,
    ("rpc.request", None, "obj.invoke"): 24,
    ("rpc.request", None, "obj.invoke.batch"): 7,
    ("rpc.request", None, "persist.load"): 1,
    ("rpc.request", None, "persist.store"): 1,
    ("rpc.request", None, "rpc.exec"): 7,
    ("rpc.request", None, None): 9,
}

#: the acked one-sided calls: a worker spawned under the call's span,
#: and a reply leg (with its serialization charge) per ack
GOLDEN_SHAPE_RELIABLE = {
    **GOLDEN_SHAPE,
    ("proc.spawn", None, "obj.invoke"): 3,
    ("compute", None, "rpc.exec"): 68,
    ("rpc.reply", None, "rpc.exec"): 61,
}


@pytest.mark.parametrize("traced, reliable, golden, shape", [
    (True, False, GOLDEN, GOLDEN_SHAPE),
    (True, True, GOLDEN_RELIABLE, GOLDEN_SHAPE_RELIABLE),
    (False, False, GOLDEN, None),
], ids=["traced", "traced-reliable", "untraced"])
def test_golden_run(traced, reliable, golden, shape):
    got, tracer = golden_run(traced, reliable)
    for key, pinned in golden.items():
        assert got[key] == pinned, key
    if traced:
        assert trace_shape(tracer) == shape
        assert tracer.open_spans == {}


# ---------------------------------------------------------------------------
# quiescence: every mode x target x tracer state settles completely
# ---------------------------------------------------------------------------

#: test mode -> the ``mode`` field its obj.invoke span carries
SPAN_MODE = {"sync": "sync", "async": "async", "oneway": "oneway",
             "batch": "batch"}


def issue(app, obj, mode):
    """One ``incr`` on ``obj`` in the given mode, result consumed."""
    if mode == "sync":
        obj.sinvoke("incr")
    elif mode == "async":
        obj.ainvoke("incr").get_result()
    elif mode == "oneway":
        obj.oinvoke("incr")
    else:
        obj.minvoke("incr", [None]).get_results()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("target", ["local", "remote", "stale"])
@pytest.mark.parametrize("mode", list(SPAN_MODE))
def test_settled_call_leaves_nothing_behind(mode, target, traced):
    """After the call and a short sleep: no pending count on either
    table, no open span but the application's root, the call executed
    exactly once and left exactly one ``obj.invoke`` event."""
    tracer = Tracer() if traced else None
    with tracing(tracer) if traced else nullcontext():
        rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))
    kernel = rt.world.kernel
    shared = {}

    def owner():
        reg = JSRegistration()
        load_counter(["rachel", "johanna"])
        obj = JSObj("Counter", "local" if target == "local" else "rachel")
        shared.update(reg=reg, obj=obj)
        if target != "stale":
            check(reg.app, obj)

    def visitor():
        reg = JSRegistration()
        stale = JSObj._from_ref(shared["obj"].ref, reg.app)
        assert stale.sinvoke("get") == 0    # cache: rachel
        shared["obj"].migrate("johanna")
        check(reg.app, stale)
        assert stale.get_node() == "johanna"

    def check(app, obj):
        issue(app, obj, mode)
        kernel.sleep(0.5)
        assert app.pending_invocations(obj.obj_id) == 0
        assert app.foreign_pending == {}
        assert obj.sinvoke("get") == 1
        if traced:
            assert [s.etype for s in tracer.open_spans.values()] == [ev.APP]

    rt.run_app(owner, node="milena")
    if target == "stale":
        rt.run_app(visitor, node="anton")
    if not traced:
        return
    (call,) = [e for e in tracer.events_of(ev.OBJ_INVOKE)
               if e.fields["method"] == "incr"]
    assert call.fields["mode"] == SPAN_MODE[mode]
    assert "error" not in call.fields
    batches = tracer.events_of(ev.OBJ_INVOKE_BATCH)
    if mode == "batch":
        # the group's span parents the slot's
        (batch,) = batches
        assert call.ctx.parent_id == batch.ctx.span_id
    else:
        assert batches == []


def test_batch_degradation_settles_every_slot():
    """A group whose ``INVOKE_BATCH`` message exhausts its retries is
    re-driven slot by slot as scalar invocations, each under its own
    span; a slot that still fails surfaces its own error."""
    shell = ShellConfig(reliable=True)
    with tracing(Tracer()) as tracer:
        rt = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=3, shell=shell,
        ))
        ChaosInjector(rt.world, FaultPlan.parse(
            "drop:p=1,kinds=INVOKE_BATCH,stage=request"
        )).install(rt.transport)

        def app():
            reg = JSRegistration()
            load_counter(["rachel"])
            obj = JSObj("Counter", "rachel")
            mh = minvoke([
                (obj, "incr", [1]), (obj, "boom", None), (obj, "incr", [1]),
            ])
            outcomes = mh.outcomes()
            assert reg.app.pending_invocations(obj.obj_id) == 0
            reg.unregister()
            return outcomes

        first, failed, last = rt.run_app(app, node="milena")
    assert (first, last) == (1, 2)
    assert isinstance(failed, RemoteInvocationError)
    by_kind = rt.transport.stats.by_kind
    attempts = RetryPolicy.MAX_ATTEMPTS
    assert by_kind["INVOKE_BATCH"] == attempts and by_kind["INVOKE"] == 3
    assert tracer.metrics.counter("invoke.batch.degraded") == 1
    assert tracer.open_spans == {}
    (batch,) = tracer.events_of(ev.OBJ_INVOKE_BATCH)
    slots = tracer.events_of(ev.OBJ_INVOKE)
    assert [s.fields["mode"] for s in slots] == ["batch"] * 3
    assert [s.fields.get("error") for s in slots] == [None, True, None]
    assert {s.ctx.parent_id for s in slots} == {batch.ctx.span_id}
    # each scalar retry travelled under its own slot's span
    scalar = [e for e in tracer.events_of(ev.RPC_REQUEST)
              if e.fields["kind"] == "INVOKE"]
    assert [e.ctx.parent_id for e in scalar] == [s.ctx.span_id for s in slots]


# ---------------------------------------------------------------------------
# a dead handle must not leak what its batch-mates were counted for
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", ["minvoke", "ainvoke"])
def test_dead_handle_leaks_no_pending_and_no_span(path):
    """A freed handle raises ``ObjectStateError`` when its destination
    is resolved: in ``minvoke`` before anything in the list is counted,
    in ``ainvoke`` on the worker, through the handle.  ``minvoke`` used
    to count and trace the call and its batch-mates first: the counts
    never came back, and the next migration of a batch-mate sat in the
    pending drain for its whole timeout — forever with the default
    ``migrate_drain_timeout=None``.  A scalar call counted before it
    fails must release its count as it settles."""
    shell = ShellConfig(migrate_drain_timeout=2.0)
    with tracing(Tracer()) as tracer:
        rt = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=3, shell=shell,
        ))
    kernel = rt.world.kernel

    def app():
        reg = JSRegistration()
        load_counter(["rachel", "johanna"])
        live = JSObj("Counter", "rachel")
        dead = JSObj("Counter", "rachel")
        dead.free()
        handles = []
        if path == "minvoke":
            with pytest.raises(ObjectStateError):
                minvoke([(live, "incr", []), (dead, "incr", [])])
        else:
            handles = [live.ainvoke("incr"), dead.ainvoke("incr")]
            with pytest.raises(ObjectStateError):
                handles.pop().get_result()
        kernel.sleep(0.5)
        assert reg.app.pending_invocations(live.obj_id) == 0
        assert reg.app.pending_invocations(dead.obj_id) == 0
        assert reg.app.foreign_pending == {}
        assert [s.etype for s in tracer.open_spans.values()] == [ev.APP]
        t0 = kernel.now()
        live.migrate("johanna")
        assert kernel.now() - t0 < 0.1
        # minvoke raised as a whole; the live ainvoke ran on its own
        done = [h.get_result() for h in handles]
        assert done == ([] if path == "minvoke" else [1])
        assert live.sinvoke("get") == len(done)
        reg.unregister()

    rt.run_app(app, node="milena")


# ---------------------------------------------------------------------------
# the wire codec as the invocation paths see it
# ---------------------------------------------------------------------------


@jsclass
class Keeper:
    """Keeps what it was handed, so a test can read it back."""

    def __init__(self) -> None:
        self.kept = []

    def store(self, items) -> None:
        self.kept.append(items)

    def get(self) -> list:
        return self.kept


@pytest.mark.parametrize("mode", ["ainvoke", "oinvoke"])
def test_remote_call_sees_the_argument_as_sent(mode):
    """The argument is flattened when the message is sent — real wire
    semantics, so a caller that mutates it after sending diverges only
    its own copy — not when it is delivered: a mutation made while the
    message is in flight does not reach the callee.  ``oinvoke`` sends
    inside the call; ``ainvoke`` hands the call to a worker process,
    which sends the first time the caller yields (here a ``sleep(0)``:
    the clock does not move)."""
    rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))
    kernel = rt.world.kernel

    def app():
        reg = JSRegistration()
        codebase = JSCodebase()
        codebase.add(Keeper)
        codebase.load(["rachel"])
        keeper = JSObj("Keeper", "rachel")
        items = [1, 2, 3]
        if mode == "ainvoke":
            handle = keeper.ainvoke("store", [items])
            kernel.sleep(0.0)
            # Mutating while the call is in flight is the behaviour
            # under test.
            items.append("late")
            handle.get_result()
        else:
            keeper.oinvoke("store", [items])
            items.append("late")
        kernel.sleep(1.0)
        kept = keeper.sinvoke("get")
        reg.unregister()
        return kept

    assert rt.run_app(app, node="milena") == [[1, 2, 3]]


@pytest.mark.parametrize("mode", ["sinvoke", "ainvoke", "oinvoke", "minvoke"])
def test_live_resource_argument_fails_in_the_caller(mode):
    """A lock does not pickle, so a remote call carrying one raises
    ``TypeError`` in the caller (through the handle for ``ainvoke`` and
    ``minvoke``), sends no message and never reaches the holder.  The
    same call to an object on the caller's own node is local and passes
    the lock by reference."""
    rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))
    kernel = rt.world.kernel
    stats = rt.transport.stats
    lock = threading.Lock()

    def start(obj):
        """A thunk that finishes the call; ``ainvoke`` and ``minvoke``
        are made here and the thunk reads their handle."""
        if mode == "ainvoke":
            return obj.ainvoke("store", [lock]).get_result
        if mode == "minvoke":
            return obj.minvoke("store", [[lock]]).get_results
        return lambda: getattr(obj, mode)("store", [lock])

    def app():
        reg = JSRegistration()
        codebase = JSCodebase()
        codebase.add(Keeper)
        codebase.load(["rachel"])
        remote = JSObj("Keeper", "rachel")
        local = JSObj("Keeper", "local")
        m0 = stats.messages
        finish = start(remote)
        with pytest.raises(TypeError, match="pickle"):
            finish()
        sent = stats.messages - m0
        kernel.sleep(1.0)  # nothing is in flight to reach the holder
        result = start(local)()
        kernel.sleep(1.0)  # the local one-sided call lands
        kept = (remote.sinvoke("get"), local.sinvoke("get"))
        reg.unregister()
        return sent, result, kept

    sent, result, (remote_kept, local_kept) = rt.run_app(app, node="milena")
    assert sent == 0
    assert result == ([None] if mode == "minvoke" else None)
    assert remote_kept == []
    assert len(local_kept) == 1 and local_kept[0] is lock


@pytest.mark.parametrize("params, unwraps, flops", [
    ([3], 0, 0),
    ([Payload(data=3, flops=1000.0)], 1, 1),
], ids=["plain", "payload"])
def test_dispatch_unwraps_at_most_once(monkeypatch, params, unwraps, flops):
    """A message the sender's encode found no ``Payload`` in is
    dispatched without looking for one; any other is walked once for its
    flops and once for its arguments."""
    from repro.agents import objects

    calls = Multiset()

    def counting(name):
        fn = getattr(objects, name)

        def wrapper(value):
            calls[name] += 1
            return fn(value)
        return wrapper

    rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))

    def app():
        reg = JSRegistration()
        load_counter(["rachel"])
        obj = JSObj("Counter", "rachel")
        monkeypatch.setattr(objects, "unwrap", counting("unwrap"))
        monkeypatch.setattr(objects, "flops_of", counting("flops_of"))
        try:
            return obj.sinvoke("incr", params)
        finally:
            monkeypatch.undo()
            reg.unregister()

    assert rt.run_app(app, node="milena") == 3
    assert calls == Multiset(
        {"unwrap": unwraps, "flops_of": flops}) - Multiset()


@pytest.mark.parametrize("args, unwraps", [
    ([5], 0),
    ([Payload(data=5)], 1),
], ids=["plain", "payload"])
def test_create_unwraps_only_a_payload_argument(monkeypatch, args, unwraps):
    """The same rule for a remote constructor: a plain ``CREATE_OBJECT``
    builds the instance from its arguments as decoded, one carrying a
    ``Payload`` unwraps them once."""
    from repro.agents import objects

    calls = []
    unwrap = objects.unwrap
    rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))

    def app():
        reg = JSRegistration()
        load_counter(["rachel"])
        monkeypatch.setattr(objects, "unwrap",
                            lambda value: calls.append(value) or unwrap(value))
        try:
            obj = JSObj("Counter", "rachel", args=args)
        finally:
            monkeypatch.undo()
        try:
            return obj.sinvoke("get")
        finally:
            reg.unregister()

    assert rt.run_app(app, node="milena") == 5
    assert len(calls) == unwraps
