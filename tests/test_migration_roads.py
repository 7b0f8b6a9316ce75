"""What a holder says about an id it has let go, and how a lost answer
is repaired (ROADMAP item 1, roads (a)-(d)).

Every run below uses the sweep's setup (``tests/fault_sweep.py``):
vienna, dedicated load, seed 3, ``rpc_timeout=3.0``, and a fault plan
on the wire.  Each checks Ellahi et al.'s condition, exactly one
executing copy, and that nothing outlives ``unregister``.
"""

import pytest

from repro.agents import messages as M
from repro.agents.messages import Moved, UnknownObject
from repro.chaos import ChaosInjector, FaultPlan
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.errors import (
    CircuitOpenError,
    JSError,
    MigrationError,
    ObjectStateError,
    RemoteInvocationError,
    RPCTimeoutError,
)
from repro.obs import Tracer, tracing
from repro.obs.events import MIGRATE_STEP
from tests.conftest import Counter
from tests.fault_sweep import live_copies, make_testbed

QUIET_S = 30.0


def run(program, plan, reliable=False):
    """Run ``program(runtime, seen)`` as an application under ``plan``,
    then 30 quiet seconds.  Returns the runtime, the tracer and
    ``seen``."""
    seen = {}
    with tracing(Tracer()) as tracer:
        runtime = make_testbed(reliable)
        ChaosInjector(runtime.world, FaultPlan.parse(plan)).install(
            runtime.transport)
        runtime.run_app(program, runtime, seen)
        runtime.world.kernel.run(until=runtime.world.now() + QUIET_S)
    return runtime, tracer, seen


def outcome(fn):
    try:
        return fn()
    except JSError as exc:
        return exc


def steps(tracer, host):
    return [e.fields["step"] for e in tracer.events_of(MIGRATE_STEP)
            if e.host == host]


def counter_on(seen, *hosts):
    reg = JSRegistration()
    codebase = JSCodebase()
    codebase.add(Counter)
    codebase.load(list(hosts))
    obj = JSObj("Counter", hosts[0])
    seen["obj_id"] = obj.obj_id
    assert obj.sinvoke("incr") == 1
    return reg, obj


# -- one answer at the holder -------------------------------------------------


def test_every_per_object_handler_answers_moved_for_a_migrated_id():
    def program(runtime, seen):
        reg, obj = counter_on(seen, "johanna", "greta")
        obj.migrate("greta")
        app = reg.app
        stale = runtime.pub_oas["johanna"].addr
        obj_id = obj.obj_id
        seen["answers"] = {
            kind: app.request(stale, kind, payload)
            for kind, payload in [
                (M.INVOKE, (obj_id, "get", ())),
                (M.INVOKE_BATCH, [(obj_id, "get", ())]),
                (M.FREE_OBJECT, obj_id),
                (M.FETCH_STATE, obj_id),
                (M.MIGRATE_OUT, (obj_id, runtime.pub_oas["ida"].addr)),
            ]
        }
        seen["value"] = obj.sinvoke("get")
        reg.unregister()

    runtime, _, seen = run(program, "")
    answers = seen["answers"]
    answers[M.INVOKE_BATCH] = answers[M.INVOKE_BATCH][0]
    greta = runtime.pub_oas["greta"].addr
    assert {kind: (type(a), a.hint) for kind, a in answers.items()} == {
        kind: (Moved, greta) for kind in answers
    }
    assert seen["value"] == 1
    assert live_copies(runtime, seen["obj_id"]) == []


def test_a_freed_id_is_unknown_and_cannot_be_created_again():
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel")
        obj.free()
        holder = runtime.pub_oas["rachel"]
        app = reg.app
        seen["invoke"] = app.request(holder.addr, M.INVOKE,
                                     (obj.obj_id, "get", ()))
        seen["create"] = outcome(lambda: app.request(
            holder.addr, M.CREATE_OBJECT,
            (obj.obj_id, "Counter", app.addr, ())))
        reg.unregister()

    runtime, _, seen = run(program, "")
    assert isinstance(seen["invoke"], UnknownObject)
    assert isinstance(seen["create"], RemoteInvocationError)
    assert isinstance(seen["create"].cause, ObjectStateError)
    assert runtime.pub_oas["rachel"].tombstones == {seen["obj_id"]: None}


# -- road (d): the AppOA's stale row ------------------------------------------


def test_store_and_migrate_chase_a_row_a_lost_answer_left_stale():
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel", "johanna", "greta")
        seen["lost"] = outcome(lambda: obj.migrate("johanna"))
        seen["key"] = obj.store()
        seen["to greta"] = obj.migrate("greta")
        seen["value"] = obj.sinvoke("get")
        seen["copies"] = live_copies(runtime, obj.obj_id)
        reg.unregister()

    runtime, _, seen = run(
        program, "drop:p=1,kinds=MIGRATE_OUT,stage=reply,max=1")
    assert isinstance(seen["lost"], RPCTimeoutError)
    assert isinstance(seen["key"], str)
    assert (seen["to greta"], seen["value"]) == ("greta", 1)
    assert seen["copies"] == ["oa@greta"]
    assert live_copies(runtime, seen["obj_id"]) == []


def test_migrate_stops_where_a_stale_row_already_leads():
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel", "johanna")
        outcome(lambda: obj.migrate("johanna"))
        sent = dict(runtime.transport.stats.by_kind)
        seen["again"] = obj.migrate("johanna")
        seen["sent"] = {
            kind: n - sent.get(kind, 0)
            for kind, n in runtime.transport.stats.by_kind.items()
            if n != sent.get(kind, 0) and kind.startswith("MIGRATE")
        }
        reg.unregister()

    runtime, _, seen = run(
        program, "drop:p=1,kinds=MIGRATE_OUT,stage=reply,max=1")
    # One MIGRATE_OUT to the stale row's holder, answered Moved; no push.
    assert seen["again"] == "johanna"
    assert seen["sent"] == {"MIGRATE_OUT": 1, "MIGRATE_OUT:reply": 1}


# -- roads (a) and (b): a push without an answer ------------------------------


def holder(host):
    """The holder of this app's objects on ``host`` (milena is home)."""
    return "app:app-1@milena" if host == "milena" else f"oa@{host}"


@pytest.mark.parametrize("reliable", [False, True],
                         ids=["unreliable", "reliable"])
@pytest.mark.parametrize("source,target", [
    ("rachel", "johanna"), ("rachel", "milena"), ("milena", "johanna"),
], ids=["pub_oa_to_pub_oa", "pub_oa_to_home", "home_to_pub_oa"])
def test_an_adopted_push_leaves_a_tombstone_whatever_its_answer(
        reliable, source, target):
    # Road (a): pa2 adopts, but its answer never reaches pa1.
    def program(runtime, seen):
        reg, obj = counter_on(seen, source, target)
        seen["migrate"] = outcome(lambda: obj.migrate(target))
        seen["value"] = obj.sinvoke("incr")
        seen["copies"] = live_copies(runtime, obj.obj_id)
        reg.unregister()

    runtime, tracer, seen = run(
        program, "drop:p=1,kinds=MIGRATE_IN,stage=reply", reliable)
    if source == "milena":
        # The home table runs MIGRATE_OUT in the caller, which waits for
        # the push to be settled.
        assert seen["migrate"] == target
    else:
        assert isinstance(seen["migrate"], JSError)
    assert seen["value"] == 2
    assert seen["copies"] == [holder(target)]
    assert steps(tracer, source)[-3:] == ["in-doubt", "pushed",
                                          "tombstone"]
    assert live_copies(runtime, seen["obj_id"]) == []


@pytest.mark.parametrize("reliable,copy,pa1_ends,pa2_steps", [
    # pa2 is asked before the push lands: the migration is aborted and
    # the push refused when it comes.
    (False, "oa@rachel", ["in-doubt", "aborted"], ["refused"]),
    # A retried copy lands before the retries run out: pa2 adopted it
    # (once; the replay cache answers the other copies).
    (True, "oa@johanna", ["in-doubt", "pushed", "tombstone"], ["adopted"]),
], ids=["unreliable", "reliable"])
def test_a_late_push_is_settled_by_pa2(reliable, copy, pa1_ends, pa2_steps):
    # Road (b): the push arrives after pa1 stopped waiting for it.
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel", "johanna")
        seen["migrate"] = outcome(lambda: obj.migrate("johanna"))
        runtime.world.kernel.sleep(20.0)
        seen["copies"] = live_copies(runtime, obj.obj_id)
        seen["value"] = obj.sinvoke("incr")
        reg.unregister()

    runtime, tracer, seen = run(
        program, "delay:p=1,kinds=MIGRATE_IN,stage=request,delay=5",
        reliable)
    assert isinstance(seen["migrate"], JSError)
    assert seen["copies"] == [copy]
    assert seen["value"] == 2
    assert steps(tracer, "rachel")[-len(pa1_ends):] == pa1_ends
    assert steps(tracer, "johanna") == pa2_steps
    assert live_copies(runtime, seen["obj_id"]) == []


def test_an_aborted_migration_does_not_refuse_a_later_one():
    # The abort record is keyed on the migration, not on the object.
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel", "johanna")
        seen["first"] = outcome(lambda: obj.migrate("johanna"))
        runtime.world.kernel.sleep(10.0)
        seen["second"] = obj.migrate("johanna")
        seen["copies"] = live_copies(runtime, obj.obj_id)
        reg.unregister()

    runtime, tracer, seen = run(
        program, "delay:p=1,kinds=MIGRATE_IN,stage=request,delay=5,max=1")
    assert isinstance(seen["first"], RPCTimeoutError)
    assert steps(tracer, "johanna") == ["refused", "adopted"]
    assert seen["second"] == "johanna"
    assert seen["copies"] == ["oa@johanna"]


def test_a_push_pa2_cannot_be_asked_about_leaves_the_object_unavailable():
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel", "johanna")
        seen["migrate"] = outcome(lambda: obj.migrate("johanna"))
        runtime.world.kernel.sleep(10.0)
        seen["invoke"] = outcome(lambda: obj.sinvoke("incr"))
        seen["entry"] = runtime.pub_oas["rachel"].objects[obj.obj_id]
        seen["copies"] = live_copies(runtime, obj.obj_id)
        reg.unregister()

    runtime, tracer, seen = run(
        program, "drop:p=1,kinds=MIGRATE_IN|MIGRATE_RESOLVE,stage=request")
    assert isinstance(seen["migrate"], RPCTimeoutError)
    # A typed failure at once, not a poll of ``migrating`` for good.
    assert isinstance(seen["invoke"], RemoteInvocationError)
    assert isinstance(seen["invoke"].cause, MigrationError)
    assert seen["entry"].in_doubt == runtime.pub_oas["johanna"].addr
    assert seen["copies"] == []
    assert steps(tracer, "rachel")[-2:] == ["in-doubt", "unavailable"]


def test_a_push_an_open_circuit_sheds_is_not_in_doubt():
    # Shed before it was sent, the push cannot have landed: reinstate.
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel", "johanna")
        runtime.health.force_open("johanna", runtime.world.now())
        seen["migrate"] = outcome(lambda: obj.migrate("johanna"))
        seen["value"] = obj.sinvoke("incr")
        seen["copies"] = live_copies(runtime, obj.obj_id)
        reg.unregister()

    runtime, tracer, seen = run(program, "", reliable=True)
    assert isinstance(seen["migrate"], RemoteInvocationError)
    assert isinstance(seen["migrate"].cause, CircuitOpenError)
    assert seen["value"] == 2
    assert seen["copies"] == ["oa@rachel"]
    assert steps(tracer, "rachel")[-1] == "aborted"


# -- road (c) and the unanswered create ----------------------------------------


def test_a_duplicate_create_that_lands_after_the_free_is_refused():
    def program(runtime, seen):
        reg, obj = counter_on(seen, "rachel")
        obj.free()
        reg.unregister()

    runtime, _, seen = run(
        program,
        "duplicate:p=1,kinds=CREATE_OBJECT,stage=request,delay=2,max=1")
    assert live_copies(runtime, seen["obj_id"]) == []


@pytest.mark.parametrize("plan", [
    "drop:p=1,kinds=CREATE_OBJECT,stage=reply,max=1",
    "delay:p=1,kinds=CREATE_OBJECT,stage=request,delay=5,max=1",
], ids=["reply_dropped", "request_late"])
def test_an_unanswered_create_leaves_no_orphan(plan):
    def program(runtime, seen):
        reg = JSRegistration()
        codebase = JSCodebase()
        codebase.add(Counter)
        codebase.load(["rachel"])
        seen["create"] = outcome(lambda: JSObj("Counter", "rachel"))
        seen["rows"] = sorted(reg.app.refs)
        reg.unregister()

    runtime, _, seen = run(program, plan)
    assert isinstance(seen["create"], RPCTimeoutError)
    [obj_id] = seen["rows"]
    assert live_copies(runtime, obj_id) == []
