"""One live copy per object under single message faults (ROADMAP item 1).

The program: a ``Counter`` created on rachel, one ``incr``, a migration
to johanna, then ``unregister`` and 30 simulated seconds of quiet.  Under
each fault below the object must be gone from every holder afterwards:
no orphan outlives its application.

* Road (d): the MIGRATE_OUT reply is lost or late, so ``migrate`` fails
  with ``RPCTimeoutError`` and the AppOA's table still names rachel,
  which only holds a tombstone.  ``unregister``'s FREE_OBJECT must follow
  the tombstone to johanna.  No ``sinvoke`` may run in between: the
  redirect chase would repair the row and hide the fault.
* Road (c): a CREATE_OBJECT request delivered twice, the copy landing
  after the migration.  Rachel must refuse it: the id is a tombstone
  there.
"""

import pytest

from repro.agents.shell import ShellConfig
from repro.chaos import ChaosInjector, FaultPlan
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.errors import RPCTimeoutError
from repro.obs import Tracer, tracing
from repro.obs.events import OBJ_FREE
from tests.conftest import Counter  # noqa: F401 - registers the class


def live_copies(runtime, obj_id):
    """Every holder, PubOA or AppOA, with ``obj_id`` in its table."""
    holders = list(runtime.pub_oas.values()) + list(runtime.apps.values())
    return sorted(str(h.addr) for h in holders if obj_id in h.objects)


def migrate_then_unregister(plan):
    """Run the program under ``plan``, reliable RMI off.  Returns the
    runtime, the tracer, the object id and what ``migrate`` raised."""
    seen = {}

    def app():
        reg = JSRegistration()
        codebase = JSCodebase()
        codebase.add(Counter)
        codebase.load(["rachel", "johanna"])
        obj = JSObj("Counter", "rachel")
        seen["obj_id"] = obj.ref.obj_id
        assert obj.sinvoke("incr") == 1
        try:
            obj.migrate("johanna")
        except RPCTimeoutError as exc:
            seen["error"] = exc
        reg.unregister()

    with tracing(Tracer()) as tracer:
        runtime = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=3,
            shell=ShellConfig(rpc_timeout=3.0, reliable=False),
        ))
        ChaosInjector(runtime.world, FaultPlan.parse(plan)).install(
            runtime.transport)
        runtime.run_app(app)
        runtime.world.kernel.run(until=runtime.world.now() + 30.0)
    return runtime, tracer, seen["obj_id"], seen.get("error")


@pytest.mark.parametrize("plan", [
    "drop:p=1,kinds=MIGRATE_OUT,stage=reply,max=1",
    "delay:p=1,kinds=MIGRATE_OUT,stage=reply,delay=5,max=1",
])
def test_free_follows_the_tombstone_of_an_unanswered_migration(plan):
    runtime, tracer, obj_id, error = migrate_then_unregister(plan)
    # The migration happened; only its answer was lost.
    assert isinstance(error, RPCTimeoutError)
    assert runtime.pub_oas["rachel"].tombstones == {
        obj_id: runtime.pub_oas["johanna"].addr
    }
    assert live_copies(runtime, obj_id) == []
    # The free is recorded where it took effect, not at the stale row.
    [free] = tracer.events_of(OBJ_FREE)
    assert (free.host, free.fields["location"]) == ("johanna", "oa@johanna")


def test_a_late_duplicate_create_does_not_revive_a_migrated_object():
    runtime, _, obj_id, error = migrate_then_unregister(
        "duplicate:p=1,kinds=CREATE_OBJECT,stage=request,delay=2,max=1")
    assert error is None
    assert obj_id in runtime.pub_oas["rachel"].tombstones
    assert live_copies(runtime, obj_id) == []
