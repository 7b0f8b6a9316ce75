"""One application, two kinds of holder: its own AppOA and a PubOA.

The paper gives the AppOA's local-objects-table and a PubOA's
remote-objects-table the same information, and the runtime serves both
through one set of handlers.  This test runs the same program against an
object (and a static segment) held at the application's home node and
against one held on another node, and checks that both give the same
results.  Errors keep the shape each holder gives them: the home table
raises the application's own exception, and a remote holder raises
:class:`RemoteInvocationError` carrying it as ``cause``.
"""

from __future__ import annotations

import pytest

from repro.core import JS, JSCodebase, JSObj, JSRegistration, JSStatic
from tests.conftest import Counter

HOME = "milena"       # the testbed's first host: run_app's default home
REMOTE = "johanna"
HOLDERS = {"home": HOME, "remote": REMOTE}


def _outcome(fn):
    """What a call gave: ``("ok", value)`` or ``("raised", class name,
    the cause's class name when it carries one)``."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the characterization
        cause = getattr(exc, "cause", None)
        return ("raised", type(exc).__name__,
                type(cause).__name__ if cause is not None else None)


def _program(holder: str) -> dict:
    """The program, run inside an application homed on ``HOME``: every
    request kind an application sends to a holder, against ``holder``."""
    other = REMOTE if holder == HOME else HOME
    seen: dict = {}
    reg = JSRegistration()
    app = reg.app
    cb = JSCodebase()
    cb.add(Counter)
    cb.load([REMOTE])

    obj = JSObj("Counter", holder, args=[5])
    seen["create.node"] = obj.get_node()
    seen["create.held_by_home_table"] = obj.obj_id in app.objects
    seen["create.bad_args"] = _outcome(
        lambda: JSObj("Counter", holder, args=["x"]))

    seen["sinvoke"] = obj.sinvoke("incr", [2])
    seen["sinvoke.raises"] = _outcome(lambda: obj.sinvoke("boom"))
    seen["sinvoke.no_method"] = _outcome(lambda: obj.sinvoke("nope"))

    seen["ainvoke"] = obj.ainvoke("incr", [3]).get_result()
    failing = obj.ainvoke("boom")
    seen["ainvoke.raises"] = _outcome(failing.get_result)

    multi = obj.minvoke("incr", [[1], [1]])
    seen["minvoke"] = multi.get_results()
    mixed = app.minvoke([(obj.ref, "get", ()), (obj.ref, "boom", ())])
    seen["minvoke.slot0"] = _outcome(lambda: mixed.get_result(0))
    seen["minvoke.slot1"] = _outcome(lambda: mixed.get_result(1))

    obj.oinvoke("incr", [10])
    obj.oinvoke("boom")
    app.world.kernel.sleep(1.0)
    seen["oinvoke.effect"] = obj.sinvoke("get")

    seen["migrate.out"] = obj.migrate(other)
    seen["migrate.out.value"] = obj.sinvoke("get")
    seen["migrate.back"] = obj.migrate(holder)
    seen["migrate.back.value"] = obj.sinvoke("incr", [1])
    seen["migrate.back.node"] = obj.get_node()
    holders = [h for h in [app, *app.runtime.pub_oas.values()]
               if obj.obj_id in h.objects]
    seen["migrate.one_copy"] = len(holders)

    key = obj.store()
    seen["store.key_is_str"] = isinstance(key, str)
    loaded = JS.load(key, holder)
    seen["load.node"] = loaded.get_node()
    seen["load.value"] = loaded.sinvoke("get")
    seen["load.distinct"] = loaded.obj_id != obj.obj_id

    obj.free()
    seen["free.then_invoke"] = _outcome(lambda: obj.sinvoke("get"))
    seen["free.twice"] = _outcome(obj.free)
    seen["load.survives_free"] = loaded.sinvoke("incr", [1])

    static = JSStatic("Counter", holder)
    seen["static.ref"] = static.ref.obj_id
    seen["static.node"] = static.get_node()
    seen["static.set"] = static.set_var("value", 40)
    seen["static.get"] = static.get_var("value")
    seen["static.invoke"] = static.sinvoke("incr", [2])
    seen["static.get_after"] = static.get_var("value")
    seen["static.same_segment"] = JSStatic("Counter", holder).get_var(
        "value")
    seen["static.no_var"] = _outcome(lambda: static.get_var("nope"))
    seen["static.unknown_class"] = _outcome(
        lambda: JSStatic("NoSuchClass", holder))

    reg.unregister()
    # Static segments live as long as their node's agent.
    for table, agent in (("home", app), ("remote",
                                         app.runtime.pub_oas[REMOTE])):
        seen[f"unregister.{table}_table"] = sorted(
            o for o in agent.objects if not o.startswith("static::"))
    return seen


#: what both holders give
SAME = {
    "sinvoke": 7,
    "ainvoke": 10,
    "minvoke": [11, 12],
    "minvoke.slot0": ("ok", 12),
    "oinvoke.effect": 22,
    "migrate.out.value": 22,
    "migrate.back.value": 23,
    "migrate.one_copy": 1,
    "store.key_is_str": True,
    "load.value": 23,
    "load.distinct": True,
    "free.then_invoke": ("raised", "ObjectStateError", None),
    "free.twice": ("raised", "ObjectStateError", None),
    "load.survives_free": 24,
    "static.ref": "static::Counter",
    "static.set": None,
    "static.get": 40,
    "static.invoke": 42,
    "static.get_after": 42,
    "static.same_segment": 42,
    "unregister.home_table": [],
    "unregister.remote_table": [],
}

#: where the holders differ: the object's node, and the shape of an error
#: (raw from the home table, wrapped with its cause from a remote holder)
DIFFERS = {
    "home": {
        "create.node": HOME,
        "create.held_by_home_table": True,
        "create.bad_args": ("raised", "ValueError", None),
        "sinvoke.raises": ("raised", "ValueError", None),
        "sinvoke.no_method": ("raised", "MethodNotFoundError", None),
        "ainvoke.raises": ("raised", "ValueError", None),
        "minvoke.slot1": ("raised", "ValueError", None),
        "migrate.out": REMOTE,
        "migrate.back": HOME,
        "migrate.back.node": HOME,
        "load.node": HOME,
        "static.node": HOME,
        "static.no_var": ("raised", "AttributeError", None),
        "static.unknown_class": ("raised", "ClassNotLoadedError", None),
    },
    "remote": {
        "create.node": REMOTE,
        "create.held_by_home_table": False,
        "create.bad_args": ("raised", "RemoteInvocationError",
                            "ValueError"),
        "sinvoke.raises": ("raised", "RemoteInvocationError",
                           "ValueError"),
        "sinvoke.no_method": ("raised", "MethodNotFoundError", None),
        "ainvoke.raises": ("raised", "RemoteInvocationError",
                           "ValueError"),
        "minvoke.slot1": ("raised", "RemoteInvocationError",
                          "ValueError"),
        "migrate.out": HOME,
        "migrate.back": REMOTE,
        "migrate.back.node": REMOTE,
        "load.node": REMOTE,
        "static.node": REMOTE,
        "static.no_var": ("raised", "RemoteInvocationError",
                          "AttributeError"),
        "static.unknown_class": ("raised", "RemoteInvocationError",
                                 "ClassNotLoadedError"),
    },
}


@pytest.mark.parametrize("arm", sorted(HOLDERS))
def test_home_and_remote_holders_agree(arm, dedicated_testbed):
    seen = dedicated_testbed.run_app(_program, HOLDERS[arm])
    expected = {**SAME, **DIFFERS[arm]}
    assert {k: seen[k] for k in expected} == expected
    assert set(seen) - set(expected) == set()

