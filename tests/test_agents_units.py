"""Unit-level tests for the agent layer internals: object tables, wire
markers, memory accounting, VA watches, class registry."""

import importlib
import inspect

import pytest

import repro.apps
from repro.agents import messages as M
from repro.agents.messages import Moved, UnknownObject
from repro.agents.objects import (
    ClassRegistry,
    ObjectRef,
    _source_bytes,
    instance_mem_mb,
    js_compute,
    jsclass,
    method_flops,
)
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.errors import (
    ClassNotLoadedError,
    ObjectStateError,
    RemoteInvocationError,
)
from repro.transport import Addr
from tests.conftest import Counter  # noqa: F401


class TestClassRegistry:
    def test_register_and_resolve(self):
        @jsclass
        class Widget:
            pass

        assert ClassRegistry.resolve("Widget") is Widget
        assert ClassRegistry.known("Widget")

    def test_resolve_unknown(self):
        with pytest.raises(ClassNotLoadedError):
            ClassRegistry.resolve("Nonexistent_Class_XYZ")

    def test_estimated_bytes_floor(self):
        @jsclass
        class Tiny:
            pass

        assert ClassRegistry.estimated_bytes("Tiny") >= 256

    def test_estimated_bytes_is_memoised_unchanged(self, monkeypatch):
        """Every application class is sized once; the memoised size is
        the one a fresh parse of its source gives."""
        for module in ("jacobi", "matmul", "montecarlo", "taskfarm"):
            importlib.import_module(f"repro.apps.{module}")
        apps = {name: klass for name, klass in ClassRegistry._classes.items()
                if klass.__module__.startswith(repro.apps.__name__ + ".")}
        assert set(apps) == {"JacobiStrip", "Matrix", "PiSampler",
                             "FarmWorker", "Collector"}
        sizes = {name: ClassRegistry.estimated_bytes(name) for name in apps}
        assert sizes == {name: _source_bytes.__wrapped__(klass)
                         for name, klass in apps.items()}

        def no_parse(obj):
            raise AssertionError(f"{obj!r} parsed again")

        monkeypatch.setattr(inspect, "getsource", no_parse)
        assert {name: ClassRegistry.estimated_bytes(name)
                for name in apps} == sizes

    def test_register_custom_name(self):
        class Impl:
            pass

        ClassRegistry.register(Impl, name="AliasedImpl")
        assert ClassRegistry.resolve("AliasedImpl") is Impl


class TestComputeCosts:
    def test_constant_flops(self):
        class Thing:
            @js_compute(5e6)
            def work(self):
                return 1

        assert method_flops(Thing(), "work", ()) == 5e6

    def test_callable_flops(self):
        class Thing:
            @js_compute(lambda self, n: 2.0 * n)
            def work(self, n):
                return n

        assert method_flops(Thing(), "work", (21,)) == 42.0

    def test_undeclared_is_free(self):
        class Thing:
            def work(self):
                return 1

        assert method_flops(Thing(), "work", ()) == 0.0


class TestInstanceMem:
    def test_floor(self):
        assert instance_mem_mb(0) >= 4096 / 1e6

    def test_scales_with_content(self):
        small = {"x": 1}
        big = {"data": b"x" * 1_000_000}
        assert instance_mem_mb(big) > 100 * instance_mem_mb(small)

    def test_unpicklable_state_gets_nominal_footprint(self):
        class Local:  # local classes cannot be pickled
            pass

        assert instance_mem_mb(Local()) == pytest.approx(64 * 1024 / 1e6)

    def test_nominal_override_via_wire_bytes(self):
        from repro.agents.holder_endpoints import wire_bytes

        class Holder:
            pass

        obj = Holder()
        obj.__js_nbytes__ = 7_000_000
        assert wire_bytes(obj, b"small-blob") == 7_000_000


class TestWireMarkers:
    def test_moved_carries_hint(self):
        hint = Addr("somewhere", "oa")
        marker = Moved("obj-1", hint=hint)
        assert marker.obj_id == "obj-1"
        assert marker.hint == hint

    def test_object_ref_with_hint(self):
        ref = ObjectRef("o", "C", Addr("a", "app:1"), Addr("b", "oa"))
        updated = ref.with_hint(Addr("c", "oa"))
        assert updated.location_hint == Addr("c", "oa")
        assert updated.origin == ref.origin
        assert ref.location_hint == Addr("b", "oa")  # immutable original


class TestHolderBehaviour:
    def test_unknown_object_marker_on_invoke(self, dedicated_testbed):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            holder = rt.pub_oas["johanna"]
            result = {}

            def probe():
                result["outcome"] = holder.dispatch_invoke(
                    "ghost-id", "anything", []
                )

            proc = rt.world.kernel.spawn(probe)
            proc.join()
            reg.unregister()
            return result["outcome"]

        outcome = rt.run_app(app)
        assert isinstance(outcome, UnknownObject)

    def test_tombstone_returns_moved(self, dedicated_testbed):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter)
            cb.load(["johanna", "greta"])
            obj = JSObj("Counter", "johanna")
            obj.migrate("greta")
            holder = rt.pub_oas["johanna"]
            result = {}

            def probe():
                result["outcome"] = holder.dispatch_invoke(
                    obj.obj_id, "get", []
                )

            proc = rt.world.kernel.spawn(probe)
            proc.join()
            reg.unregister()
            return result["outcome"]

        outcome = rt.run_app(app)
        assert isinstance(outcome, Moved)
        assert outcome.hint.host == "greta"

    def test_double_hold_rejected(self, dedicated_testbed):
        rt = dedicated_testbed
        holder = rt.pub_oas["johanna"]
        holder.loaded_classes.add("Counter")
        holder.hold_new_object("dup-1", "Counter", Addr("x", "app:0"))
        with pytest.raises(ObjectStateError):
            holder.hold_new_object("dup-1", "Counter", Addr("x", "app:0"))
        holder.drop_object("dup-1")

    def test_drop_unknown_rejected(self, dedicated_testbed):
        holder = dedicated_testbed.pub_oas["johanna"]
        with pytest.raises(ObjectStateError):
            holder.drop_object("never-existed")

    def test_counters_track_hosting(self, dedicated_testbed):
        rt = dedicated_testbed
        machine = rt.world.machine("johanna")

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            before = machine.counters.objects_hosted
            obj = JSObj("Counter", "johanna")
            assert obj.sinvoke("incr") == 1
            assert machine.counters.objects_hosted == before + 1
            assert machine.counters.invocations_served >= 1
            obj.free()
            assert machine.counters.objects_hosted == before
            reg.unregister()

        rt.run_app(app)


class TestVAWatchHandlers:
    def test_register_and_unregister(self, dedicated_testbed):
        rt = dedicated_testbed
        from repro.constraints import JSConstraints
        from repro.sysmon import SysParam

        def app():
            reg = JSRegistration()
            constr = JSConstraints([(SysParam.IDLE, ">=", 1)])
            app_oa = reg.app
            home_oa = rt.pub_oas[app_oa.home]
            app_oa.endpoint.rpc(
                Addr(app_oa.home, "oa"),
                M.REGISTER_VA,
                ("w1", ["johanna"], constr, app_oa.addr),
            )
            assert "w1" in home_oa.va_watches
            app_oa.endpoint.rpc(
                Addr(app_oa.home, "oa"), M.UNREGISTER_VA, "w1"
            )
            assert "w1" not in home_oa.va_watches
            reg.unregister()

        rt.run_app(app)

    def test_constrained_alloc_registers_watch(self, dedicated_testbed):
        rt = dedicated_testbed
        from repro.constraints import JSConstraints
        from repro.sysmon import SysParam
        from repro.varch import Cluster

        def app():
            reg = JSRegistration()
            constr = JSConstraints([(SysParam.IDLE, ">=", 1)])
            Cluster(2, constraints=constr)
            watches = rt.pub_oas[reg.home_node].va_watches
            assert len(watches) == 1
            watch = next(iter(watches.values()))
            assert len(watch.hosts) == 2
            reg.unregister()
            # Unregistration removed the watch.
            assert not rt.pub_oas[reg.app.home].va_watches

        rt.run_app(app)


class TestErrorSurface:
    def test_remote_error_has_cause_chain(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            obj = JSObj("Counter", "johanna")
            try:
                obj.sinvoke("boom")
            except RemoteInvocationError as err:
                reg.unregister()
                return err
            raise AssertionError("should have raised")

        err = dedicated_testbed.run_app(app)
        assert isinstance(err.cause, ValueError)
        assert "intentional" in str(err.cause)
