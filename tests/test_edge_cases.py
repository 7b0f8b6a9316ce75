"""Edge cases across the public API surface."""

import pytest

from repro.agents.shell import ShellConfig
from repro.cluster import TestbedConfig, vienna_testbed
from repro.constraints import JSConstraints
from repro.core import JS, JSCodebase, JSObj, JSRegistration
from repro.errors import (
    AllocationError,
    MigrationError,
    ObjectStateError,
)
from repro.sysmon import SysParam
from repro.varch import Cluster, Node
from tests.conftest import Counter


class TestPlacementEdges:
    def test_bad_target_type_rejected(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            with pytest.raises(ObjectStateError):
                JSObj("Counter", target=3.14159)
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_unsatisfiable_placement_constraints(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            constr = JSConstraints([(SysParam.PEAK_MFLOPS, ">", 1e9)])
            with pytest.raises(AllocationError):
                JSObj("Counter", constraints=constr)
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_jsobj_as_placement_target(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("theresa")
            anchor = JSObj("Counter", "theresa")
            follower = JSObj("Counter", anchor)  # co-locate directly
            assert follower.get_node() == anchor.get_node()
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_constrained_component_placement(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            cluster = Cluster(4)
            cb = JSCodebase(); cb.add(Counter); cb.load(cluster)
            # Within the cluster, restrict to a named node.
            wanted = cluster.get_node(2).hostname
            constr = JSConstraints([(SysParam.NODE_NAME, "==", wanted)])
            obj = JSObj("Counter", cluster, constraints=constr)
            assert obj.get_node() == wanted
            reg.unregister()

        dedicated_testbed.run_app(app)


class TestMigrationEdges:
    def test_migrate_to_current_host_is_noop(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            obj = JSObj("Counter", "johanna")
            obj.sinvoke("incr")
            assert obj.migrate("johanna") == "johanna"
            assert obj.sinvoke("get") == 1
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_migrate_unsatisfiable_constraints(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            constr = JSConstraints([(SysParam.PEAK_MFLOPS, ">", 1e9)])
            with pytest.raises(MigrationError):
                obj.migrate(constraints=constr)
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_migrate_freed_object_rejected(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            obj.free()
            with pytest.raises(ObjectStateError):
                obj.migrate("johanna")
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_concurrent_migrations_of_different_objects(
        self, dedicated_testbed
    ):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter)
            cb.load(["johanna", "theresa", "greta", "franz"])
            obj1 = JSObj("Counter", "johanna")
            obj2 = JSObj("Counter", "theresa")
            assert obj1.sinvoke("incr", [1]) == 1
            assert obj2.sinvoke("incr", [2]) == 2

            p1 = rt.world.kernel.spawn(lambda: obj1.migrate("greta"))
            p2 = rt.world.kernel.spawn(lambda: obj2.migrate("franz"))
            p1.join(); p2.join()
            assert obj1.get_node() == "greta"
            assert obj2.get_node() == "franz"
            assert obj1.sinvoke("get") == 1
            assert obj2.sinvoke("get") == 2
            reg.unregister()

        rt.run_app(app)


class TestInvocationEdges:
    def test_oinvoke_own_freed_object_raises(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            obj = JSObj("Counter", "johanna")
            obj.free()
            # Invoking your *own* freed object is a caller error.
            with pytest.raises(ObjectStateError):
                obj.oinvoke("incr", [1])
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_oneway_to_stale_foreign_ref_is_silent(self, dedicated_testbed):
        """A *foreign* handle whose object has vanished: the one-sided
        message is dropped at the holder, never raising anywhere."""
        rt = dedicated_testbed
        captured = {}

        def producer():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            obj = JSObj("Counter", "johanna")
            captured["ref"] = obj.ref
            obj.free()
            reg.unregister()

        rt.run_app(producer)

        def consumer():
            reg = JSRegistration()
            stale = JSObj._from_ref(captured["ref"], reg.app)
            stale.oinvoke("incr", [1])  # silently dropped
            rt.world.kernel.sleep(1.0)
            reg.unregister()

        rt.run_app(consumer, node="rachel")

    @pytest.mark.parametrize("holder", ["local", "johanna"])
    def test_raising_oneway_is_dropped_with_reliability_on(self, holder):
        """A one-sided call whose method raises is dropped, whoever holds
        the object: with reliability on, the acked carrier on a remote
        holder swallows the wrapped error as the home table's worker
        swallows the raw one, and no worker crashes."""
        rt = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=3,
            shell=ShellConfig(rpc_timeout=3.0, reliable=True),
        ))

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            obj = JSObj("Counter", holder)
            obj.oinvoke("boom")
            obj.oinvoke("incr", [4])
            rt.world.kernel.sleep(2.0)
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        assert rt.run_app(app) == 4
        assert rt.kernel.crashes == []

    def test_many_pending_async_handles(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            obj = JSObj("Counter", "johanna")
            handles = [obj.ainvoke("incr", [1]) for _ in range(30)]
            results = sorted(h.get_result() for h in handles)
            reg.unregister()
            return results

        assert dedicated_testbed.run_app(app) == list(range(1, 31))

    def test_none_params_equals_empty(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            assert obj.sinvoke("incr") == 1  # params=None
            assert obj.sinvoke("incr", []) == 2
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_result_handle_timeout(self, dedicated_testbed):
        # Same caller-facing exception family as Endpoint.rpc: a handle
        # timing out must not leak the kernel's raw WaitTimeout.
        from repro.errors import RPCTimeoutError
        from tests.conftest import Spinner  # noqa: F401

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Spinner); cb.load("johanna")
            obj = JSObj("Spinner", "johanna")
            handle = obj.ainvoke("spin", [420e6])  # 10 s on johanna
            with pytest.raises(RPCTimeoutError):
                handle.get_result(timeout=1.0)
            assert handle.get_result() == "done"  # still completes
            reg.unregister()

        dedicated_testbed.run_app(app)


class TestJSLoadTarget:
    def test_load_onto_specific_node(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            obj.sinvoke("incr", [7])
            key = obj.store()
            loaded = JS.load(key, target="theresa")
            assert loaded.get_node() == "theresa"
            assert loaded.sinvoke("get") == 7
            reg.unregister()

        dedicated_testbed.run_app(app)


class TestNodeIntrospection:
    def test_node_get_sys_param_by_enum_and_string(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            node = Node("franz")
            assert node.get_sys_param("PEAK_MFLOPS") == 5.5
            assert node.get_sys_param(SysParam.NET_IFACE_MBITS) == 10.0
            node.free_node()
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_component_snapshot_requires_nodes(self, dedicated_testbed):
        from repro.errors import ArchitectureError

        def app():
            reg = JSRegistration()
            empty = Cluster()
            with pytest.raises(ArchitectureError):
                empty.snapshot()
            reg.unregister()

        dedicated_testbed.run_app(app)
