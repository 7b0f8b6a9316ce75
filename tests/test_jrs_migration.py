"""Integration tests: the migration protocol (Figure 3), RMI redirection
(Figure 4), automatic migration, and persistence (Section 4.7)."""

import threading

import pytest

from repro.agents.objects import jsclass
from repro.cluster import TestbedConfig as TBConfig
from repro.cluster import vienna_testbed
from repro.constraints import JSConstraints
from repro.core import JS, JSCodebase, JSObj, JSRegistration
from repro.errors import PersistenceError, RemoteInvocationError
from repro.simnet import ConstantLoad, SpikeLoad
from repro.sysmon import SysParam
from repro.varch import Cluster
from tests.conftest import Counter, Spinner  # noqa: F401


def load_counter_on(hosts):
    cb = JSCodebase()
    cb.add(Counter)
    cb.add(Spinner)
    cb.load(list(hosts))
    return cb


@jsclass
class LockHolder:
    """Thread-bearing state: usable in place, never picklable."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value = 7

    def get(self) -> int:
        return self.value


class TestExplicitMigration:
    def test_migrate_preserves_state(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            load_counter_on(["johanna", "greta"])
            obj = JSObj("Counter", "johanna")
            obj.sinvoke("incr", [41])
            new_host = obj.migrate("greta")
            assert new_host == "greta"
            assert obj.get_node() == "greta"
            value = obj.sinvoke("incr")
            reg.unregister()
            return value

        assert dedicated_testbed.run_app(app) == 42

    def test_migration_updates_tables(self, dedicated_testbed):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            load_counter_on(["johanna", "greta"])
            obj = JSObj("Counter", "johanna")
            obj_id = obj.obj_id
            assert obj_id in rt.pub_oas["johanna"].objects
            obj.migrate("greta")
            # pa1 dropped it and left a tombstone; pa2 holds it; the
            # origin AppOA's table points at pa2.
            assert obj_id not in rt.pub_oas["johanna"].objects
            assert obj_id in rt.pub_oas["johanna"].tombstones
            assert obj_id in rt.pub_oas["greta"].objects
            assert reg.app.refs[obj_id].location.host == "greta"
            reg.unregister()

        rt.run_app(app)

    def test_migrate_to_local_appoa(self, dedicated_testbed):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            load_counter_on(["johanna"])
            obj = JSObj("Counter", "johanna")
            obj.sinvoke("incr", [7])
            obj.migrate(JS.get_local_node())
            # Local objects live in the AppOA's own table.
            assert obj.obj_id in reg.app.objects
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        assert rt.run_app(app) == 7

    def test_migrate_local_object_out(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            load_counter_on(["greta"])
            obj = JSObj("Counter", "local")
            obj.sinvoke("incr", [3])
            obj.migrate("greta")
            assert obj.get_node() == "greta"
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        assert dedicated_testbed.run_app(app) == 3

    def test_migrate_without_target_jrs_decides(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            cluster = Cluster(3)
            load_counter_on(cluster.hostnames())
            obj = JSObj("Counter", cluster.get_node(0))
            old = obj.get_node()
            new = obj.migrate()
            assert new != old
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_migrate_with_constraints(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            load_counter_on(["johanna", "ida"])
            obj = JSObj("Counter", "johanna")
            constr = JSConstraints([(SysParam.NODE_NAME, "==", "ida")])
            new = obj.migrate(constraints=constr)
            assert new == "ida"
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_migrate_charges_transfer_time(self, dedicated_testbed):
        """Migrating a big object across the slow segment takes network
        time proportional to its size."""
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            load_counter_on(["johanna", "ida"])
            obj = JSObj("Counter", "johanna")
            # Grow the object's nominal footprint to 2 MB.
            assert obj.sinvoke("incr") == 1
            rt.pub_oas["johanna"].objects[
                obj.obj_id
            ].instance.__js_nbytes__ = 2_000_000
            t0 = rt.world.now()
            obj.migrate("ida")  # crosses onto the 10 Mbit hub
            elapsed = rt.world.now() - t0
            reg.unregister()
            return elapsed

        assert dedicated_testbed.run_app(app) > 1.5

    def test_migration_waits_for_running_method(self, dedicated_testbed):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            load_counter_on(["johanna", "greta"])
            obj = JSObj("Spinner", "johanna")
            handle = obj.ainvoke("spin", [42e6])  # ~1 s on johanna
            rt.world.kernel.sleep(0.2)  # in-flight now
            t0 = rt.world.now()
            obj.migrate("greta")  # must wait for spin to finish
            waited = rt.world.now() - t0
            assert handle.get_result() == "done"
            reg.unregister()
            return waited

        assert dedicated_testbed.run_app(app) >= 0.7

    @pytest.mark.parametrize("node, error", [
        ("local", TypeError),
        ("johanna", RemoteInvocationError),
    ])
    def test_unpicklable_state_fails_in_caller_and_stays(
        self, dedicated_testbed, node, error
    ):
        """Figure 3 and store pickle the object before anything moves:
        state that cannot be pickled fails the first migrate() or store()
        in the caller, and the object stays where it was, usable."""
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            cb = JSCodebase()
            cb.add(LockHolder)
            cb.load(["johanna", "greta"])
            obj = JSObj("LockHolder", node)
            before = obj.get_node()
            holder = reg.app if node == "local" else rt.pub_oas[node]
            with pytest.raises(error, match="pickle"):
                obj.migrate("greta")
            with pytest.raises(error, match="pickle"):
                obj.store()
            assert obj.get_node() == before
            assert holder.objects[obj.obj_id].migrating is False
            assert reg.app.pending_invocations(obj.obj_id) == 0
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        assert rt.run_app(app) == 7


class TestRedirection:
    def test_stale_handle_redirects(self, dedicated_testbed):
        """Figure 4: a handle held by another app keeps working after the
        object migrates — the stale holder bounces, the origin resolves."""
        rt = dedicated_testbed
        captured = {}

        def producer():
            reg = JSRegistration()
            load_counter_on(["johanna", "greta", "ida"])
            obj = JSObj("Counter", "johanna")
            assert obj.sinvoke("incr", [5]) == 5
            captured["ref"] = obj.ref
            captured["reg"] = reg
            captured["obj"] = obj

        rt.run_app(producer)

        def consumer():
            reg = JSRegistration()
            stale = JSObj._from_ref(captured["ref"], reg.app)
            assert stale.sinvoke("get") == 5  # works pre-migration
            # Now the producer's object migrates twice.
            captured["obj"].migrate("greta")
            captured["obj"].migrate("ida")
            # The consumer's cached location is doubly stale.  The sync
            # bounce must complete before get_node() can observe the
            # refreshed location, so the call order is load-bearing.
            # symlint: disable-next-line=sync-invoke-async-opportunity
            value = stale.sinvoke("incr")
            assert stale.get_node() == "ida"
            reg.unregister()
            return value

        assert rt.run_app(consumer, node="rachel") == 6
        # Tidy up the producer app.
        rt.run_app(lambda: captured["reg"].unregister())

    def test_oneway_forwarded_through_tombstone(self, dedicated_testbed):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            load_counter_on(["johanna", "greta"])
            obj = JSObj("Counter", "johanna")
            stale_location_ref = obj.ref  # hint points at johanna
            obj.migrate("greta")
            # Fire a one-sided call carrying the stale hint by bypassing
            # the origin table (simulating a foreign holder): build a
            # second app and oinvoke through the stale ref.
            obj.oinvoke("incr", [9])
            rt.world.kernel.sleep(1.0)
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        assert rt.run_app(app) == 9


class TestAutomaticMigration:
    def _spiked_testbed(self):
        """Testbed where johanna gets slammed by external load at t=30."""
        config = TBConfig(load_profile="dedicated", seed=5)
        config.load_models["johanna"] = SpikeLoad(
            ConstantLoad(0.0), start=30.0, duration=10_000.0, magnitude=0.9
        )
        config.shell.auto_migration = True
        config.shell.watch_period = 5.0
        config.nas.monitor_period = 2.0
        return vienna_testbed(config)

    def test_object_flees_overloaded_node(self):
        rt = self._spiked_testbed()

        def app():
            reg = JSRegistration()
            constr = JSConstraints([(SysParam.IDLE, ">=", 50)])
            cluster = Cluster(3, constraints=constr)
            assert "johanna" in cluster.hostnames()
            load_counter_on(cluster.hostnames())
            objs = [
                JSObj("Counter", cluster.get_node(i)) for i in range(3)
            ]
            on_johanna = [o for o in objs if o.get_node() == "johanna"]
            assert on_johanna
            incr_handles = [o.ainvoke("incr", [11]) for o in objs]
            for handle in incr_handles:
                assert handle.get_result() == 11
            # Let the spike hit and the watch loop react.
            rt.world.kernel.sleep(60.0)
            moved = [o for o in on_johanna if o.get_node() != "johanna"]
            assert moved, "auto-migration did not move objects away"
            # State survived the automatic migration.
            get_handles = [o.ainvoke("get") for o in objs]
            for handle in get_handles:
                assert handle.get_result() == 11
            reg.unregister()

        rt.run_app(app)

    def test_disabled_auto_migration_stays_put(self):
        rt = self._spiked_testbed()
        rt.shell.disable_auto_migration()

        def app():
            reg = JSRegistration()
            constr = JSConstraints([(SysParam.IDLE, ">=", 50)])
            cluster = Cluster(3, constraints=constr)
            load_counter_on(cluster.hostnames())
            objs = [
                JSObj("Counter", cluster.get_node(i)) for i in range(3)
            ]
            hosts_before = [o.get_node() for o in objs]
            rt.world.kernel.sleep(60.0)
            assert [o.get_node() for o in objs] == hosts_before
            reg.unregister()

        rt.run_app(app)

    def test_unconstrained_allocation_not_watched(self):
        rt = self._spiked_testbed()

        def app():
            reg = JSRegistration()
            cluster = Cluster(3)  # no constraints -> no watch registered
            load_counter_on(cluster.hostnames())
            assert rt.pub_oas[reg.home_node].va_watches == {}
            reg.unregister()

        rt.run_app(app)


class TestPersistence:
    def test_store_load_round_trip(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            load_counter_on(["johanna"])
            obj = JSObj("Counter", "johanna")
            obj.sinvoke("incr", [123])
            key = obj.store("my-counter")
            assert key == "my-counter"
            obj.free()
            loaded = JS.load("my-counter")
            value = loaded.sinvoke("get")
            reg.unregister()
            return value

        assert dedicated_testbed.run_app(app) == 123

    def test_generated_key(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            key = obj.store()
            assert key
            assert dedicated_testbed.persistent_store.load(key) is not None
            reg.unregister()
            return key

        dedicated_testbed.run_app(app)

    def test_load_unknown_key(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            from repro.errors import PersistenceError

            with pytest.raises(PersistenceError):
                JS.load("nothing-here")
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_store_survives_across_apps(self, dedicated_testbed):
        rt = dedicated_testbed

        def writer():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            obj.sinvoke("incr", [55])
            obj.store("shared")
            reg.unregister()

        def reader():
            reg = JSRegistration()
            value = JS.load("shared").sinvoke("get")
            reg.unregister()
            return value

        rt.run_app(writer)
        assert rt.run_app(reader, node="greta") == 55

    def test_store_waits_for_running_method(self, dedicated_testbed):
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            load_counter_on(["johanna"])
            obj = JSObj("Spinner", "johanna")
            handle = obj.ainvoke("spin", [42e6])
            rt.world.kernel.sleep(0.2)
            t0 = rt.world.now()
            obj.store("spun")  # must wait until spin finishes
            waited = rt.world.now() - t0
            assert handle.get_result() == "done"
            reg.unregister()
            return waited

        assert dedicated_testbed.run_app(app) >= 0.7

    def test_disk_backed_store(self, tmp_path):
        from repro.core.persistence import PersistentStore

        store = PersistentStore(tmp_path)
        key = store.save("Counter", b"state-bytes", key="k1")
        # A fresh store over the same directory sees the record.
        reopened = PersistentStore(tmp_path)
        assert reopened.load(key) == ("Counter", b"state-bytes")
        reopened.delete(key)
        assert reopened.load(key) is None
        with pytest.raises(PersistenceError):
            reopened.delete(key)

    def test_bad_key_rejected(self, tmp_path):
        from repro.core.persistence import PersistentStore

        store = PersistentStore()
        with pytest.raises(PersistenceError):
            store.save("C", b"x", key="../escape")
