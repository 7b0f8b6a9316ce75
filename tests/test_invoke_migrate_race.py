"""Invoke/migrate race coverage: the pending ledger is load-bearing —
migration waits out every in-flight async invocation, including one
still on the wire, and pending is tracked for foreign refs the local
table has never seen."""

from repro.cluster import TestbedConfig as TBConfig
from repro.cluster import vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.sanitizer import Sanitizer, sanitizing
from repro.util.serialization import Payload, unwrap
from tests.conftest import Counter, Echo, Spinner  # noqa: F401


def load_classes(hosts):
    cb = JSCodebase()
    cb.add(Counter)
    cb.add(Echo)
    cb.add(Spinner)
    cb.load(list(hosts))
    return cb


class TestInvokeMigrateRace:
    def test_sinvoke_races_migration(self, dedicated_testbed):
        """A process hammering sinvoke while the owner migrates the
        object around the testbed: every increment must land exactly
        once, wherever the object happened to live."""
        rt = dedicated_testbed
        kernel = rt.world.kernel

        def app():
            reg = JSRegistration()
            load_classes(["johanna", "greta", "ida"])
            obj = JSObj("Counter", "johanna")

            def racer():
                for _ in range(12):
                    # The blocking per-iteration round trip IS the test:
                    # each call must land wherever the object lives now.
                    # symlint: disable-next-line=remote-invoke-in-loop
                    obj.sinvoke("incr")
                    kernel.sleep(0.05)

            proc = kernel.spawn(racer, name="racer")
            for dst in ("greta", "ida", "johanna", "greta"):
                kernel.sleep(0.11)
                # Deliberate migration churn while the racer fires.
                # symlint: disable-next-line=migrate-in-loop
                obj.migrate(dst)
            proc.join()
            # Final consistency read; nothing to overlap with.
            # symlint: disable-next-line=sync-invoke-async-opportunity
            value = obj.sinvoke("get")
            assert obj.get_node() == "greta"
            reg.unregister()
            return value

        assert rt.run_app(app) == 12

    def test_ainvoke_burst_races_migration(self, dedicated_testbed):
        """A burst of ainvokes immediately followed by migrate: the
        drain waits them out, every handle resolves, nothing is lost."""
        rt = dedicated_testbed

        def app():
            reg = JSRegistration()
            load_classes(["johanna", "greta"])
            obj = JSObj("Counter", "johanna")
            handles = [obj.ainvoke("incr") for _ in range(8)]
            obj.migrate("greta")
            assert reg.app.pending_invocations(obj.obj_id) == 0
            assert sorted(h.get_result() for h in handles) == list(
                range(1, 9)
            )
            assert obj.sinvoke("get") == 8
            reg.unregister()

        rt.run_app(app)

    def test_migrate_drains_pending_async(self, dedicated_testbed):
        """Default policy (no drain timeout): migration blocks until the
        in-flight async invocation has fully completed."""
        rt = dedicated_testbed
        kernel = rt.world.kernel

        def app():
            reg = JSRegistration()
            load_classes(["johanna", "greta"])
            obj = JSObj("Spinner", "johanna")
            handle = obj.ainvoke("spin", [42e6])  # ~1 s of modelled work
            t0 = kernel.now()
            obj.migrate("greta")
            drained = kernel.now() - t0
            # The migrate call sat out the remote compute, it did not
            # yank the object from under the invocation.
            assert drained > 0.5
            assert handle.is_ready()
            assert handle.get_result() == "done"
            assert reg.app.pending_invocations(obj.obj_id) == 0
            reg.unregister()

        rt.run_app(app)

    def test_migrate_waits_for_a_request_on_the_wire(self):
        """A request still in transit when migrate starts is one the
        holder-side quiescence wait cannot see: the drain waits it out
        all the same, and the sanitizer has nothing to report."""
        san = Sanitizer()
        with sanitizing(san):
            rt = vienna_testbed(
                TBConfig(load_profile="dedicated", seed=3)
            )
            kernel = rt.world.kernel

            def app():
                reg = JSRegistration()
                load_classes(["ida", "greta"])
                obj = JSObj("Echo", "ida")
                obj.sinvoke("echo", ["warm"])
                # ~3 s of transit on the shared 10 Mbit segment: the
                # request is still in flight when migrate starts.
                handle = obj.ainvoke(
                    "echo", [Payload(data="big", nbytes=4_000_000)]
                )
                assert reg.app.pending_invocations(obj.obj_id) == 1
                t0 = kernel.now()
                obj.migrate("greta")
                assert kernel.now() - t0 > 1.0
                assert handle.is_ready()
                assert reg.app.pending_invocations(obj.obj_id) == 0
                assert unwrap(handle.get_result()) == "big"
                assert obj.sinvoke("echo", ["alive"]) == "alive"
                reg.unregister()

            rt.run_app(app)
        assert san.report().findings == []

    def test_foreign_ref_pending_tracked(self, dedicated_testbed):
        """Async invocations through a ref the local table has never
        registered (remote-origin handle) are counted too — they used to
        vanish from the pending accounting entirely."""
        rt = dedicated_testbed
        kernel = rt.world.kernel
        captured = {}

        def producer():
            reg = JSRegistration()
            load_classes(["johanna"])
            obj = JSObj("Spinner", "johanna")
            captured["ref"] = obj.ref
            captured["reg"] = reg

        rt.run_app(producer)

        def consumer():
            reg = JSRegistration()
            app = reg.app
            foreign = JSObj._from_ref(captured["ref"], app)
            assert foreign.obj_id not in app.refs
            handle = foreign.ainvoke("spin", [42e6])
            kernel.sleep(0.2)  # request issued, result far away
            assert app.pending_invocations(foreign.obj_id) == 1
            assert handle.get_result() == "done"
            assert app.pending_invocations(foreign.obj_id) == 0
            # The ledger does not accumulate dead entries.
            assert foreign.obj_id not in app.pending
            reg.unregister()

        rt.run_app(consumer, node="rachel")
        # No tidy-up unregister: freeing the producer's refs from a
        # third process has no happens-before edge to their creation,
        # which the sanitized run reports; the kernel sweep fixture
        # reclaims the world.
