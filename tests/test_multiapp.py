"""Multiple concurrent applications on one JRS (the paper's PubOAs serve
"any JSA on the local node")."""

from repro.core import JSCodebase, JSObj, JSRegistration
from tests.conftest import Counter, Spinner  # noqa: F401


class TestConcurrentApps:
    def test_two_apps_run_concurrently(self, dedicated_testbed):
        rt = dedicated_testbed
        timeline = {}

        def make_app(tag, host):
            def app():
                reg = JSRegistration()
                cb = JSCodebase(); cb.add(Spinner); cb.load(host)
                obj = JSObj("Spinner", host)
                # ~1 s on an Ultra10/300
                assert obj.sinvoke("spin", [42e6]) == "done"
                timeline[tag] = rt.world.now()
                reg.unregister()
                return tag

            return app

        results = rt.run_apps(
            (make_app("a", "johanna"), "milena"),
            (make_app("b", "theresa"), "rachel"),
        )
        assert results == ["a", "b"]
        # Both finished around t=1: they overlapped, not serialized.
        assert max(timeline.values()) < 2.0

    def test_apps_have_isolated_tables(self, dedicated_testbed):
        rt = dedicated_testbed
        seen = {}

        def app_one():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            obj.sinvoke("incr", [10])
            seen["app1_id"] = reg.app_id
            seen["obj"] = obj.ref
            rt.world.kernel.sleep(5.0)
            seen["app1_value"] = obj.sinvoke("get")
            reg.unregister()

        def app_two():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            obj.sinvoke("incr", [99])
            seen["app2_id"] = reg.app_id
            reg.unregister()

        rt.run_apps((app_one, "milena"), (app_two, "rachel"))
        assert seen["app1_id"] != seen["app2_id"]
        assert seen["app1_value"] == 10  # app two never touched it

    def test_handle_sharing_across_apps(self, dedicated_testbed):
        """First-order handles: app B invokes an object app A created,
        and A's origin authority resolves after migration."""
        rt = dedicated_testbed
        shared = {}

        def producer():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter)
            cb.load(["johanna", "greta"])
            obj = JSObj("Counter", "johanna")
            assert obj.sinvoke("incr", [5]) == 5
            shared["ref"] = obj.ref
            rt.world.kernel.sleep(2.0)   # let the consumer hit it
            obj.migrate("greta")
            rt.world.kernel.sleep(5.0)   # consumer hits the stale ref
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        def consumer():
            reg = JSRegistration()
            while "ref" not in shared:
                rt.world.kernel.sleep(0.1)
            stale = JSObj._from_ref(shared["ref"], reg.app)
            # The first hit must land at johanna *before* the producer
            # migrates; its timing, not its value, is what's under test.
            # symlint: disable-next-line=sync-invoke-async-opportunity
            first = stale.sinvoke("incr")     # at johanna
            rt.world.kernel.sleep(4.0)
            second = stale.sinvoke("incr")    # redirected to greta
            reg.unregister()
            return first, second

        prod_value, (first, second) = rt.run_apps(
            (producer, "milena"), (consumer, "rachel")
        )
        assert (first, second) == (6, 7)
        assert prod_value == 7

    def test_unregister_does_not_disturb_other_app(self, dedicated_testbed):
        rt = dedicated_testbed

        def short_lived():
            reg = JSRegistration()
            JSObj("Counter", "local")
            reg.unregister()

        def long_lived():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            obj.sinvoke("incr", [3])
            rt.world.kernel.sleep(3.0)  # short_lived comes and goes
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        results = rt.run_apps((long_lived, "milena"),
                              (short_lived, "rachel"))
        assert results[0] == 3
