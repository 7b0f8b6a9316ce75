"""Tests for the OAS failure-recovery extension (paper: future work;
implemented here behind ``ShellConfig.oas_failure_recovery``)."""

from repro.agents.nas import NASConfig
from repro.cluster import TestbedConfig as TBConfig
from repro.cluster import vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from tests.conftest import Counter  # noqa: F401


def make_runtime(recovery: bool):
    config = TBConfig(
        load_profile="dedicated",
        seed=17,
        nas=NASConfig(monitor_period=2.0, probe_period=2.0,
                      failure_timeout=1.0),
    )
    config.shell.oas_failure_recovery = recovery
    config.shell.rpc_timeout = 5.0
    return vienna_testbed(config)


def run_crash_scenario(runtime, checkpoint: bool):
    """Object on greta, optional checkpoint, greta dies; returns the
    object's state afterwards (or the exception type name)."""
    outcome = {}

    def app():
        reg = JSRegistration()
        cb = JSCodebase(); cb.add(Counter)
        cb.load(runtime.nas.known_hosts())
        obj = JSObj("Counter", "greta")
        obj.sinvoke("incr", [42])
        if checkpoint:
            obj.store("ckpt")
            obj.sinvoke("incr", [1])  # one update after the checkpoint
        runtime.world.fail_host("greta")
        runtime.world.kernel.sleep(20.0)  # NAS detects + (maybe) recovers
        try:
            outcome["value"] = obj.sinvoke("get")
            outcome["host"] = obj.get_node()
        except Exception as exc:  # noqa: BLE001
            outcome["error"] = type(exc).__name__
        reg.unregister()

    runtime.run_app(app)
    return outcome


class TestRecoveryExtension:
    def test_recovers_from_checkpoint(self):
        runtime = make_runtime(recovery=True)
        outcome = run_crash_scenario(runtime, checkpoint=True)
        # Recovered on another node, at checkpoint state (the post-
        # checkpoint increment is lost: checkpointing, not replication).
        assert outcome.get("value") == 42
        assert outcome.get("host") != "greta"

    def test_without_checkpoint_object_is_lost(self):
        runtime = make_runtime(recovery=True)
        outcome = run_crash_scenario(runtime, checkpoint=False)
        assert "error" in outcome

    def test_disabled_matches_paper_behavior(self):
        runtime = make_runtime(recovery=False)
        outcome = run_crash_scenario(runtime, checkpoint=True)
        assert "error" in outcome

    def test_recovery_prefers_surviving_nodes(self):
        runtime = make_runtime(recovery=True)
        outcome = run_crash_scenario(runtime, checkpoint=True)
        assert outcome["host"] in runtime.nas.known_hosts()
