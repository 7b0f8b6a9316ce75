"""Integration tests for the Network Agent System: monitoring flow,
hierarchical aggregation, failure detection, manager takeover, and
JS-Shell administration."""

import pytest

from repro.agents.nas import NASConfig
from repro.cluster import TestbedConfig as TBConfig
from repro.cluster import vienna_testbed
from repro.errors import ShellError
from repro.obs import Tracer, snapshot_document, tracing
from repro.obs.events import NAS_TAKEOVER
from repro.sysmon import SysParam


def fast_nas():
    return NASConfig(
        monitor_period=2.0, probe_period=2.0, failure_timeout=1.0
    )


def make_testbed(**kwargs):
    config = TBConfig(load_profile="dedicated", seed=9, nas=fast_nas())
    for key, value in kwargs.items():
        setattr(config, key, value)
    return vienna_testbed(config)


def run_for(runtime, seconds):
    runtime.world.kernel.run(until=runtime.world.now() + seconds)


class TestMonitoringFlow:
    def test_agents_sample_their_nodes(self):
        rt = make_testbed()
        run_for(rt, 10.0)
        for host in rt.nas.known_hosts():
            snap = rt.nas.agents[host].latest_snapshot()
            assert snap is not None
            assert snap[SysParam.NODE_NAME] == host

    def test_cluster_manager_collects_member_samples(self):
        rt = make_testbed()
        run_for(rt, 10.0)
        manager = rt.nas.cluster_manager("ultras")
        agent = rt.nas.agents[manager]
        # All 7 ultras report to the ultras cluster manager.
        assert len(agent.member_samples) == 7

    def test_cluster_average_aggregates(self):
        rt = make_testbed()
        run_for(rt, 10.0)
        avg = rt.nas.cluster_average("sparcs")
        assert avg is not None
        # Average of SS4/110 (5.5), SS5/70 (4.5), SS10/40 (3.5) pairs.
        assert avg[SysParam.PEAK_MFLOPS] == pytest.approx(
            (5.5 * 2 + 4.5 * 2 + 3.5 * 2) / 6
        )

    def test_site_and_domain_average(self):
        rt = make_testbed()
        run_for(rt, 12.0)
        site_avg = rt.nas.site_average("vienna")
        assert site_avg is not None
        expected = (60 * 2 + 42 * 2 + 22 * 3 + 5.5 * 2 + 4.5 * 2 + 3.5 * 2) / 13
        assert site_avg[SysParam.PEAK_MFLOPS] == pytest.approx(expected)
        domain_avg = rt.nas.domain_average()
        assert domain_avg[SysParam.PEAK_MFLOPS] == pytest.approx(expected)

    def test_manager_nesting_rule(self):
        rt = make_testbed()
        ultras_mgr = rt.nas.cluster_manager("ultras")
        assert rt.nas.site_manager("vienna") == ultras_mgr
        assert rt.nas.domain_manager() == ultras_mgr
        assert rt.nas.is_manager(ultras_mgr)

    def test_monitoring_sees_load_changes(self):
        rt = make_testbed()
        run_for(rt, 10.0)
        idle_before = rt.nas.latest_snapshot("rachel")[SysParam.IDLE]
        assert idle_before > 90
        # Pin rachel's CPU via a JS task and wait for fresh samples.
        rt.world.machine("rachel").begin_task()
        run_for(rt, 6.0)
        idle_after = rt.nas.latest_snapshot("rachel")[SysParam.IDLE]
        rt.world.machine("rachel").end_task()
        assert idle_after < 20


class TestFailureDetection:
    def test_failed_member_released(self):
        rt = make_testbed()
        run_for(rt, 5.0)
        assert "greta" in rt.nas.cluster_members("sparcs")
        rt.world.fail_host("greta")
        run_for(rt, 15.0)
        assert "greta" not in rt.nas.cluster_members("sparcs")
        assert "greta" not in rt.pool.hosts  # pool follows NAS
        events = [e for e in rt.nas.events if e.kind == "node-released"]
        assert any(e.detail["host"] == "greta" for e in events)

    def test_failed_manager_takeover(self):
        rt = make_testbed()
        run_for(rt, 5.0)
        old_manager = rt.nas.cluster_manager("sparcs")
        backups = rt.nas.managers["sparcs"].backups
        assert backups
        expected_successor = backups[0]
        rt.world.fail_host(old_manager)
        run_for(rt, 20.0)
        assert rt.nas.cluster_manager("sparcs") == expected_successor
        takeovers = [
            e for e in rt.nas.events if e.kind == "manager-takeover"
        ]
        assert len(takeovers) == 1
        assert takeovers[0].detail["failed"] == old_manager
        assert takeovers[0].detail["new_manager"] == expected_successor

    def test_takeover_is_counted_on_the_new_manager(self):
        """The takeover counter lands in the new manager's registry,
        the host its ``nas.takeover`` event names, and so in the
        cluster's metrics document."""
        with tracing(Tracer()) as tracer:
            rt = make_testbed()
        run_for(rt, 5.0)
        old_manager = rt.nas.cluster_manager("sparcs")
        successor = rt.nas.managers["sparcs"].backups[0]
        rt.world.fail_host(old_manager)
        run_for(rt, 20.0)
        (event,) = tracer.events_of(NAS_TAKEOVER)
        assert event.host == successor
        counters = tracer.host_metrics[successor].snapshot()["counters"]
        assert counters["nas.takeovers"] == 1
        assert snapshot_document(tracer)["metrics"]["merged"]["counters"][
            "nas.takeovers"] == 1

    def test_site_manager_failure_promotes_backup(self):
        rt = make_testbed()
        run_for(rt, 5.0)
        old = rt.nas.domain_manager()  # = ultras manager = site manager
        rt.world.fail_host(old)
        run_for(rt, 20.0)
        new = rt.nas.domain_manager()
        assert new != old
        assert rt.nas.site_manager("vienna") == new
        takeover = [
            e for e in rt.nas.events if e.kind == "manager-takeover"
        ][0]
        assert takeover.detail["was_site_manager"]
        assert takeover.detail["was_domain_manager"]

    def test_monitoring_continues_after_takeover(self):
        rt = make_testbed()
        run_for(rt, 5.0)
        rt.world.fail_host(rt.nas.cluster_manager("sparcs"))
        run_for(rt, 25.0)
        avg = rt.nas.cluster_average("sparcs")
        assert avg is not None
        # The new manager aggregates the 5 surviving sparcs.
        members = rt.nas.cluster_members("sparcs")
        assert len(members) == 5

    def test_double_failure_consumes_both_backups(self):
        rt = make_testbed()
        run_for(rt, 5.0)
        first = rt.nas.cluster_manager("sparcs")
        rt.world.fail_host(first)
        run_for(rt, 20.0)
        second = rt.nas.cluster_manager("sparcs")
        rt.world.fail_host(second)
        run_for(rt, 20.0)
        third = rt.nas.cluster_manager("sparcs")
        assert len({first, second, third}) == 3
        assert third in rt.nas.cluster_members("sparcs")

    def test_oas_does_not_recover_objects(self):
        """Paper: 'currently the object agent system does not exploit
        information about system failures provided by the NAS'."""
        from repro.core import JSCodebase, JSObj, JSRegistration
        from tests.conftest import Counter  # noqa: F401

        rt = make_testbed()
        holder = {}

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("greta")
            obj = JSObj("Counter", "greta")
            assert obj.sinvoke("incr", [1]) == 1
            holder["obj"] = obj
            holder["reg"] = reg

        rt.run_app(app)
        rt.world.fail_host("greta")
        run_for(rt, 15.0)

        def check():
            # The object is simply gone; invoking it times out.
            rt.shell.config.rpc_timeout = 3.0
            from repro.errors import RPCTimeoutError

            with pytest.raises(RPCTimeoutError):
                holder["obj"].sinvoke("get")
            holder["reg"].unregister()

        rt.run_app(check)


class TestShellAdministration:
    def test_add_and_remove_node(self):
        from repro.simnet import make_host

        def add_machine(world):
            world.add_machine(make_host("neu", "Ultra10/440", 99),
                              "switch-100")

        config = TBConfig(load_profile="dedicated", seed=9, nas=fast_nas())
        rt = vienna_testbed(config, mutate_world=add_machine)
        assert "neu" not in rt.nas.known_hosts()
        rt.shell.add_node("neu", cluster="ultras", site="vienna")
        assert "neu" in rt.nas.known_hosts()
        assert "neu" in rt.pool.hosts
        run_for(rt, 10.0)
        assert rt.nas.agents["neu"].latest_snapshot() is not None
        rt.shell.remove_node("neu")
        assert "neu" not in rt.nas.known_hosts()
        assert "neu" not in rt.pool.hosts

    def test_add_unknown_host_rejected(self):
        rt = make_testbed()
        with pytest.raises(ShellError):
            rt.shell.add_node("ghost", cluster="ultras", site="vienna")

    def test_duplicate_add_rejected(self):
        rt = make_testbed()
        with pytest.raises(ShellError):
            rt.shell.add_node("milena", cluster="ultras", site="vienna")

    def test_period_configuration(self):
        rt = make_testbed()
        rt.shell.set_monitor_period(1.0)
        rt.shell.set_probe_period(1.5)
        rt.shell.set_failure_timeout(0.5)
        assert rt.nas.config.monitor_period == 1.0
        assert rt.nas.config.probe_period == 1.5
        assert rt.nas.config.failure_timeout == 0.5
        with pytest.raises(ShellError):
            rt.shell.set_monitor_period(0)

    def test_auto_migration_toggle_logged(self):
        rt = make_testbed()
        rt.shell.enable_auto_migration(watch_period=3.0)
        assert rt.shell.config.auto_migration
        assert rt.shell.config.watch_period == 3.0
        rt.shell.disable_auto_migration()
        assert not rt.shell.config.auto_migration
        kinds = [kind for _, kind, _ in rt.shell.log]
        assert kinds.count("auto-migration") == 2

    def test_shell_sees_failure_events(self):
        rt = make_testbed()
        run_for(rt, 5.0)
        rt.world.fail_host("ida")
        run_for(rt, 15.0)
        assert rt.shell.failure_events()
