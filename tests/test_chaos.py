"""Chaos plane + reliable RMI: the ISSUE-10 acceptance scenarios.

Three properties pinned here:

* **Determinism** — a (plan, seed) pair replays bit-identically: same
  injected-fault tally, same event stream, same simulated elapsed time.
* **Survival** — under the acceptance plan (10% request/reply loss plus
  a 5 s gray-failure stall) the workload completes *correctly* with the
  reliability layer on, and demonstrably fails without it.
* **At-most-once execution** — a dropped *reply* makes the client
  retry, but the holder-side replay cache answers the duplicate from
  its cache instead of executing the method twice.
"""

import pytest

from repro.agents.shell import ShellConfig
from repro.apps.matmul import MatmulConfig, run_matmul
from repro.chaos import ChaosInjector, FaultPlan
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.errors import (
    ClassNotLoadedError,
    JSError,
    RemoteInvocationError,
    RetriesExhaustedError,
    RPCTimeoutError,
)
from repro.kernel import VirtualKernel
from repro.obs import Tracer, tracing
from repro.simnet import HostSpec, Segment, SimWorld
from repro.transport import Addr
from tests.conftest import Counter  # noqa: F401

#: the ISSUE-10 acceptance plan: 10% loss + a 5 s stall on a worker
ACCEPTANCE_PLAN = "drop:p=0.10; stall:host=bruno,at=2,dur=5"
ACCEPTANCE_SEED = 7


def chaos_testbed(plan, seed, reliable=True, rpc_timeout=3.0):
    shell = ShellConfig(rpc_timeout=rpc_timeout, reliable=reliable)
    runtime = vienna_testbed(TestbedConfig(
        load_profile="dedicated", seed=seed, shell=shell,
    ))
    injector = ChaosInjector(runtime.world, plan).install(runtime.transport)
    return runtime, injector


def run_chaos_matmul(plan, seed, reliable=True, rpc_timeout=3.0,
                     n=8, nodes=3):
    """One traced matmul under ``plan``; returns (result, tracer,
    injector) — ``result`` is the raised ``JSError`` when the run is
    lost to the faults."""
    with tracing(Tracer()) as tracer:
        runtime, injector = chaos_testbed(
            plan, seed, reliable=reliable, rpc_timeout=rpc_timeout,
        )
        try:
            result = runtime.run_app(lambda: run_matmul(
                MatmulConfig(n=n, nr_nodes=nodes, real_compute=True)
            ))
        except JSError as exc:
            result = exc
    return result, tracer, injector


class TestSeededReplay:
    def test_chaos_run_replays_bit_identically(self):
        plan_spec = ACCEPTANCE_PLAN
        runs = []
        for _ in range(2):
            result, tracer, injector = run_chaos_matmul(
                FaultPlan.parse(plan_spec), ACCEPTANCE_SEED,
            )
            runs.append((
                result.elapsed,
                dict(injector.injected),
                [(e.etype, e.ts, e.host) for e in tracer.events],
            ))
        first, second = runs
        assert first[0] == second[0]        # same simulated elapsed
        assert first[1] == second[1]        # same injected tally
        assert first[2] == second[2]        # same event stream

    def test_random_plan_generation_is_seed_deterministic(self):
        hosts = ["anton", "bruno", "clemens", "dora"]
        a = FaultPlan.random_plan(42, hosts)
        b = FaultPlan.random_plan(42, hosts)
        assert a.describe() == b.describe()
        assert a.describe() != FaultPlan.random_plan(43, hosts).describe()


class TestAcceptance:
    def test_reliable_run_survives_loss_and_stall(self):
        result, tracer, injector = run_chaos_matmul(
            FaultPlan.parse(ACCEPTANCE_PLAN), ACCEPTANCE_SEED,
            reliable=True,
        )
        # Survived — no RPCTimeoutError (or any error) reached the app,
        # and the product verifies against the sequential reference.
        assert not isinstance(result, BaseException)
        assert result.correct
        assert injector.injected.get("drop", 0) > 0
        assert injector.injected.get("stall") == 1
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("rpc.retries", 0) > 0

    def test_same_plan_without_retries_fails(self):
        with pytest.raises(RPCTimeoutError):
            result, _, _ = run_chaos_matmul(
                FaultPlan.parse(ACCEPTANCE_PLAN), ACCEPTANCE_SEED,
                reliable=False,
            )
            if isinstance(result, BaseException):
                raise result


class TestDedup:
    def test_lost_reply_is_not_reexecuted(self):
        """Drop exactly the first invoke *reply*: the call executed, the
        client retries, and the replay cache must answer the duplicate
        from cache — the counter increments once per call."""
        plan = FaultPlan.parse("drop:p=1,kinds=INVOKE,stage=reply,max=1")
        with tracing(Tracer()) as tracer:
            runtime, injector = chaos_testbed(plan, seed=3)
            values = []

            def app():
                reg = JSRegistration()
                cb = JSCodebase(); cb.add(Counter); cb.load("rachel")
                obj = JSObj("Counter", "rachel")
                values.append(obj.sinvoke("incr"))
                values.append(obj.sinvoke("incr"))
                reg.unregister()

            runtime.run_app(app)
        assert injector.injected.get("drop") == 1
        # double execution would yield [2, 3]
        assert values == [1, 2]
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("rpc.dedup.hits", 0) >= 1


    @pytest.mark.parametrize("rpc_timeout", [None, 3.0, 30.0])
    def test_every_lost_reply_is_answered_from_cache(self, rpc_timeout):
        """Every INVOKE reply is lost, so the call exhausts its retries;
        the method still runs once.  The replay cache must keep the
        token until the last attempt lands, however long the per-attempt
        timeout: with a fixed 60 s window, a 30 s timeout's third
        attempt arrived after eviction and incremented again."""
        plan = FaultPlan.parse("drop:p=1,kinds=INVOKE,stage=reply")
        runtime, _ = chaos_testbed(plan, seed=3, rpc_timeout=rpc_timeout)
        seen = {}

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("rachel")
            obj = JSObj("Counter", "rachel")
            try:
                seen["reply"] = obj.sinvoke("incr")
            except RetriesExhaustedError as exc:
                seen["attempts"] = len(exc.attempts)
            holder = runtime.pub_oas["rachel"]
            seen["value"] = holder.objects[obj.obj_id].instance.value
            seen["hits"] = holder.endpoint.dedup.hits
            reg.unregister()

        runtime.run_app(app)
        assert seen == {"attempts": 4, "value": 1, "hits": 3}


class TestDuplicateDelivery:
    def test_duplicated_request_handlers_get_their_own_argument(self):
        """Both deliveries of a duplicated request used to receive the
        *same* ``Message``; the second delivery replaced its payload
        under the first handler, so two handler processes ran on one
        list.  Each delivery decodes a copy of its own."""
        plan = FaultPlan.parse("duplicate:p=1.0,kinds=TOUCH")
        runtime, injector = chaos_testbed(plan, seed=3, reliable=False)
        world, transport = runtime.world, runtime.transport
        found, left = [], []

        def touch(msg):
            world.kernel.sleep(0.5)  # the duplicate lands meanwhile
            found.append(list(msg.payload))
            msg.payload.append("touched")
            left.append(msg.payload)

        transport.create_endpoint(Addr("rachel", "srv")).register(
            "TOUCH", touch)
        client = transport.create_endpoint(Addr("johanna", "cli"))

        def main():
            client.send_oneway(Addr("rachel", "srv"), "TOUCH", [1, 2, 3])
            world.kernel.sleep(2.0)

        runtime.run_app(main)
        assert injector.injected.get("duplicate") == 1
        assert found == [[1, 2, 3], [1, 2, 3]]
        assert left[0] is not left[1]
        assert left == [[1, 2, 3, "touched"], [1, 2, 3, "touched"]]


class TestPartition:
    def test_cross_segment_call_fails_during_the_cut_then_heals(self):
        """``dora`` sits on ``hub-10``; cut the hub off for 3 s.  A call
        to it before the cut works, one during the cut times out typed
        (the request is dropped, so the method never runs), and one after
        the heal works again and sees only the calls that arrived."""
        plan = FaultPlan.parse("partition:segment=hub-10,at=5,heal=3")
        runtime, injector = chaos_testbed(
            plan, seed=3, reliable=False, rpc_timeout=1.0)
        kernel = runtime.world.kernel
        seen = {}

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("dora")
            obj = JSObj("Counter", "dora")
            seen["before"] = obj.sinvoke("incr")
            kernel.sleep(5.5 - kernel.now())
            try:
                seen["during"] = obj.sinvoke("incr")
            except RPCTimeoutError as exc:
                seen["during"] = exc
            seen["cut"] = kernel.now()
            kernel.sleep(8.5 - kernel.now())
            seen["after"] = obj.sinvoke("incr")
            reg.unregister()

        runtime.run_app(app)
        assert seen["before"] == 1
        assert isinstance(seen["during"], RPCTimeoutError)
        assert 5.5 < seen["cut"] < 8.0
        assert seen["after"] == 2
        assert injector.injected["partition"] >= 2  # the note + drops

    def test_random_plans_draw_the_testbeds_segments(self, capsys):
        """``repro chaos --random`` draws partitions from the segments
        the testbed's hosts sit on; seed 4 draws one."""
        from repro.cli import main as cli_main

        assert cli_main(["chaos", "matmul", "--random", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        plan = out.splitlines()[0]
        assert "partition(switch-100@" in plan
        assert ("workload   : completed" in out
                or "workload   : FAILED (typed)" in out)


class TestRestart:
    def test_restarted_host_rejoins_the_cluster(self):
        runtime, _ = chaos_testbed(FaultPlan(), seed=5)
        world = runtime.world
        world.kernel.run(until=1.0)
        world.fail_host("bruno")
        # NAS failure detection is probe-based; give it simulated time.
        world.kernel.run(until=world.now() + 15.0)
        assert "bruno" not in runtime.nas.known_hosts()

        world.restart_host("bruno")
        assert "bruno" in runtime.nas.known_hosts()
        assert not world.machine("bruno").failed

        # The revived host is immediately usable for placement again.
        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load("bruno")
            obj = JSObj("Counter", "bruno")
            assert obj.sinvoke("incr") == 1
            reg.unregister()

        runtime.run_app(app)


def one_machine_world():
    """One 40 MFLOPS machine ``a`` on a switched segment."""
    world = SimWorld(VirtualKernel(), seed=0)
    world.add_segment(Segment("lan", bandwidth_mbits=100.0))
    world.add_machine(HostSpec("a", "test", mflops=40.0), "lan")
    return world


class TestTaskAcrossRestart:
    """A restart forgets the host's in-flight tasks; a task that was
    running across it must end without touching the new epoch's count."""

    def test_compute_across_a_restart_ends_cleanly(self):
        world = one_machine_world()
        world.kernel.call_at(0.5, world.restart_host, "a")
        proc = world.kernel.spawn(world.compute, "a", 40e6)
        world.kernel.run()
        assert world.kernel.crashes == []
        assert proc.result() == pytest.approx(1.0)
        assert world.machine("a").active_tasks == 0

    def test_an_old_task_does_not_end_a_new_one(self):
        world = one_machine_world()
        kernel, machine = world.kernel, world.machine("a")
        kernel.call_at(0.5, world.restart_host, "a")
        kernel.spawn(world.compute, "a", 40e6)  # 0 -> 1 s
        kernel.spawn(world.compute, "a", 80e6, delay=0.6)  # after restart
        seen = []
        kernel.call_at(1.5, lambda: seen.append(machine.active_tasks))
        kernel.run()
        # The old task's end at t=1 left the new task's slot alone.
        assert seen == [1]
        assert kernel.crashes == []
        assert machine.active_tasks == 0


class TestSoak:
    @pytest.mark.parametrize("seed", [5, 7, 11])
    def test_random_plans_complete_or_fail_typed(self, seed):
        """Faults may lose a run (typed JSError) but never corrupt one:
        a completed run's product is correct, and nothing hangs."""
        plan = FaultPlan.random_plan(
            seed, ["anton", "bruno", "clemens", "dora", "erika"],
        )
        result, _, _ = run_chaos_matmul(plan, seed, reliable=True)
        if isinstance(result, BaseException):
            assert isinstance(result, JSError)
        else:
            assert result.correct


class TestCrashClause:
    """The plan grammar's ``crash:`` clause, fired inside the workload:
    rachel dies at 0.02 s and comes back blank at 0.5 s, before the
    NAS's probes notice.  The run is lost, typed: the fresh PubOA has no
    classes loaded."""

    PLAN = "crash:host=rachel,at=0.02,restart=0.5"

    def test_cli_reports_the_crash_and_a_typed_failure(self, capsys):
        from repro.cli import main

        assert main(["chaos", "matmul", "--plan", self.PLAN,
                     "--n", "200", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "injected   : crash=1, restart=1\n" in out
        assert ("workload   : FAILED (typed) RemoteInvocationError: "
                "remote handler at oa@rachel raised ClassNotLoadedError"
                in out)

    def test_restarted_host_comes_back_blank_and_registered(self):
        # The CLI's setup: night load, seed 1, reliable RMI on.
        with tracing(Tracer()):
            runtime = vienna_testbed(TestbedConfig(
                load_profile="night", seed=1,
                shell=ShellConfig(rpc_timeout=3.0, reliable=True),
            ))
            injector = ChaosInjector(
                runtime.world, FaultPlan.parse(self.PLAN)
            ).install(runtime.transport)
            before = runtime.pub_oas["rachel"]
            with pytest.raises(RemoteInvocationError) as info:
                runtime.run_app(lambda: run_matmul(
                    MatmulConfig(n=200, nr_nodes=4, real_compute=False)
                ))
        assert injector.injected == {"crash": 1, "restart": 1}
        assert isinstance(info.value.cause, ClassNotLoadedError)
        after = runtime.pub_oas["rachel"]
        assert after is not before
        assert (after.objects, after.tombstones) == ({}, {})
        assert runtime.nas.cluster_of("rachel") == "ultras"
        assert "rachel" in runtime.pool.hosts
        assert not runtime.world.machine("rachel").failed
        assert not runtime.health.suspected("rachel")
