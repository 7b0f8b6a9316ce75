"""Unit tests for the deterministic virtual-time kernel."""

import threading
import time

import pytest

from repro import context as repro_context
from repro.agents.objects import jsclass
from repro.agents.shell import ShellConfig
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.errors import KernelError, SimDeadlockError, WaitTimeout
from repro.kernel import ProcessState, VirtualKernel, virtual
from repro.obs import Tracer, spans, tracing
from repro.sanitizer import Sanitizer, sanitizing
from repro.varch import Node
from tests.conftest import Counter


@pytest.fixture()
def kernel():
    return VirtualKernel(strict=True)


class TestClockAndSleep:
    def test_time_starts_at_zero(self, kernel):
        assert kernel.now() == 0.0

    def test_sleep_advances_virtual_time(self, kernel):
        seen = {}

        def main():
            kernel.sleep(5.0)
            seen["t"] = kernel.now()

        kernel.run_callable(main)
        assert seen["t"] == pytest.approx(5.0)

    def test_virtual_time_is_free(self, kernel):
        # A year of virtual sleeping completes instantly in host time.
        def main():
            kernel.sleep(365 * 24 * 3600.0)

        kernel.run_callable(main)
        assert kernel.now() == pytest.approx(365 * 24 * 3600.0)

    def test_negative_sleep_rejected(self, kernel):
        def main():
            kernel.sleep(-1.0)

        with pytest.raises(ValueError):
            kernel.run_callable(main)

    def test_run_until_stops_at_time(self, kernel):
        ticks = []

        def ticker():
            while True:
                kernel.sleep(1.0)
                ticks.append(kernel.now())

        kernel.spawn(ticker)
        kernel.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert kernel.now() == pytest.approx(3.5)

    def test_run_until_can_resume(self, kernel):
        ticks = []

        def ticker():
            while True:
                kernel.sleep(1.0)
                ticks.append(kernel.now())

        kernel.spawn(ticker)
        kernel.run(until=2.0)
        kernel.run(until=4.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0]


class TestProcesses:
    def test_result_returned(self, kernel):
        proc = kernel.spawn(lambda: 41 + 1)
        kernel.run(main=proc)
        assert proc.result() == 42
        assert proc.state is ProcessState.FINISHED

    def test_exception_propagates_via_result(self):
        kernel = VirtualKernel(strict=False)
        proc = kernel.spawn(lambda: 1 / 0)
        kernel.run(main=proc)
        assert proc.state is ProcessState.FAILED
        with pytest.raises(ZeroDivisionError):
            proc.result()

    def test_strict_kernel_raises_on_background_crash(self):
        kernel = VirtualKernel(strict=True)

        def main():
            kernel.spawn(lambda: 1 / 0, name="crasher")
            kernel.sleep(1.0)

        proc = kernel.spawn(main)
        with pytest.raises(KernelError, match="crasher"):
            kernel.run(main=proc)

    def test_main_crash_not_doubled_in_strict(self):
        kernel = VirtualKernel(strict=True)
        proc = kernel.spawn(lambda: 1 / 0)
        kernel.run(main=proc)  # no KernelError: main's own crash
        with pytest.raises(ZeroDivisionError):
            proc.result()

    def test_result_before_finish_is_an_error(self, kernel):
        proc = kernel.spawn(lambda: kernel.sleep(10))
        with pytest.raises(KernelError):
            proc.result()

    def test_join(self, kernel):
        order = []

        def child():
            kernel.sleep(2.0)
            order.append("child")

        def main():
            proc = kernel.spawn(child)
            proc.join()
            order.append("main")

        kernel.run_callable(main)
        assert order == ["child", "main"]

    def test_join_timeout(self, kernel):
        def child():
            kernel.sleep(100.0)

        def main():
            proc = kernel.spawn(child)
            with pytest.raises(WaitTimeout):
                proc.join(timeout=1.0)
            return kernel.now()

        assert kernel.run_callable(main) == pytest.approx(1.0)

    def test_spawn_delay(self, kernel):
        times = {}

        def child():
            times["start"] = kernel.now()

        def main():
            kernel.spawn(child, delay=3.0).join()

        kernel.run_callable(main)
        assert times["start"] == pytest.approx(3.0)

    def test_context_inherited_by_reference(self, kernel):
        seen = {}

        def child():
            seen["app"] = kernel.current_process().context.get("app")

        def main():
            kernel.current_process().context["app"] = "app-1"
            kernel.spawn(child).join()

        kernel.run_callable(main)
        assert seen["app"] == "app-1"

    def test_current_process_outside_is_none(self, kernel):
        assert kernel.current_process() is None

    def test_blocking_outside_process_rejected(self, kernel):
        with pytest.raises(KernelError):
            kernel.sleep(1.0)


class TestDeterminism:
    def _trace(self):
        kernel = VirtualKernel()
        trace = []

        def worker(name, period):
            for _ in range(5):
                kernel.sleep(period)
                trace.append((round(kernel.now(), 6), name))

        for i, period in enumerate([0.3, 0.7, 0.3, 1.1]):
            kernel.spawn(worker, f"w{i}", period)
        kernel.run()
        return trace

    def test_identical_runs(self):
        assert self._trace() == self._trace()

    def test_fifo_tie_break_at_same_time(self):
        kernel = VirtualKernel()
        order = []

        def worker(name):
            kernel.sleep(1.0)
            order.append(name)

        for name in ["a", "b", "c"]:
            kernel.spawn(worker, name)
        kernel.run()
        assert order == ["a", "b", "c"]


class TestFuture:
    def test_set_and_result(self, kernel):
        def main():
            fut = kernel.create_future()
            kernel.spawn(lambda: kernel.sleep(1.0) or fut.set_result(7))
            return fut.result()

        assert kernel.run_callable(main) == 7

    def test_wait_timeout_returns_false(self, kernel):
        def main():
            fut = kernel.create_future()
            return fut.wait(timeout=2.0), kernel.now()

        done, t = kernel.run_callable(main)
        assert done is False
        assert t == pytest.approx(2.0)

    def test_result_timeout_raises(self, kernel):
        def main():
            fut = kernel.create_future()
            fut.result(timeout=1.5)

        proc = kernel.spawn(main)
        kernel.run(main=proc)
        with pytest.raises(WaitTimeout):
            proc.result()
        assert isinstance(proc.finished_future.exception(), WaitTimeout)

    def test_exception_propagates(self, kernel):
        def main():
            fut = kernel.create_future()
            fut.set_exception(ValueError("boom"))
            with pytest.raises(ValueError):
                fut.result()
            return fut.exception()

        assert isinstance(kernel.run_callable(main), ValueError)

    def test_double_set_rejected(self, kernel):
        def main():
            fut = kernel.create_future()
            fut.set_result(1)
            fut.set_result(2)

        with pytest.raises(KernelError):
            kernel.run_callable(main)

    def test_wait_after_done_is_instant(self, kernel):
        def main():
            fut = kernel.create_future()
            fut.set_result("x")
            t0 = kernel.now()
            assert fut.wait() is True
            assert kernel.now() == t0
            return fut.result()

        assert kernel.run_callable(main) == "x"

    def test_multiple_waiters_all_wake(self, kernel):
        woken = []

        def waiter(fut, name):
            fut.result()
            woken.append(name)

        def main():
            fut = kernel.create_future()
            procs = [kernel.spawn(waiter, fut, f"w{i}") for i in range(3)]
            kernel.sleep(1.0)
            fut.set_result(None)
            for p in procs:
                p.join()

        kernel.run_callable(main)
        assert sorted(woken) == ["w0", "w1", "w2"]

    def test_done_callback(self, kernel):
        fired = []

        def main():
            fut = kernel.create_future()
            fut.add_done_callback(lambda f: fired.append(f.result(0)))
            fut.set_result(5)
            kernel.sleep(0.001)

        kernel.run_callable(main)
        assert fired == [5]


class TestChannel:
    def test_fifo_order(self, kernel):
        def main():
            ch = kernel.create_channel()
            for i in range(5):
                ch.put(i)
            return [ch.get() for _ in range(5)]

        assert kernel.run_callable(main) == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, kernel):
        def producer(ch):
            kernel.sleep(3.0)
            ch.put("item")

        def main():
            ch = kernel.create_channel()
            kernel.spawn(producer, ch)
            value = ch.get()
            return value, kernel.now()

        value, t = kernel.run_callable(main)
        assert value == "item"
        assert t == pytest.approx(3.0)

    def test_get_timeout(self, kernel):
        def main():
            ch = kernel.create_channel()
            with pytest.raises(WaitTimeout):
                ch.get(timeout=1.0)
            return kernel.now()

        assert kernel.run_callable(main) == pytest.approx(1.0)

    def test_len(self, kernel):
        def main():
            ch = kernel.create_channel()
            ch.put(1)
            ch.put(2)
            assert len(ch) == 2
            ch.get()
            assert len(ch) == 1

        kernel.run_callable(main)

    def test_two_consumers_share_items(self, kernel):
        got = []

        def consumer(ch, name):
            got.append((name, ch.get()))

        def main():
            ch = kernel.create_channel()
            p1 = kernel.spawn(consumer, ch, "c1")
            p2 = kernel.spawn(consumer, ch, "c2")
            kernel.sleep(1.0)
            ch.put("a")
            ch.put("b")
            p1.join()
            p2.join()

        kernel.run_callable(main)
        assert sorted(item for _, item in got) == ["a", "b"]

    def test_timed_get_woken_by_its_timeout_leaves_no_waiter(self, kernel):
        """The put at 1.5 wakes the patient getter, but the timed getter's
        timeout (due at 1.5 as well) runs first and takes "a".  Its waiter
        entry must go with it: left behind, it is what the put at 2.5
        wakes, and the patient getter sleeps forever beside "b"."""
        got = []

        def patient(ch):
            got.append(("patient", ch.get()))

        def timed(ch):
            kernel.sleep(0.5)
            got.append(("timed", ch.get(timeout=1.0)))

        def producer(ch):
            kernel.sleep(1.5)
            ch.put("a")
            kernel.sleep(1.0)
            ch.put("b")

        def main():
            ch = kernel.create_channel()
            procs = [kernel.spawn(f, ch) for f in (patient, timed, producer)]
            for proc in procs:
                proc.join()
            return kernel.now()

        assert kernel.run_callable(main) == pytest.approx(2.5)
        assert sorted(got) == [("patient", "b"), ("timed", "a")]


class TestSemaphore:
    def test_mutual_exclusion(self, kernel):
        active = {"count": 0, "max": 0}

        def worker(sem):
            with sem:
                active["count"] += 1
                active["max"] = max(active["max"], active["count"])
                kernel.sleep(1.0)
                active["count"] -= 1

        def main():
            sem = kernel.create_semaphore(2)
            procs = [kernel.spawn(worker, sem) for _ in range(6)]
            for p in procs:
                p.join()
            return kernel.now()

        # 6 workers, 2 at a time, 1s each -> 3s
        assert kernel.run_callable(main) == pytest.approx(3.0)
        assert active["max"] == 2

    def test_acquire_timeout(self, kernel):
        def main():
            sem = kernel.create_semaphore(0)
            with pytest.raises(WaitTimeout):
                sem.acquire(timeout=2.0)
            return kernel.now()

        assert kernel.run_callable(main) == pytest.approx(2.0)

    def test_timed_acquire_woken_by_its_timeout_leaves_no_waiter(
        self, kernel
    ):
        """The semaphore twin of the channel case: a timed acquire that
        takes a permit on its timeout wake must not leave its waiter
        entry for the next release to wake."""
        got = []

        def patient(sem):
            sem.acquire()
            got.append(("patient", kernel.now()))

        def timed(sem):
            kernel.sleep(0.5)
            sem.acquire(timeout=1.0)
            got.append(("timed", kernel.now()))

        def releaser(sem):
            kernel.sleep(1.5)
            sem.release()
            kernel.sleep(1.0)
            sem.release()

        def main():
            sem = kernel.create_semaphore(0)
            procs = [kernel.spawn(f, sem) for f in (patient, timed, releaser)]
            for proc in procs:
                proc.join()

        kernel.run_callable(main)
        assert sorted(got) == [("patient", 2.5), ("timed", 1.5)]


class TestSchedulerSafety:
    def test_deadlock_detected(self):
        # The hang is the point of this test: build the kernel without
        # any ambient symsan sanitizer so a REPRO_SAN=1 run doesn't
        # report it as a finding.
        from repro.sanitizer import NULL_SANITIZER, sanitizing

        with sanitizing(NULL_SANITIZER):
            kernel = VirtualKernel()

        def main():
            fut = kernel.create_future()
            fut.result()  # nobody will ever set it

        proc = kernel.spawn(main)
        with pytest.raises(SimDeadlockError, match="wait-for graph"):
            kernel.run(main=proc)

    def test_cannot_schedule_in_past(self, kernel):
        def main():
            kernel.sleep(5.0)
            kernel.call_at(1.0, lambda: None)

        with pytest.raises(KernelError):
            kernel.run_callable(main)

    def test_run_not_reentrant(self, kernel):
        def main():
            kernel.run()

        with pytest.raises(KernelError):
            kernel.run_callable(main)

    def test_call_soon_runs_in_order(self, kernel):
        order = []

        def main():
            kernel.call_soon(order.append, 1)
            kernel.call_soon(order.append, 2)
            kernel.sleep(0.001)

        kernel.run_callable(main)
        assert order == [1, 2]


class TestWorkerPool:
    def test_population_stays_bounded(self, dedicated_testbed, monkeypatch):
        """Processes are reaped and threads reused: a long run of calls
        leaves neither a process nor a thread per call behind."""
        kernel = dedicated_testbed.kernel
        spawn, peak = kernel.spawn, [0]

        def counting_spawn(*args, **kwargs):
            proc = spawn(*args, **kwargs)
            peak[0] = max(peak[0], len(kernel.processes))
            return proc

        monkeypatch.setattr(kernel, "spawn", counting_spawn)

        def app():
            JSRegistration()
            node = Node("rachel")
            cb = JSCodebase()
            cb.add(Counter)
            cb.load(node)
            obj = JSObj("Counter", node)
            early = kernel.spawn(lambda x: 2 * x, 21)
            early.join()
            live, threads = len(kernel.processes), threading.active_count()
            peak[0] = live
            # Deliberately one synchronous round trip after the other:
            # a handler process per message, each finished before the
            # next starts, is the population being counted.
            for _ in range(1000):
                # symlint: disable-next-line=remote-invoke-in-loop
                obj.sinvoke("incr")
            handles = [obj.ainvoke("incr") for _ in range(200)]
            assert [h.get_result() for h in handles][-1] == 1200
            assert len(kernel.processes) == live
            assert 200 <= peak[0] - live < 1200
            assert threading.active_count() - threads <= peak[0] - live
            # a handle kept across all that still answers, payload gone
            early.join()
            assert early.result() == 42
            assert early._args is None and early._thread is None
            assert early.pid not in kernel.processes

        dedicated_testbed.run_app(app)

    def test_reused_worker_starts_with_the_spawners_span_context(self, kernel):
        """A process spawned from scheduler context has no span context,
        whatever its worker's previous process left installed."""
        seen = []

        def traced():
            # what Tracer.end_span(restore=False) leaves behind on purpose
            spans.set_context(spans.TraceContext("trace", "span"))
            seen.append(threading.current_thread())

        def from_scheduler():
            seen.extend([threading.current_thread(), spans.current_context()])

        def main():
            kernel.spawn(traced).join()
            kernel.call_soon(kernel.spawn, from_scheduler)
            kernel.sleep(1.0)

        kernel.run_callable(main)
        assert seen[0] is seen[1]  # same worker: the hazard is exercised
        assert seen[2] is None

    def test_worker_survives_a_crashing_body(self):
        kernel = VirtualKernel()
        seen = []

        def body(crash):
            seen.append(threading.current_thread())
            if crash:
                raise ValueError("boom")
            return 7

        def main():
            kernel.spawn(body, True).join()
            proc = kernel.spawn(body, False)
            proc.join()
            return proc.result()

        assert kernel.run_callable(main) == 7
        assert seen[0] is seen[1] and seen[0].is_alive()
        assert [type(exc) for _, exc in kernel.crashes] == [ValueError]


class TestSelfWake:
    """A process whose own wake is the next runnable carries on without
    handing control to anyone — but only when the scheduler would have
    resumed it."""

    @staticmethod
    def _count_switches(kernel, monkeypatch):
        switches, hand_off = [], kernel._hand_off

        def counting(proc):
            switches.append(proc.name)
            hand_off(proc)

        monkeypatch.setattr(kernel, "_hand_off", counting)
        return switches

    def test_lone_process_never_switches(self, kernel, monkeypatch):
        switches = self._count_switches(kernel, monkeypatch)

        def main():
            for _ in range(3):
                kernel.sleep(1.0)
            # a timeout that is the next event fires, at the right time
            assert kernel.create_future().wait(timeout=2.0) is False
            return kernel.now()

        assert kernel.run_callable(main) == pytest.approx(5.0)
        assert switches == ["main"]  # its start, nothing else

    def test_honours_until(self, kernel, monkeypatch):
        switches = self._count_switches(kernel, monkeypatch)
        woke = []

        def sleeper():
            kernel.sleep(1.0)
            kernel.sleep(4.0)  # next event, but beyond run(until=2)
            woke.append(kernel.now())

        kernel.spawn(sleeper, name="sleeper")
        kernel.run(until=2.0)
        assert woke == [] and kernel.now() == pytest.approx(2.0)
        assert switches == ["sleeper"]
        kernel.run()
        assert woke == [pytest.approx(5.0)]
        assert switches == ["sleeper", "sleeper"]


class TestBaton:
    """The thread that gives up control runs the scheduler step itself;
    run()'s thread only decides what happens when nothing may run."""

    def test_call_event_error_reaches_run(self, kernel):
        boom = ValueError("boom")

        def raise_boom():
            raise boom

        def main():
            kernel.spawn(kernel.create_future().wait, name="parked")
            kernel.call_at(1.0, raise_boom)
            kernel.sleep(5.0)  # the call event runs while this blocks

        with pytest.raises(ValueError) as info:
            kernel.run_callable(main)
        assert info.value is boom
        assert kernel.now() == 1.0 and kernel.current_process() is None

    def test_ping_pong_leaves_the_scheduler_asleep(self, kernel):
        wakes = []

        class CountingGate(type(kernel._sched_gate)):
            def wait(self, timeout=-1):
                wakes.append(super().wait(timeout))
                return wakes[-1]

        kernel._sched_gate = CountingGate()
        rounds = 200
        pings = [kernel.create_future() for _ in range(rounds)]
        pongs = [kernel.create_future() for _ in range(rounds)]

        def ping():
            for i in range(rounds):
                pings[i].set_result(i)
                pongs[i].result()

        def pong():
            for i in range(rounds):
                pongs[i].set_result(pings[i].result())

        kernel.spawn(pong, name="pong")
        kernel.run(main=kernel.spawn(ping, name="ping"))
        assert pongs[-1].result() == rounds - 1
        assert len(wakes) <= 2  # one per run(), not one per resume

    def test_long_baton_chain_is_no_stall(self, kernel, monkeypatch):
        monkeypatch.setattr(virtual, "_SWITCH_TIMEOUT", 0.2)
        start = time.monotonic()
        deadline = start + 0.7

        def ticker():
            while time.monotonic() < deadline:
                kernel.sleep(1.0)

        kernel.spawn(ticker, name="even")
        kernel.spawn(ticker, name="odd", delay=0.5)
        kernel.run()
        assert time.monotonic() - start >= 0.7

    @pytest.mark.parametrize("outside", ["event", "lock"])
    def test_parked_outside_the_kernel_is_detected(
        self, kernel, monkeypatch, outside
    ):
        """A process that blocks outside the kernel's primitives keeps
        the baton: nothing else runs, and run() names it in a stall
        error.  ``lock`` is a ``threading.Lock`` held across
        ``kernel.sleep`` and then asked for by a second process — the
        hazard the retired ``rpc-under-lock`` rule linted for."""
        monkeypatch.setattr(virtual, "_SWITCH_TIMEOUT", 0.2)
        if outside == "event":
            event = threading.Event()
            proc = kernel.spawn(event.wait, name="stuck")
            release = event.set
        else:
            lock = threading.Lock()

            def holder():
                lock.acquire()
                kernel.sleep(1.0)

            def contender():
                with lock:
                    pass

            kernel.spawn(holder, name="holder")
            proc = kernel.spawn(contender, name="stuck", delay=0.5)
            release = lock.release
        with pytest.raises(KernelError, match="while stuck ran"):
            kernel.run(main=proc)
        release()  # let the worker finish before the kernel is swept
        deadline = time.monotonic() + 5.0
        while not proc.finished and time.monotonic() < deadline:
            time.sleep(0.01)

    def test_only_the_kernel_constructs_threading_primitives(self):
        """Baton passing is the runtime's one synchronisation: outside
        ``kernel/virtual.py`` no module of ``repro`` builds a lock, an
        event, a condition, a semaphore, a barrier or a thread
        (``threading.local`` and ``get_ident`` are fine)."""
        import ast
        import os

        from tests.conftest import PACKAGE_DIR

        banned = {"Lock", "RLock", "Event", "Semaphore",
                  "BoundedSemaphore", "Condition", "Thread", "Barrier"}
        sites = []
        for root, _dirs, names in os.walk(PACKAGE_DIR):
            for name in sorted(n for n in names if n.endswith(".py")):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                rel = os.path.relpath(path, PACKAGE_DIR)
                for node in ast.walk(tree):
                    if isinstance(node, ast.ImportFrom) \
                            and node.module == "threading":
                        sites += [(rel, node.lineno) for alias in node.names
                                  if alias.name in banned]
                    elif isinstance(node, ast.Call) \
                            and isinstance(node.func, ast.Attribute) \
                            and isinstance(node.func.value, ast.Name) \
                            and node.func.value.id == "threading" \
                            and node.func.attr in banned:
                        sites.append((rel, node.lineno))
        assert sites, "the kernel's own gates and workers went missing"
        assert {rel for rel, _line in sites} == {
            os.path.join("kernel", "virtual.py")}

    def test_call_event_runs_in_scheduler_context(self, kernel):
        """Whichever thread runs a callback, it sees no current process
        and the span context run()'s thread has, and what it installs
        stays there; the process it ran beside keeps its own."""
        outer = spans.TraceContext("trace", "outer")
        own = spans.TraceContext("trace", "own")
        left = spans.TraceContext("trace", "left")
        seen = {}

        def callback():
            seen["proc"] = kernel.current_process()
            seen["ctx"] = spans.set_context(left)

        def main():
            spans.set_context(own)
            kernel.call_soon(callback)
            kernel.sleep(1.0)
            seen["resumed"] = spans.current_context()

        previous = spans.set_context(outer)
        try:
            kernel.run_callable(main)
            after = spans.current_context()
        finally:
            spans.set_context(previous)
        assert seen == {"proc": None, "ctx": outer, "resumed": own}
        assert after is left


@jsclass
class Snoop:
    """Reports what its method sees of the thread it runs on."""

    def look(self):
        return (threading.get_ident(), repro_context.current() is None,
                spans.current_context())


class TestCallerHosted:
    """A process spawned ``completes=F`` runs on the thread of a process
    that waits untimed for ``F`` and is the one to pop its start."""

    def test_steady_state_sinvoke_opens_no_gate(
        self, dedicated_testbed, monkeypatch
    ):
        """The caller hosts the handler, and the reply's wake is its own:
        a sync call hands control to no other thread (two gates a call
        before).  A call that a background agent's tick interrupts is set
        aside: the agent may pop the handler's start, which then goes to
        a worker, as a start popped by any thread but the caller's does."""
        kernel = dedicated_testbed.kernel
        switches = TestSelfWake._count_switches(kernel, monkeypatch)
        per_call = []

        def one_call(obj):
            switches.clear()
            obj.sinvoke("incr")
            per_call.append(list(switches))

        def app():
            JSRegistration()
            node = Node("rachel")
            codebase = JSCodebase()
            codebase.add(Counter)
            codebase.load(node)
            obj = JSObj("Counter", node)
            for _ in range(20):
                one_call(obj)
            return obj.sinvoke("get")

        assert dedicated_testbed.run_app(app) == 20
        background = [s for s in per_call if any(
            n != "jsa" and not n.startswith("handle-") for n in s)]
        assert len(background) <= 2
        assert [s for s in per_call if s not in background] == (
            [[]] * (20 - len(background)))

    def test_a_remote_method_gets_thread_locals_of_its_own(self):
        """On its caller's thread a remote method sees no ``Environment``
        and its own span context; the caller finds both as it left them."""
        with tracing(Tracer()):
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=3))

        def app():
            JSRegistration()
            codebase = JSCodebase()
            codebase.add(Snoop)
            codebase.load(Node("rachel"))
            obj = JSObj("Snoop", "rachel")
            env, ctx = repro_context.current(), spans.current_context()
            ident, no_env, inside = obj.sinvoke("look")
            assert ident == threading.get_ident()  # hosted, not a worker
            assert no_env
            assert inside is not None and inside != ctx
            assert repro_context.current() is env and env is not None
            assert spans.current_context() == ctx

        runtime.run_app(app, node="milena")

    def test_the_host_gets_its_thread_locals_back(self, kernel):
        """What a guest leaves installed stays with the guest: here the
        span context an ``end_span(restore=False)`` leaves behind."""
        own = spans.TraceContext("trace", "host")
        env = repro_context.Environment()
        seen = {}

        def guest(fut):
            seen["guest"] = (threading.get_ident(), repro_context.current(),
                             spans.current_context())
            spans.set_context(spans.TraceContext("trace", "left"))
            fut.set_result(None)

        def main():
            spans.set_context(own)
            with repro_context.scoped(env):
                fut = kernel.create_future()
                kernel.spawn(guest, fut, name="guest", completes=fut)
                fut.result()
                seen["host"] = (threading.get_ident(),
                                repro_context.current(),
                                spans.current_context())

        kernel.run_callable(main)
        ident = seen["host"][0]
        assert seen["guest"] == (ident, None, None)  # spawned untraced
        assert seen["host"] == (ident, env, own)

    def test_a_caller_with_a_timeout_hosts_nothing(self):
        shell = ShellConfig(rpc_timeout=30.0)
        runtime = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=3, shell=shell))

        def app():
            JSRegistration()
            codebase = JSCodebase()
            codebase.add(Snoop)
            codebase.load(Node("rachel"))
            ident, no_env, _ = JSObj("Snoop", "rachel").sinvoke("look")
            return ident != threading.get_ident() and no_env

        assert runtime.run_app(app, node="milena")

    @pytest.mark.parametrize("breach", ["blocks after", "completed by another"])
    def test_a_broken_promise_raises(self, kernel, breach):
        """Either half of the promise broken: the host's wake is popped
        while its thread is inside the guest.  run() says so, naming both,
        rather than resume the wrong body or sleep forever."""

        def guest(fut):
            if breach == "blocks after":
                fut.set_result("done")
            kernel.sleep(5.0)

        def main():
            fut = kernel.create_future()
            kernel.spawn(guest, fut, name="guest", completes=fut)
            if breach == "completed by another":
                kernel.call_at(1.0, fut.set_result, "intruder")
            return fut.result()

        with pytest.raises(KernelError, match="main woke while hosting guest"):
            kernel.run_callable(main)

    def test_shutdown_unwinds_a_parked_guest_and_its_host(self, monkeypatch):
        """A handler asleep on its caller's thread: shutdown unwinds the
        handler, then the caller it runs under, and the one worker goes
        back to the pool holding neither."""
        from repro.simnet import SimWorld, build_lan, make_host
        from repro.transport import Addr, Transport

        seen = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: seen.append(args.exc_value))
        kernel = VirtualKernel()
        world = SimWorld(kernel, seed=0)
        build_lan(world, fast_hosts=[make_host("u1", "Ultra10/440"),
                                     make_host("u2", "Ultra10/300")])
        transport = Transport(world)
        unwound = []

        def slow(msg):
            try:
                kernel.sleep(1000.0)
            finally:
                unwound.append("handler")

        transport.create_endpoint(Addr("u2", "srv")).register("SLOW", slow)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            try:
                client.rpc(Addr("u2", "srv"), "SLOW")
            finally:
                unwound.append("caller")

        kernel.spawn(main, name="main")
        kernel.run(until=10.0)
        assert [p.name for p in kernel.processes.values()] == [
            "main", "handle-SLOW@u2"]
        procs = list(kernel.processes.values())
        (worker,) = kernel._workers  # the handler has no thread of its own
        kernel.shutdown()
        assert seen == []
        assert unwound == ["handler", "caller"]
        assert [p.state.value for p in procs] == ["failed"] * 2
        assert kernel.crashes == []
        assert worker in virtual._POOL and worker.thread.is_alive()
        assert worker.proc is None and worker.kernel is None

    def test_guest_and_host_keep_their_own_sanitizer_identities(self):
        """The guest acts under an identity of its own, ordered with its
        host by the spawn and the future; so an unordered write by a
        third process still races the guest's."""
        san = Sanitizer()
        ids = {}
        with sanitizing(san):
            kernel = VirtualKernel(strict=True)

            def write(cell):
                san.access("Table", cell, scope=kernel)

            def other():
                write("shared")
                kernel.sleep(5.0)

            def guest(fut):
                ids["guest"] = san.identity()
                ids["guest thread"] = threading.get_ident()
                write("shared")
                write("handoff")
                fut.set_result(None)

            def main():
                ids["before"] = san.identity()
                write("handoff")
                fut = kernel.create_future()
                kernel.spawn(guest, fut, name="guest", completes=fut)
                fut.result()
                write("handoff")
                ids["after"] = san.identity()
                ids["main thread"] = threading.get_ident()

            kernel.spawn(other, name="other")
            try:
                kernel.run(main=kernel.spawn(main, name="main"))
            finally:
                kernel.shutdown()
        assert ids["guest thread"] == ids["main thread"]
        assert ids["before"] == ids["after"] != ids["guest"]
        (finding,) = san.report().findings
        assert finding.rule == "san-race"
        assert "Table.shared" in finding.message
        assert "guest writes" in finding.message
        assert "other wrote" in finding.message


class TestEventOrderPinned:
    """The kernel's one promise is the event order ``(time, seq)``.  A
    seeded soup over every primitive logs ``(now, process, step)``; the
    digest below was recorded on the thread-per-process kernel and any
    scheduling change (worker pool, self-wake, ...) must reproduce it."""

    DIGEST = (88, "b776326622f650981eb762d94d7bb80cf389638c2906d38d52d9549a"
                  "cd74b566")
    PREFIX = [
        (0.0, "sem-0", "acquired"),
        (0.0, "sem-1", "acquired"),
        (0.0, "caller", "scheduled"),
        (0.0, "sleeper-1", "slept 0.0"),
        (0.0, "sleeper-2", "slept 0.0"),
        (0.0, "sleeper-4", "slept 0.0"),
        (0.0, "sleeper-5", "slept 0.0"),
        (0.0, "<sched>", "soon-1"),
        (0.0, "<sched>", "soon-2"),
        (0.0, "sleeper-4", "slept 0.0"),
        (0.0, "<run>", "until 0.0"),
        (0.125, "nest", "depth 2"),
        (0.125, "nest.0", "depth 1"),
        (0.125, "nest", "after sleep(0)"),
        (0.125, "nest.0.0", "depth 0"),
        (0.125, "nest.0", "after sleep(0)"),
        (0.25, "sleeper-6", "slept 0.25"),
        (0.25, "waiter-1", "wait False"),
        (0.25, "sem-2", "gave up"),
        (0.3, "<run>", "until 0.3"),
    ]

    @staticmethod
    def _soup():
        import random

        kernel = VirtualKernel()
        rng = random.Random(2021)
        log = []

        def note(step):
            proc = kernel.current_process()
            who = proc.name if proc is not None else "<sched>"
            log.append((round(kernel.now(), 9), who, step))

        def sleeper(naps):
            for nap in naps:
                kernel.sleep(nap)
                note(f"slept {nap}")

        def setter(fut, at, value):
            kernel.sleep(at)
            note("set")
            fut.set_result(value)

        def waiter(fut, timeout):
            note(f"wait {fut.wait(timeout)}")
            try:
                note(f"result {fut.result(timeout)}")
            except WaitTimeout:
                note("result timed out")

        def producer(chan, gaps):
            for i, gap in enumerate(gaps):
                kernel.sleep(gap)
                chan.put(i)
                note(f"put {i}")

        def consumer(chan, timeout, count):
            for _ in range(count):
                try:
                    note(f"got {chan.get(timeout=timeout)}")
                except WaitTimeout:
                    note("get timed out")

        def contender(sem, hold, patience):
            try:
                sem.acquire(timeout=patience)
            except WaitTimeout:
                note("gave up")
                return
            note("acquired")
            kernel.sleep(hold)
            sem.release()
            note("released")

        def nester(depth):
            note(f"depth {depth}")
            if depth:
                for k in range(2):
                    kernel.spawn(nester, depth - 1, delay=0.25 * k,
                                 name=f"{kernel.current_process().name}.{k}")
                kernel.sleep(0.0)
                note("after sleep(0)")

        def caller(fut):
            kernel.call_soon(note, "soon-1")
            kernel.call_at(kernel.now() + 0.5, fut.set_result, "by call_at")
            kernel.call_soon(note, "soon-2")
            note("scheduled")
            kernel.sleep(0.5)
            note(f"done={fut.done()}")

        def crasher():
            kernel.sleep(0.75)
            note("crashing")
            raise ValueError("boom")

        def joiner(proc, timeout):
            try:
                proc.join(timeout)
                note(f"joined {proc.name} {proc.state.value}")
            except WaitTimeout:
                note(f"join {proc.name} timed out")

        naps = [0.0, 0.25, 0.5, 0.5, 1.0]
        for i in range(8):
            kernel.spawn(sleeper, [rng.choice(naps) for _ in range(4)],
                         name=f"sleeper-{i}")
        futs = [kernel.create_future() for _ in range(4)]
        for i, fut in enumerate(futs[:3]):
            kernel.spawn(setter, fut, 0.5 * (i + 1), i, name=f"setter-{i}")
        # timeouts that fire before, exactly at, and never before the set
        for i, (fut, timeout) in enumerate(
                [(futs[0], None), (futs[0], 0.25), (futs[1], 1.0),
                 (futs[2], 2.0), (futs[3], 0.75)]):
            kernel.spawn(waiter, fut, timeout, name=f"waiter-{i}")
        chan = kernel.create_channel()
        kernel.spawn(producer, chan, [0.5, 0.0, 1.0, 0.25], name="producer")
        kernel.spawn(consumer, chan, 0.5, 4, name="consumer-0")
        kernel.spawn(consumer, chan, None, 1, name="consumer-1")
        sem = kernel.create_semaphore(2)
        for i, patience in enumerate([None, None, 0.25, 2.0, None]):
            kernel.spawn(contender, sem, 0.5, patience, name=f"sem-{i}")
        kernel.spawn(nester, 2, name="nest", delay=0.125)
        kernel.spawn(caller, kernel.create_future(), name="caller")
        crash = kernel.spawn(crasher, name="crasher")
        kernel.spawn(joiner, crash, None, name="joiner-0")
        kernel.spawn(joiner, crash, 0.5, name="joiner-1")
        for until in (0.0, 0.3, 0.5, 0.5, 1.3):
            kernel.run(until=until)
            log.append((round(kernel.now(), 9), "<run>", f"until {until}"))

        def main():
            note("main")
            kernel.sleep(10.0)  # alone on the heap by now
            note("main done")

        kernel.run(main=kernel.spawn(main, name="main"))
        log.append((round(kernel.now(), 9), "<run>", "main finished"))
        assert [type(exc) for _, exc in kernel.crashes] == [ValueError]
        kernel.shutdown()
        return log

    def test_event_order_is_pinned(self):
        import hashlib

        log = self._soup()
        assert log[:len(self.PREFIX)] == self.PREFIX
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        assert (len(log), digest) == self.DIGEST
