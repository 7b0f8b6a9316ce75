"""Kernel shutdown: blocked processes must be reaped.

Reaped means the body unwound (its ``finally`` ran, it ended ``failed``,
no crash was recorded) and the worker it ran on is back in the
process-wide pool, alive, holding no process and no kernel.
"""

import gc
import os
import threading
import time
import weakref

import pytest

from repro.errors import KernelError
from repro.kernel import VirtualKernel, virtual
from repro.obs import spans


def assert_pooled(threads):
    """Each of ``threads`` is a live worker parked in the pool, holding
    nothing of the kernel it served."""
    pooled = {worker.thread: worker for worker in virtual._POOL}
    for thread in threads:
        worker = pooled[thread]
        assert thread.is_alive()
        assert worker.proc is None and worker.kernel is None


class TestVirtualShutdown:
    def test_reaps_blocked_threads(self):
        kernel = VirtualKernel()
        unwound = []

        def looper(i):
            try:
                while True:
                    kernel.sleep(1.0)
            finally:
                unwound.append(i)

        procs = [kernel.spawn(looper, i) for i in range(5)]
        kernel.run(until=10.0)
        threads = [p._thread for p in procs]
        assert all(t.is_alive() for t in threads)
        kernel.shutdown()
        assert unwound == [0, 1, 2, 3, 4]
        assert [p.state.value for p in procs] == ["failed"] * 5
        assert kernel.crashes == []
        assert_pooled(threads)

    def test_idempotent(self):
        kernel = VirtualKernel()
        kernel.spawn(lambda: kernel.sleep(100.0))
        kernel.run(until=1.0)
        kernel.shutdown()
        kernel.shutdown()  # no error

    def test_idle_workers_are_joined(self):
        def workers():
            return sum(t.name.startswith("vworker-")
                       for t in threading.enumerate())

        kernel = VirtualKernel()

        def main():
            for proc in [kernel.spawn(kernel.sleep, 1.0) for _ in range(4)]:
                proc.join()

        kernel.run_callable(main)
        assert len(kernel.processes) == 0
        held = list(kernel._workers)
        assert len(held) == 5 and len(kernel._idle) == 5  # all idle, parked
        baseline = workers()
        kernel.shutdown()
        assert workers() == baseline  # pooled, not exited
        assert kernel._workers == [] and kernel._idle == []
        assert_pooled([worker.thread for worker in held])
        assert len(kernel.processes) == 0
        kernel.shutdown()  # still a no-op

    def test_shutdown_does_not_mark_crashes(self):
        kernel = VirtualKernel(strict=True)

        def looper():
            while True:
                kernel.sleep(1.0)

        kernel.spawn(looper)
        kernel.run(until=5.0)
        kernel.shutdown()
        assert kernel.crashes == []

    def test_processes_blocked_on_futures_are_reaped(self):
        kernel = VirtualKernel()
        unwound = []

        def waiter():
            try:
                kernel.create_future().result()  # blocks forever
            finally:
                unwound.append("waiter")

        proc = kernel.spawn(waiter)
        kernel.run(until=1.0)
        assert proc._thread.is_alive()
        kernel.shutdown()
        assert unwound == ["waiter"]
        assert proc.state.value == "failed" and kernel.crashes == []
        assert_pooled([proc._thread])

    def test_handlers_that_swallow_the_shutdown_exit_quietly(
        self, monkeypatch
    ):
        """A request handler's process catches ``BaseException`` (to ship
        it to the caller), so it swallows the shutdown signal and returns.
        Its worker used to pass the baton anyway and release run()'s gate
        once more: ``RuntimeError('release unlocked lock')`` per handler
        after the first, and that first worker parked for good."""
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
        server = transport.create_endpoint(Addr("u2", "srv"))
        server.register("SLOW", lambda msg: kernel.sleep(1000.0))
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            for _ in range(3):
                client.rpc_async(Addr("u2", "srv"), "SLOW")

        kernel.spawn(main)
        kernel.run(until=10.0)
        handlers = list(kernel.processes.values())
        assert len(handlers) == 3  # all three handlers asleep
        threads = [worker.thread for worker in kernel._workers]
        kernel.shutdown()
        assert seen == []
        assert [p.state.value for p in handlers] == ["failed"] * 3
        assert kernel.crashes == []
        assert_pooled(threads)

    def test_loopers_exit_on_next_sleep(self):
        """A looper that catches ``Exception`` around its sleep still
        unwinds: the shutdown signal is no ``Exception``, and a sleep in
        its ``finally`` raises it again instead of parking."""
        kernel = VirtualKernel()
        unwound = []

        def looper(name):
            try:
                while True:
                    try:
                        kernel.sleep(1.0)
                    except Exception:  # noqa: BLE001 - what apps write
                        continue
            finally:
                unwound.append(name)
                kernel.sleep(1.0)  # raises at once: shutting down

        procs = [kernel.spawn(looper, i) for i in range(3)]
        kernel.run(until=5.5)
        kernel.shutdown()
        assert unwound == [0, 1, 2]
        assert [p.state.value for p in procs] == ["failed"] * 3
        assert kernel.crashes == []
        assert_pooled([p._thread for p in procs])

    def test_shutdown_not_a_crash(self):
        """Unwinding is no crash: a strict kernel records none, and the
        unwound processes end in the failed state."""
        kernel = VirtualKernel(strict=True)

        def looper():
            while True:
                kernel.sleep(1.0)

        procs = [kernel.spawn(looper) for _ in range(3)]
        kernel.run(until=5.0)
        kernel.shutdown()
        assert kernel.crashes == []
        assert [p.state.value for p in procs] == ["failed"] * 3

    def test_blocked_bodies_unwind_one_at_a_time(self):
        """Shutdown unwinds one worker, joins it, then opens the next
        gate: ``finally:`` clauses of blocked bodies never overlap, so
        repro code keeps running on one thread at a time.  Opening every
        gate before joining any interleaved the three clauses."""
        kernel = VirtualKernel()
        log = []

        def sleeper(name):
            try:
                kernel.sleep(100.0)
            finally:
                log.append(("enter", name))
                time.sleep(0.02)  # wall clock: room for a second thread
                log.append(("exit", name))

        for name in ("a", "b", "c"):
            kernel.spawn(sleeper, name, name=name)
        kernel.run(until=1.0)
        kernel.shutdown()
        assert [step for step, _ in log] == ["enter", "exit"] * 3
        assert [name for _, name in log[::2]] == [
            name for _, name in log[1::2]]

    def test_cannot_shutdown_running_kernel(self):
        kernel = VirtualKernel()

        def main():
            kernel.shutdown()

        proc = kernel.spawn(main)
        kernel.run(main=proc)
        with pytest.raises(KernelError):
            proc.result()


class TestWorkerPool:
    """Workers outlive their kernel: shutdown hands each to the
    process-wide pool, and the next kernel takes them from there."""

    @staticmethod
    def workload(kernel):
        """Idle workers and workers parked in blocked bodies at the end."""
        def looper():
            while True:
                kernel.sleep(1.0)

        def main():
            for _ in range(3):
                kernel.spawn(looper)
            for proc in [kernel.spawn(kernel.sleep, 1.0) for _ in range(4)]:
                proc.join()

        kernel.spawn(main)
        kernel.run(until=10.0)

    def test_a_second_kernel_starts_no_thread(self, monkeypatch):
        first = VirtualKernel()
        self.workload(first)
        first.shutdown()
        starts = []
        start = threading.Thread.start

        def counting(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        second = VirtualKernel()
        self.workload(second)
        assert len(second._workers) == 8
        second.shutdown()
        assert starts == []

    def test_shut_down_kernel_and_unwound_processes_are_collectable(
        self, monkeypatch
    ):
        from repro.sanitizer import NULL_SANITIZER, core

        # Also under REPRO_SAN=1: this is about the pool.
        monkeypatch.setattr(core, "_current", NULL_SANITIZER)
        kernel = VirtualKernel()
        self.workload(kernel)
        procs = list(kernel.processes.values())
        assert len(procs) == 3 and len(kernel._idle) == 5
        kernel.shutdown()
        refs = [weakref.ref(kernel)] + [weakref.ref(p) for p in procs]
        del kernel, procs
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

    def test_a_pooled_worker_carries_no_span_context(self, monkeypatch):
        """What a body left installed (``end_span(restore=False)`` does so
        on purpose) stays with the kernel it ran in: the next kernel's
        body starts on a thread with no span context."""
        first = VirtualKernel()

        def leave_context(seconds):
            spans.set_context(spans.TraceContext("leak", "span"))
            first.sleep(seconds)

        first.spawn(leave_context, 0.5)  # returns: its worker idles
        first.spawn(leave_context, 100.0)  # parked: unwound at shutdown
        first.run(until=1.0)
        left = {worker.thread for worker in first._workers}
        assert len(left) == 2 and len(first._idle) == 1
        first.shutdown()

        found = []
        run = virtual.VirtualProcess._run

        def probe(proc):
            found.append((threading.current_thread(),
                          spans.current_context()))
            return run(proc)

        monkeypatch.setattr(virtual.VirtualProcess, "_run", probe)
        second = VirtualKernel()
        for _ in range(2):
            second.spawn(second.sleep, 1.0)
        second.run()
        second.shutdown()
        assert {thread for thread, _ in found} == left  # reused: exercised
        assert [ctx for _, ctx in found] == [None, None]

    def test_a_forked_child_starts_with_an_empty_pool(self):
        """The child runs a kernel of its own to completion, and shuts
        down one it inherited without waiting for threads it lacks."""
        kernel = VirtualKernel()
        self.workload(kernel)
        kernel.shutdown()
        assert virtual._POOL  # the parent has pooled workers to inherit
        inherited = VirtualKernel()
        self.workload(inherited)  # holds 8 workers, 3 of them in loopers
        pid = os.fork()
        if pid == 0:  # the child: none of the parent's threads exist here
            code = 1
            try:
                empty = not virtual._POOL
                virtual._SWITCH_TIMEOUT = 5.0  # a dead worker stalls run()
                child = VirtualKernel()
                total = child.run_callable(
                    lambda: sum(child.spawn(lambda i=i: i).join() or i
                                for i in range(4)))
                child.shutdown()
                started = time.monotonic()
                inherited.shutdown()  # 5 s per worker if it waited
                quick = time.monotonic() - started < 1.0
                pooled = bool(virtual._POOL)  # the child's own workers
                code = 0 if empty and total == 6 and pooled and quick else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        inherited.shutdown()
        assert os.waitstatus_to_exitcode(status) == 0

    def test_an_overrunning_body_does_not_mis_pair_a_later_release(
        self, monkeypatch
    ):
        """Shutdown stops waiting for a body whose ``finally`` overruns
        the bound and goes on; that body's late release must not stand in
        for another worker's, in this kernel or in the next one to take
        the overrunning worker."""
        monkeypatch.setattr(virtual, "_RELEASE_TIMEOUT", 0.5)
        log = []

        def parked(kernel, name, seconds):
            try:
                kernel.sleep(100.0)
            finally:
                log.append(("enter", name))
                time.sleep(seconds)  # wall clock
                log.append(("exit", name))

        first = VirtualKernel()
        for name, seconds in (("a", 0.75), ("b", 0.35), ("c", 0.02)):
            first.spawn(parked, first, name, seconds)
        first.run(until=1.0)
        overrun = first._workers[0]
        first.shutdown()  # gives up on "a" after 0.5 s, while it sleeps
        deadline = time.monotonic() + 10.0
        while overrun not in virtual._POOL:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # "a" ran past the bound beside "b"; "c" waited for "b" itself
        assert log.index(("exit", "b")) < log.index(("enter", "c"))

        second = VirtualKernel()
        names = ("w", "x", "y", "z")
        for name in names:
            second.spawn(parked, second, name, 0.05)
        second.run(until=1.0)
        # some body unwinds after the one on the overrunning worker
        assert overrun in second._workers[:-1]
        del log[:]
        second.shutdown()
        assert log == [(step, name) for name in names
                       for step in ("enter", "exit")]

class TestRuntimeRelease:
    def test_dropped_runtime_is_collectable(self, monkeypatch):
        """A testbed that was built, run and dropped is garbage: nothing
        process-wide may keep it.  The shared ``NULL_SANITIZER`` used to
        collect one bound ``JSRuntime`` method per runtime ever built on
        a hook list that never fires and never shrinks."""
        import gc
        import weakref

        from repro.cluster import TestbedConfig, vienna_testbed
        from repro.kernel.virtual import shutdown_all_kernels
        from repro.sanitizer import NULL_SANITIZER, core

        # Also under REPRO_SAN=1: this is about the null sanitizer.
        monkeypatch.setattr(core, "_current", NULL_SANITIZER)
        dropped = []
        for seed in range(3):
            runtime = vienna_testbed(
                TestbedConfig(load_profile="dedicated", seed=seed)
            )
            assert runtime.run_app(lambda: 7) == 7
            dropped.append(weakref.ref(runtime))
            del runtime
        shutdown_all_kernels()
        gc.collect()
        assert [ref() for ref in dropped] == [None, None, None]
