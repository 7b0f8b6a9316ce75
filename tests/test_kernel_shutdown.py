"""Kernel shutdown: blocked process threads must be reaped."""

import threading
import time

import pytest

from repro.errors import KernelError
from repro.kernel import VirtualKernel


class TestVirtualShutdown:
    def test_reaps_blocked_threads(self):
        kernel = VirtualKernel()

        def looper():
            while True:
                kernel.sleep(1.0)

        procs = [kernel.spawn(looper) for _ in range(5)]
        kernel.run(until=10.0)
        threads = [p._thread for p in procs]
        assert all(t.is_alive() for t in threads)
        kernel.shutdown()
        assert all(not t.is_alive() for t in threads)

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

        baseline = workers()
        kernel = VirtualKernel()

        def main():
            for proc in [kernel.spawn(kernel.sleep, 1.0) for _ in range(4)]:
                proc.join()

        kernel.run_callable(main)
        assert len(kernel.processes) == 0
        assert workers() == baseline + 5  # all idle, all parked
        kernel.shutdown()
        assert workers() == baseline
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

        def waiter():
            kernel.create_future().result()  # blocks forever

        proc = kernel.spawn(waiter)
        kernel.run(until=1.0)
        assert proc._thread.is_alive()
        kernel.shutdown()
        assert not proc._thread.is_alive()

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
        assert len(kernel.processes) == 3  # all three handlers asleep
        threads = [worker.thread for worker in kernel._workers]
        kernel.shutdown()
        assert seen == []
        assert not any(t.is_alive() for t in threads)

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
        assert not any(p._thread.is_alive() for p in procs)

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
        hooks = len(NULL_SANITIZER.failure_hooks)
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
        assert len(NULL_SANITIZER.failure_hooks) == hooks
        assert [ref() for ref in dropped] == [None, None, None]
