"""symsan, the kernel-level concurrency sanitizer.

Unit tests for the detectors (vector clocks, the race detector, the
leak registry) plus end-to-end runs of the seeded fixtures under
``sanitizing(...)``: an unordered-writers race, an all-blocked hang, and
the ``python -m repro san`` CLI.  Control tests pin the
zero-false-positive side: writers ordered by a kernel primitive produce
no findings.
"""

from __future__ import annotations

import importlib.util
import json
import re
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.base import Severity
from repro.cli import main as cli_main
from repro.errors import RPCTimeoutError, WaitTimeout
from repro.kernel import VirtualKernel
from repro.rmi.handle import ResultHandle
from repro.sanitizer import NULL_SANITIZER, SAN_RULES, Sanitizer, sanitizing
from repro.sanitizer.leaks import LeakRegistry
from repro.sanitizer.lockset import LocksetDetector, VectorClocks
from repro.simnet import SimWorld, build_lan, make_host
from repro.transport import Addr, Transport

FIXTURES = Path(__file__).parent / "fixtures" / "symsan"


def load_fixture(name: str):
    spec = importlib.util.spec_from_file_location(
        f"symsan_fixture_{name}", FIXTURES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rules_of(san: Sanitizer) -> list[str]:
    return [f.rule for f in san.report().findings]


class _Scope:
    """Weakref-able stand-in for a kernel as an access scope."""


# ---------------------------------------------------------------------------
# vector clocks
# ---------------------------------------------------------------------------


class TestVectorClocks:
    def test_unrelated_threads_are_unordered(self):
        clocks = VectorClocks()
        epoch = clocks.epoch(1)
        assert not clocks.ordered(1, epoch, 2)

    def test_send_recv_orders_across_threads(self):
        clocks = VectorClocks()
        epoch = clocks.epoch(1)
        box: dict[int, int] = {}
        clocks.send(1, box)
        clocks.recv(2, box)
        assert clocks.ordered(1, epoch, 2)

    def test_send_ticks_past_the_release(self):
        clocks = VectorClocks()
        box: dict[int, int] = {}
        clocks.send(1, box)
        clocks.recv(2, box)
        # events on thread 1 after the send are NOT ordered before 2
        assert not clocks.ordered(1, clocks.epoch(1), 2)

    def test_same_thread_always_ordered(self):
        clocks = VectorClocks()
        assert clocks.ordered(7, clocks.epoch(7), 7)


# ---------------------------------------------------------------------------
# race detector
# ---------------------------------------------------------------------------


class TestLocksetDetector:
    def access(self, det, tid, write=True, owner="O", field="f"):
        return det.access(owner, field, tid, write, ("t.py", 1))

    def test_same_thread_no_race(self):
        det = LocksetDetector()
        self.access(det, tid=1)
        assert self.access(det, tid=1) is None

    def test_read_read_no_race(self):
        det = LocksetDetector()
        self.access(det, tid=1, write=False)
        assert self.access(det, tid=2, write=False) is None

    def test_read_write_races(self):
        det = LocksetDetector()
        self.access(det, tid=1, write=False)
        assert self.access(det, tid=2, write=True) is not None

    def test_happens_before_suppresses(self):
        det = LocksetDetector()
        self.access(det, tid=1)
        box: dict[int, int] = {}
        det.clocks.send(1, box)
        det.clocks.recv(2, box)
        assert self.access(det, tid=2) is None

    def test_one_report_per_cell(self):
        det = LocksetDetector()
        self.access(det, tid=1)
        assert self.access(det, tid=2) is not None
        assert self.access(det, tid=3) is None
        # ... but a different cell reports independently
        self.access(det, tid=1, field="g")
        assert self.access(det, tid=2, field="g") is not None

    def test_owner_scoping_separates_worlds(self):
        det = LocksetDetector()
        self.access(det, tid=1, owner=(1, "T"))
        assert self.access(det, tid=2, owner=(2, "T")) is None
        assert self.access(det, tid=2, owner=(1, "T")) is not None


# ---------------------------------------------------------------------------
# Sanitizer.access: scopes, threads, reset
# ---------------------------------------------------------------------------


def access_in_threads(san: Sanitizer, calls: list[tuple]) -> None:
    """Make each ``(owner, field, scope)`` access as a process of its
    own: a fresh identity each (``register_thread``, as the kernel does
    when a process starts), one after another on this thread, which
    then acts under its own identity again.  The sanitizer is called by
    one thread at a time by contract, so no OS thread is started."""
    own = san.identity()
    for i, (owner, field, scope) in enumerate(calls):
        san.register_thread(f"proc-{i}")
        san.access(owner, field, scope=scope)
    san.swap_identity(own)


class TestSanitizerAccess:
    def test_unsynchronized_writes_race(self):
        san = Sanitizer()
        scope = _Scope()
        access_in_threads(
            san, [("T", "f", scope), ("T", "f", scope)]
        )
        findings = san.report().findings
        assert [f.rule for f in findings] == ["san-race"]
        assert findings[0].severity is Severity.ERROR
        assert "T.f" in findings[0].message

    def test_scopes_do_not_alias(self):
        san = Sanitizer()
        access_in_threads(
            san, [("T", "f", _Scope()), ("T", "f", _Scope())]
        )
        assert rules_of(san) == []

    def test_reset_context_forgets_history(self):
        san = Sanitizer()
        scope = _Scope()
        access_in_threads(san, [("T", "f", scope)])
        san.reset_context()
        san.access("T", "f", scope=scope)  # main thread, fresh epoch
        assert rules_of(san) == []

    def test_without_reset_the_same_pattern_races(self):
        san = Sanitizer()
        scope = _Scope()
        access_in_threads(san, [("T", "f", scope)])
        san.access("T", "f", scope=scope)
        assert rules_of(san) == ["san-race"]

    def test_reset_context_keeps_findings(self):
        san = Sanitizer()
        scope = _Scope()
        access_in_threads(
            san, [("T", "f", scope), ("T", "f", scope)]
        )
        san.reset_context()
        assert rules_of(san) == ["san-race"]


# ---------------------------------------------------------------------------
# leak registry / shutdown checks
# ---------------------------------------------------------------------------


class TestLeaks:
    def test_future_and_handle_leaks_reported(self):
        san = Sanitizer(leaks=True)
        with sanitizing(san):
            kernel = VirtualKernel()
            kernel.create_future()  # never completed
            ResultHandle(kernel.create_future())  # never awaited
            kernel.shutdown()
        rules = rules_of(san)
        assert rules.count("san-leak-future") == 1
        assert rules.count("san-leak-handle") == 1
        # creation sites point at this test, not kernel internals
        for f in san.report().findings:
            assert f.path.endswith("test_symsan.py")
            assert f.severity is Severity.WARNING

    @pytest.mark.parametrize("peer", ["crashed", "slow"])
    def test_timed_out_reply_is_no_leak(self, peer):
        """A timed call that gets no reply in time fails its reply future
        with the timeout it raises.  To a crashed host the request is
        lost, and the future used to stay pending for good; a reply that
        lands after the timeout is ignored."""
        san = Sanitizer(leaks=True)
        with sanitizing(san):
            world = SimWorld(VirtualKernel(), seed=0)
            build_lan(world, fast_hosts=[make_host("u1", "Ultra10/440"),
                                         make_host("u2", "Ultra10/300")])
            transport = Transport(world)
            server = transport.create_endpoint(Addr("u2", "srv"))
            server.register("PING", lambda msg: world.kernel.sleep(2.0))
            client = transport.create_endpoint(Addr("u1", "cli"))
            if peer == "crashed":
                world.fail_host("u2")

            def main():
                with pytest.raises(RPCTimeoutError):
                    client.rpc(Addr("u2", "srv"), "PING", timeout=1.0)
                world.kernel.sleep(5.0)  # past any late reply

            try:
                world.kernel.run_callable(main)
            finally:
                world.kernel.shutdown()
        assert rules_of(san) == []

    def test_stranded_channel_getter_reported(self):
        san = Sanitizer(leaks=True)
        with sanitizing(san):
            kernel = VirtualKernel()
            chan = kernel.create_channel()

            def getter():
                chan.get()  # no put will ever arrive

            kernel.spawn(getter, name="getter")
            kernel.run()
            kernel.shutdown()
        (finding,) = san.report().findings
        assert finding.rule == "san-leak-channel"
        assert finding.symbol == "VirtualChannel"
        assert "getter was still blocked in VirtualChannel.get()" in (
            finding.message)
        assert finding.path.endswith("test_symsan.py")

    def test_completed_and_awaited_are_not_leaks(self):
        san = Sanitizer(leaks=True)
        with sanitizing(san):
            kernel = VirtualKernel()
            fut = kernel.create_future()
            fut.set_result(1)
            done = kernel.create_future()
            done.set_result(2)
            handle = ResultHandle(done)
            assert handle.get_result() == 2
            kernel.shutdown()
        assert rules_of(san) == []

    def test_polling_does_not_suppress_handle_leak(self):
        # Regression: is_ready() used to call handle_awaited, so a single
        # poll silently untracked the handle and the leak vanished.
        san = Sanitizer(leaks=True)
        with sanitizing(san):
            kernel = VirtualKernel()
            done = kernel.create_future()
            done.set_result(1)
            handle = ResultHandle(done)
            assert handle.is_ready()  # polled, never awaited
            kernel.shutdown()
        assert rules_of(san) == ["san-leak-handle"]
        (finding,) = san.report().findings
        assert "polled with is_ready() but never awaited" in finding.message

    def test_poll_then_await_is_not_a_leak(self):
        san = Sanitizer(leaks=True)
        with sanitizing(san):
            kernel = VirtualKernel()
            done = kernel.create_future()
            done.set_result(3)
            handle = ResultHandle(done)
            assert handle.is_ready()
            assert handle.get_result() == 3
            kernel.shutdown()
        assert rules_of(san) == []

    def test_poll_reports_to_the_sanitizer_chosen_at_construction(self):
        # A handle made with no sanitizer installed is on no tracker's
        # books, so a poll after one is installed has nothing to report.
        kernel = VirtualKernel()
        done = kernel.create_future()
        done.set_result(4)
        handle = ResultHandle(done)
        san = Sanitizer(leaks=True)
        polled = []
        san.handle_polled = polled.append
        with sanitizing(san):
            assert handle.is_ready()
        assert polled == []
        assert rules_of(san) == []
        assert handle.get_result() == 4
        kernel.shutdown()

    def test_handle_reports_to_its_sanitizer_after_uninstall(self):
        # The poll and the await reach the sanitizer that tracked the
        # handle, not whichever one is installed when they happen.
        san = Sanitizer(leaks=True)
        with sanitizing(san):
            kernel = VirtualKernel()
            done = kernel.create_future()
            done.set_result(5)
            handle = ResultHandle(done)
        assert handle.is_ready()
        assert handle.get_result() == 5
        kernel.shutdown()
        assert rules_of(san) == []

    def test_leaks_off_by_default(self):
        san = Sanitizer()
        with sanitizing(san):
            kernel = VirtualKernel()
            kernel.create_future()
            kernel.shutdown()
        assert rules_of(san) == []

    def test_stranded_channel_getter_unit(self):
        registry = LeakRegistry()
        kernel = _Scope()
        registry.chan_wait(123, kernel, ("app.py", 7))
        leaks = registry.collect(kernel, lambda tid: f"t{tid}")
        assert [leak[0] for leak in leaks] == ["san-leak-channel"]
        rule, message, site, symbol = leaks[0]
        assert "t123" in message
        assert site == ("app.py", 7)
        # pruned: a second shutdown does not re-report
        assert registry.collect(kernel, str) == []

    def test_other_kernels_leaks_untouched(self):
        registry = LeakRegistry()
        mine, other = _Scope(), _Scope()
        registry.track_future(object(), other, ("x.py", 1))
        assert registry.collect(mine, str) == []
        assert [leak[0] for leak in registry.collect(other, str)] == [
            "san-leak-future"
        ]


# ---------------------------------------------------------------------------
# seeded fixtures, end to end
# ---------------------------------------------------------------------------


class TestSeededFixtures:
    def test_unlocked_table_race_detected(self):
        san = Sanitizer()
        with sanitizing(san):
            load_fixture("seeded_race").main()
        findings = [
            f for f in san.report().findings if f.rule == "san-race"
        ]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert "BuggyTable.objects[shared]" in finding.message
        assert "writer-" in finding.message  # thread names registered
        assert finding.path.endswith("seeded_race.py")

    def test_locked_variant_is_clean(self):
        """The seeded race's two writers, ordered by a semaphore: each
        acquire receives the clock the last release published."""
        san = Sanitizer()
        with sanitizing(san):
            kernel = VirtualKernel()
            mutex = kernel.create_semaphore(1)
            table: dict[str, str] = {}

            def store(tag):
                for _ in range(5):
                    with mutex:
                        san.access("GoodTable", "objects[shared]",
                                   scope=kernel)
                        table["shared"] = tag
                    kernel.sleep(0.1)

            def root():
                procs = [
                    kernel.spawn(store, tag, name=f"w-{tag}")
                    for tag in ("a", "b")
                ]
                for p in procs:
                    p.join()

            try:
                kernel.run_callable(root)
            finally:
                kernel.shutdown()
        assert rules_of(san) == []

    @pytest.mark.parametrize("via", ["future", "channel", "call", "none"])
    def test_handoff_is_clean(self, via):
        """No common lock, but a future, a channel item or a call event
        orders the two writes; with no hand-off they race."""
        san = Sanitizer()
        with sanitizing(san):
            kernel = VirtualKernel()

            def root():
                table: dict[str, str] = {}
                fut = kernel.create_future()
                chan = kernel.create_channel()
                publish, receive = {
                    "future": (lambda: fut.set_result(True),
                               lambda: fut.result(timeout=5.0)),
                    "channel": (lambda: chan.put(True),
                                lambda: chan.get(timeout=5.0)),
                    # the call event, not the process, completes fut
                    "call": (lambda: kernel.call_soon(fut.set_result, True),
                             lambda: fut.result(timeout=5.0)),
                    "none": (lambda: None, lambda: kernel.sleep(1.0)),
                }[via]

                def first():
                    san.access("Handoff", "cell", scope=kernel)
                    table["cell"] = "a"
                    publish()

                def second():
                    receive()
                    san.access("Handoff", "cell", scope=kernel)
                    table["cell"] = "b"

                p1 = kernel.spawn(first, name="first")
                p2 = kernel.spawn(second, name="second")
                p1.join()
                p2.join()

            try:
                kernel.run_callable(root)
            finally:
                kernel.shutdown()
        assert rules_of(san) == (["san-race"] if via == "none" else [])

    @pytest.mark.parametrize("finished_first", [False, True],
                             ids=["joins-running", "joins-finished"])
    def test_join_orders_the_body_before_the_joiner(self, finished_first):
        """What a joined process wrote, its joiner may read: a join is a
        happens-before edge, also when the body finished before anyone
        asked to join it."""
        san = Sanitizer()
        with sanitizing(san):
            kernel = VirtualKernel(strict=True)
            table: dict[str, str] = {}

            def child():
                san.access("Joined", "cell", scope=kernel)
                table["cell"] = "child"
                if not finished_first:
                    kernel.sleep(1.0)

            def root():
                proc = kernel.spawn(child, name="child")
                if finished_first:
                    kernel.sleep(1.0)
                    assert proc.finished
                proc.join()
                san.access("Joined", "cell", write=False, scope=kernel)
                return table["cell"]

            try:
                assert kernel.run_callable(root) == "child"
            finally:
                kernel.shutdown()
        assert rules_of(san) == []

    @pytest.mark.parametrize("parked_between", [False, True])
    def test_consecutive_processes_are_distinct_threads(self, parked_between):
        """Two unordered writers that run one after the other.  They may
        share an OS thread (a pooled worker; before the pool, a recycled
        ident) and must still be told apart: symsan identifies a process,
        not the thread it happens to run on."""
        san = Sanitizer()
        with sanitizing(san):
            kernel = VirtualKernel(strict=True)
            table: dict[str, str] = {}

            def write(tag):
                san.access("Table", "cell", scope=kernel)
                table["cell"] = tag

            def root():
                kernel.spawn(write, "a", name="w-a")
                kernel.sleep(1.0)
                if parked_between:
                    kernel.spawn(kernel.sleep, 100.0, name="parked")
                kernel.spawn(write, "b", name="w-b")
                kernel.sleep(1.0)

            try:
                kernel.run_callable(root)
            finally:
                kernel.shutdown()
        assert rules_of(san) == ["san-race"]
        message = san.report().findings[0].message
        assert "w-b writes" in message and "w-a wrote" in message

    def test_call_event_races_under_the_schedulers_identity(self):
        """A callback is scheduler context whichever thread runs it.  Here
        it runs while the writer is blocked — on the writer's own thread,
        in a kernel that lets a blocking process run the scheduler step —
        and its write still races the writer's, named as run()'s thread.
        Under the writer's identity the two writes would be one thread's
        and the race would vanish."""
        san = Sanitizer()
        with sanitizing(san):
            kernel = VirtualKernel(strict=True)
            table: dict[str, str] = {}

            def write(tag):
                san.access("Table", "cell", scope=kernel)
                table["cell"] = tag

            def writer():
                write("process")
                kernel.sleep(5.0)

            kernel.call_at(1.0, write, "callback")
            try:
                kernel.run(main=kernel.spawn(writer, name="writer"))
            finally:
                kernel.shutdown()
        assert rules_of(san) == ["san-race"]
        message = san.report().findings[0].message
        assert f"thread-{threading.get_ident()} writes" in message
        assert "writer wrote" in message

    def test_register_thread_gives_a_fresh_identity(self):
        san = Sanitizer()
        scope = _Scope()
        san.register_thread("first")
        san.access("T", "f", scope=scope)
        san.register_thread("second")  # same OS thread, a new process
        san.access("T", "f", scope=scope)
        assert rules_of(san) == ["san-race"]
        assert "second writes" in san.report().findings[0].message
        san.reset_context()
        san.access("T", "f", scope=scope)  # unregistered again: OS ident
        assert len(san.findings) == 1

    def test_all_blocked_hang_reported(self):
        san = Sanitizer()
        with sanitizing(san):
            load_fixture("seeded_all_blocked").main()
        findings = [
            f for f in san.report().findings
            if f.rule == "san-all-blocked"
        ]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert "stuck-main" in finding.message
        assert "wait-for graph" in finding.message
        assert finding.symbol == "VirtualKernel"


# ---------------------------------------------------------------------------
# wall-clock sleeps in kernel processes
# ---------------------------------------------------------------------------


def _nap():
    time.sleep(0.001)


#: the line of ``_nap``'s raw sleep
NAP_LINE = _nap.__code__.co_firstlineno + 1


class TestWallSleep:
    """A raw ``time.sleep`` one call away from a kernel process holds
    the baton while virtual time stands still.  Each test uses its own
    sanitizer, so a deliberate finding stays out of a session-wide one."""

    @staticmethod
    def _wall_sleeps(san):
        return [f for f in san.report().findings
                if f.rule == "san-wall-sleep"]

    def test_a_spawned_process_is_named(self):
        with sanitizing() as san:
            kernel = VirtualKernel()

            def worker():
                _nap()
                kernel.sleep(1.0)

            kernel.spawn(worker, name="napper")
            kernel.run()
        (finding,) = self._wall_sleeps(san)
        assert finding.severity is Severity.WARNING
        assert finding.symbol == "napper"
        assert "napper" in finding.message
        assert (finding.path, finding.line) == (__file__, NAP_LINE)

    def test_a_caller_hosted_handler_is_named(self):
        with sanitizing() as san:
            kernel = VirtualKernel()
            threads = []

            def handler(fut):
                threads.append(threading.get_ident())
                _nap()
                fut.set_result(None)

            def caller():
                threads.append(threading.get_ident())
                fut = kernel.create_future()
                kernel.spawn(handler, fut, name="handler", completes=fut)
                fut.result()

            kernel.run_callable(caller, name="caller")
        assert threads[0] == threads[1]  # hosted on the caller's thread
        (finding,) = self._wall_sleeps(san)
        assert finding.symbol == "handler"
        assert finding.line == NAP_LINE

    def test_kernel_sleep_is_not_reported(self):
        with sanitizing() as san:
            kernel = VirtualKernel()
            kernel.run_callable(kernel.sleep, 5.0)
        assert self._wall_sleeps(san) == []

    def test_time_sleep_is_wrapped_only_inside_a_sanitized_run(self):
        original = time.sleep
        seen = []

        def look():
            seen.append(time.sleep)

        with sanitizing(NULL_SANITIZER):
            kernel = VirtualKernel()
            kernel.run_callable(look)
        assert seen == [original] and time.sleep is original
        with sanitizing():
            kernel = VirtualKernel()
            kernel.run_callable(look)
            assert seen[1] is not original
            assert time.sleep is original

            def boom():
                raise RuntimeError("boom")

            kernel = VirtualKernel()
            kernel.call_soon(boom)
            with pytest.raises(RuntimeError, match="boom"):
                kernel.run()
            assert time.sleep is original


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------


class TestReport:
    def test_rules_have_severities(self):
        assert SAN_RULES["san-race"] is Severity.ERROR
        assert SAN_RULES["san-all-blocked"] is Severity.ERROR
        assert SAN_RULES["san-leak-future"] is Severity.WARNING
        assert SAN_RULES["san-leak-handle"] is Severity.WARNING
        assert SAN_RULES["san-leak-channel"] is Severity.WARNING
        assert SAN_RULES["san-wall-sleep"] is Severity.WARNING

    def test_report_shares_symlint_schema(self):
        san = Sanitizer()
        scope = _Scope()
        access_in_threads(
            san, [("T", "f", scope), ("T", "f", scope)]
        )
        report = san.report()
        data = report.to_dict()
        assert data["version"] == 1
        assert data["summary"]["error"] == 1
        assert data["findings"][0]["rule"] == "san-race"

    def test_findings_capped(self):
        san = Sanitizer()
        cap = Sanitizer.MAX_FINDINGS
        for i in range(cap + 3):
            san.note_all_blocked(_Scope(), f"dump-{i}", ("x.py", i + 1))
        assert len(san.report().findings) == cap
        assert san.overflow == 3

    def test_report_is_sorted_and_deduped(self):
        san = Sanitizer()
        san.note_all_blocked(_Scope(), "dump", ("b.py", 2))
        san.note_all_blocked(_Scope(), "dump", ("a.py", 9))
        san.note_all_blocked(_Scope(), "dump", ("b.py", 2))
        findings = san.report().findings
        assert [(f.path, f.line) for f in findings] == [
            ("a.py", 9), ("b.py", 2),
        ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_san_cli_reports_seeded_race(self, tmp_path, capsys):
        report_path = tmp_path / "symsan.json"
        rc = cli_main([
            "san", str(FIXTURES / "cli_race.py"),
            "--report", str(report_path),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "san-race" in out
        assert "1 errors)\n" in out  # nothing past the cap, no suffix
        data = json.loads(report_path.read_text())
        assert any(
            f["rule"] == "san-race" for f in data["findings"]
        )
        assert data["summary"]["error"] == 1

    def test_san_cli_counts_findings_past_the_cap(self, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(Sanitizer, "MAX_FINDINGS", 0)
        cli_main(["san", str(FIXTURES / "cli_race.py")])
        summary = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(
            r"symsan: 0 findings \(0 errors\) \(\+[1-9]\d* past the cap\)",
            summary), summary

    def test_san_cli_unknown_target(self, capsys):
        assert cli_main(["san", "no/such/script.py"]) == 2
        assert "no such sanitize target" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# kernel edges: semaphore timeout, shutdown with a blocked process
# ---------------------------------------------------------------------------


class TestKernelEdges:
    def test_semaphore_acquire_timeout(self):
        kernel = VirtualKernel()

        def main():
            sem = kernel.create_semaphore(1)
            sem.acquire()
            with pytest.raises(WaitTimeout):
                sem.acquire(timeout=0.5)
            sem.release()
            sem.acquire(timeout=0.5)  # free again: no timeout
            return "ok"

        try:
            assert kernel.run_callable(main) == "ok"
        finally:
            kernel.shutdown()

    def test_shutdown_with_process_blocked_on_semaphore(self):
        kernel = VirtualKernel()
        sem = kernel.create_semaphore(1)
        outcome = []

        def blocked():
            # far beyond the run: the process is parked at shutdown
            try:
                sem.acquire(timeout=600.0)
            except WaitTimeout:
                outcome.append("timed out")

        def root():
            sem.acquire()
            proc = kernel.spawn(blocked, name="parked")
            kernel.sleep(1.0)
            return proc

        parked = kernel.run_callable(root)
        assert parked.state.value == "blocked"
        kernel.shutdown()  # must return despite the parked process
        assert kernel._shutting_down
        assert not parked._thread.is_alive()
        assert outcome == []


# ---------------------------------------------------------------------------
# the construction seam: a sanitizing kernel beside the plain one
# ---------------------------------------------------------------------------


class TestConstructionSeam:
    def test_kernel_built_under_a_sanitizer_sanitizes(self):
        from repro.sanitizer.kernel import SanitizedKernel

        with sanitizing(NULL_SANITIZER):
            plain = VirtualKernel()
        with sanitizing() as san:
            sanitized = VirtualKernel()
        assert type(plain) is VirtualKernel
        assert type(sanitized) is SanitizedKernel
        assert isinstance(sanitized, VirtualKernel)
        assert plain.sanitizer is NULL_SANITIZER
        assert sanitized.sanitizer is san

    def test_plain_kernel_names_no_sanitizer_hook(self):
        """The plain kernel calls no hook: every one is a sanitizing
        subclass's, in ``repro.sanitizer.kernel``."""
        import ast
        import inspect

        from repro.kernel import virtual

        hooks = {
            name for name, _ in inspect.getmembers(Sanitizer, callable)
            if not name.startswith("_")
        }
        names = set()
        for node in ast.walk(ast.parse(inspect.getsource(virtual))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.alias)):
                names.add(node.name)
        assert sorted(hooks & names) == []
