"""Regression tests for the transport's reply path.

Covers the reply-leg bugs fixed alongside the obs subsystem: remote
exceptions crossing the wire by reference, unpicklable handler
exceptions stranding the caller, reply traffic invisible in by-kind
stats, reply drops conflated with request drops, and the per-host-pair
FIFO table outliving host failures — and a request argument that
pickles at send but does not unpickle at delivery.
"""

import pickle
import threading

import pytest

from repro.core import JSCodebase, JSObj, JSRegistration
from repro.errors import (
    RemoteInvocationError,
    RPCTimeoutError,
    WaitTimeout,
)
from repro.kernel import VirtualKernel
from repro.simnet import SimWorld, build_lan, make_host
from repro.transport import Addr, Transport
from repro.transport.rpc import RemoteError
from tests.conftest import Echo, Odd


@pytest.fixture()
def world():
    w = SimWorld(VirtualKernel(strict=True), seed=0)
    build_lan(
        w,
        fast_hosts=[make_host("u1", "Ultra10/440"),
                    make_host("u2", "Ultra10/300")],
        slow_hosts=[make_host("s1", "SS4/110")],
    )
    return w


@pytest.fixture()
def transport(world):
    return Transport(world)


class UnpicklableError(Exception):
    """Carries a thread lock, so pickle refuses it."""

    def __init__(self, message):
        super().__init__(message)
        self.guard = threading.Lock()


class TestReplyCopySemantics:
    def test_remote_exception_is_a_copy(self, world, transport):
        """The handler's exception instance must not be the caller's."""
        thrown = {}
        ep = transport.create_endpoint(Addr("u2", "srv"))

        def boom(msg):
            exc = ValueError("mutable state", {"count": 1})
            thrown["exc"] = exc
            raise exc

        ep.register("BOOM", boom)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RemoteInvocationError) as err:
                client.rpc(Addr("u2", "srv"), "BOOM")
            return err.value.cause

        cause = world.kernel.run_callable(main)
        assert isinstance(cause, ValueError)
        assert cause is not thrown["exc"]
        assert cause.args == thrown["exc"].args

    def test_unpicklable_exception_degrades_gracefully(
        self, world, transport
    ):
        """An unpicklable handler exception surfaces as a picklable
        RemoteInvocationError carrying the repr — not by reference, and
        not as a caller-side timeout."""
        ep = transport.create_endpoint(Addr("u2", "srv"))

        def boom(msg):
            raise UnpicklableError("cannot serialize me")

        ep.register("BOOM", boom)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RemoteInvocationError) as err:
                client.rpc(Addr("u2", "srv"), "BOOM", timeout=30.0)
            return err.value

        exc = world.kernel.run_callable(main)
        assert not isinstance(exc, UnpicklableError)
        assert "UnpicklableError" in str(exc)
        assert "cannot serialize me" in str(exc)
        pickle.loads(pickle.dumps(exc))  # round-trips

    def test_unpicklable_result_degrades_gracefully(self, world, transport):
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("LOCK", lambda msg: threading.Lock())
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RemoteInvocationError) as err:
                client.rpc(Addr("u2", "srv"), "LOCK", timeout=30.0)
            return str(err.value)

        assert "unpicklable" in world.kernel.run_callable(main)

    def test_remote_invocation_error_not_double_wrapped(
        self, world, transport
    ):
        ep = transport.create_endpoint(Addr("u2", "srv"))

        def boom(msg):
            raise RemoteInvocationError("already caller-facing")

        ep.register("BOOM", boom)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RemoteInvocationError) as err:
                client.rpc(Addr("u2", "srv"), "BOOM")
            return err.value

        exc = world.kernel.run_callable(main)
        assert "already caller-facing" in str(exc)
        assert getattr(exc, "cause", None) is None


class TestSendEncodesFirst:
    """An argument is flattened when it is sent, in the sender: what
    cannot be flattened fails there, before anything is counted."""

    def test_unpicklable_inside_nominal_payload_fails_in_caller(
        self, world, transport
    ):
        """The nominal size made ``sizeof`` skip ``Payload.data``, so the
        lock passed ``send`` and the pickling error came out of
        ``_deliver`` on the scheduler, aborting ``kernel.run``."""
        from repro.util.serialization import Payload

        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(TypeError, match="pickle"):
                client.rpc(
                    Addr("u2", "srv"), "ECHO",
                    Payload(data=threading.Lock(), nbytes=10),
                )
            world.kernel.sleep(1.0)  # nothing is in flight to blow up
            return client.rpc(Addr("u2", "srv"), "ECHO", "after")

        assert world.kernel.run_callable(main) == "after"

    @pytest.mark.parametrize("how", ["rpc", "rpc_async", "send_oneway"])
    def test_failed_send_is_not_counted(self, world, transport, how):
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            client.rpc(Addr("u2", "srv"), "ECHO", "warm")
            stats = transport.stats
            before = (stats.messages, stats.rpcs, stats.oneways,
                      dict(stats.by_kind), stats.bytes_total)
            with pytest.raises(TypeError, match="pickle"):
                getattr(client, how)(
                    Addr("u2", "srv"), "ECHO", [1, threading.Lock()]
                )
            world.kernel.sleep(1.0)
            return before

        before = world.kernel.run_callable(main)
        stats = transport.stats
        assert (stats.messages, stats.rpcs, stats.oneways,
                dict(stats.by_kind), stats.bytes_total) == before

    def test_oneway_sees_the_value_as_sent(self, world, transport):
        """Send-time snapshot: mutating the argument after
        ``send_oneway`` returns, before the kernel advances, does not
        reach the callee."""
        seen = []
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("STORE", lambda msg: seen.append(msg.payload))
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            items = [1, 2, 3]
            client.send_oneway(Addr("u2", "srv"), "STORE", items)
            items.append("late")
            world.kernel.sleep(1.0)

        world.kernel.run_callable(main)
        assert seen == [[1, 2, 3]]


class TestUndecodableRequest:
    """The request was decoded on the scheduler, so the ``TypeError``
    came out of ``kernel.run`` and killed the whole run.  (A one-way
    call's loss is a row of ``tests/test_transport_legs.py``'s drop
    table.)"""

    def test_two_way_caller_gets_a_typed_error(self, world, transport):
        ran = []
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: ran.append(msg) or msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RemoteInvocationError) as err:
                client.rpc(Addr("u2", "srv"), "ECHO", [Odd(1, 2)],
                           timeout=30.0)
            return str(err.value), client.rpc(Addr("u2", "srv"), "ECHO", "ok")

        message, after = world.kernel.run_callable(main)
        assert "could not be decoded" in message and "TypeError" in message
        assert after == "ok" and len(ran) == 1
        assert transport.stats.dropped == 0

    def test_sinvoke_raises_in_the_application(self, dedicated_testbed):
        def app():
            registration = JSRegistration()
            codebase = JSCodebase()
            codebase.add(Echo)
            codebase.load(["rachel"])
            obj = JSObj("Echo", "rachel")
            with pytest.raises(RemoteInvocationError):
                obj.sinvoke("echo", [Odd(1, 2)])
            value = obj.sinvoke("echo", ["still here"])
            registration.unregister()
            return value

        assert dedicated_testbed.run_app(app) == "still here"


class TestOnePicklePerLeg:
    def test_rpc_pickles_and_unpickles_once_per_leg(
        self, world, transport, monkeypatch
    ):
        """Request: one ``dumps`` at send, one ``loads`` at delivery;
        reply: one of each in the handler process.  Counted through the
        module-level names, as the perfbench ledger does."""
        from repro.util import serialization as ser

        calls = {"dumps": 0, "loads": 0}

        def counting(name, fn):
            def wrapper(arg):
                calls[name] += 1
                return fn(arg)
            return wrapper

        monkeypatch.setattr(ser, "dumps", counting("dumps", ser.dumps))
        monkeypatch.setattr(ser, "loads", counting("loads", ser.loads))
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))
        argument = [[0.5] * 4096, b"x" * 65536]

        def main():
            return client.rpc(Addr("u2", "srv"), "ECHO", argument)

        assert world.kernel.run_callable(main) == argument
        assert calls == {"dumps": 2, "loads": 2}


class TestReplyStats:
    def test_replies_counted_by_kind(self, world, transport):
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            for _ in range(3):
                client.rpc(Addr("u2", "srv"), "ECHO", "x")
            client.send_oneway(Addr("u2", "srv"), "ECHO", "y")
            world.kernel.sleep(1.0)

        world.kernel.run_callable(main)
        assert transport.stats.by_kind["ECHO"] == 4
        # One-way sends produce no reply leg.
        assert transport.stats.by_kind["ECHO:reply"] == 3

    def test_reply_drop_counted_separately(self, world, transport):
        """A reply dropped because the *caller's* host failed must land
        in dropped_replies, not dropped_requests."""
        ep = transport.create_endpoint(Addr("u2", "srv"))

        def slow(msg):
            world.kernel.sleep(2.0)
            return "done"

        ep.register("SLOW", slow)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            reply = client.rpc_async(Addr("u2", "srv"), "SLOW")
            world.kernel.sleep(0.5)
            world.fail_host("u1")  # caller dies while handler runs
            world.kernel.sleep(5.0)
            return reply

        world.kernel.run_callable(main)
        assert transport.stats.dropped_replies == 1
        assert transport.stats.dropped_requests == 0
        assert transport.stats.dropped == 1  # aggregate view still works

    def test_request_drop_counted_separately(self, world, transport):
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            world.fail_host("u2")
            with pytest.raises(RPCTimeoutError):
                client.rpc(Addr("u2", "srv"), "ECHO", "x", timeout=1.0)

        world.kernel.run_callable(main)
        assert transport.stats.dropped_requests == 1
        assert transport.stats.dropped_replies == 0


class TestFifoTablePruning:
    def test_failure_prunes_host_pairs(self, world, transport):
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            client.rpc(Addr("u2", "srv"), "ECHO", "x")
            assert any(
                "u2" in pair for pair in transport._last_delivery
            )
            world.fail_host("u2")
            assert not any(
                "u2" in pair for pair in transport._last_delivery
            )
            # Unrelated pairs survive.
            client.send_oneway(Addr("s1", "cli2"), "NOP")
            world.fail_host("u2")  # re-fail: must not touch (u1, s1)
            assert any(
                "s1" in pair for pair in transport._last_delivery
            )

        world.kernel.run_callable(main)

    def test_recovered_host_not_delayed_by_stale_floor(self, world):
        """Behavioral check: after failure + recovery, the first message
        to the recovered host must not queue behind a pre-crash delivery
        floor."""
        transport = Transport(world)
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            # A large send pushes the (u1, u2) FIFO floor far out.
            client.send_oneway(Addr("u2", "srv"), "ECHO", b"x" * 5_000_000)
            world.fail_host("u2")
            world.kernel.sleep(0.01)
            world.restore_host("u2")
            t0 = world.now()
            client.rpc(Addr("u2", "srv"), "ECHO", "tiny", timeout=30.0)
            return world.now() - t0

        rtt = world.kernel.run_callable(main)
        # A tiny message on a 100 Mbit switch takes ~ms; the stale floor
        # from the 5 MB transfer would have held it ~0.4 s.
        assert rtt < 0.1

    def test_unregister_prunes_when_last_endpoint_leaves(
        self, world, transport
    ):
        ep = transport.create_endpoint(Addr("u2", "srv"))
        ep.register("ECHO", lambda msg: msg.payload)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            client.rpc(Addr("u2", "srv"), "ECHO", "x")
            ep.close()

        world.kernel.run_callable(main)
        assert not any("u2" in pair for pair in transport._last_delivery)


class TestErrorSurfaceConsistency:
    def test_result_handle_and_rpc_raise_same_family(self, world, transport):
        """Satellite S4: both caller surfaces translate kernel timeouts
        into RPCTimeoutError (see also tests/test_edge_cases.py)."""
        from repro.rmi.handle import ResultHandle

        def main():
            future = world.kernel.create_future()
            handle = ResultHandle(future)
            with pytest.raises(RPCTimeoutError) as err:
                handle.get_result(timeout=0.5)
            assert not isinstance(err.value, WaitTimeout)

        world.kernel.run_callable(main)

    def test_remote_error_reply_roundtrips_node_failed(
        self, world, transport
    ):
        """RemoteError now round-trips like any result; NodeFailedError
        raised by a handler still surfaces as itself."""
        from repro.errors import NodeFailedError

        ep = transport.create_endpoint(Addr("u2", "srv"))

        def compute_on_dead(msg):
            world.fail_host("s1")
            world.compute("s1", 1000.0)

        ep.register("DEAD", compute_on_dead)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(NodeFailedError):
                client.rpc(Addr("u2", "srv"), "DEAD", timeout=30.0)

        world.kernel.run_callable(main)


def test_remote_error_dataclass_still_exposed():
    """The wire marker type stays importable for tooling/tests."""
    err = RemoteError(exc=ValueError("x"), where=Addr("h", "a"))
    assert err.where.host == "h"
