"""Tests for the RPC transport layer."""

import pytest

from repro.errors import (
    RemoteInvocationError,
    RetriesExhaustedError,
    RPCTimeoutError,
    TransportError,
)
from repro.kernel import VirtualKernel
from repro.rmi.reliability import Retrier, RetryPolicy
from repro.simnet import SimWorld, build_lan, make_host
from repro.transport import Addr, Transport
from repro.util.serialization import Payload


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


def serve_echo(transport, host, agent="srv"):
    ep = transport.create_endpoint(Addr(host, agent))
    ep.register("ECHO", lambda msg: msg.payload)
    ep.register("FAIL", lambda msg: 1 / 0)

    def slow(msg):
        transport.world.kernel.sleep(msg.payload)
        return "slept"

    ep.register("SLOW", slow)
    return ep


class TestRPC:
    def test_echo_roundtrip(self, world, transport):
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            return client.rpc(Addr("u2", "srv"), "ECHO", {"x": 1})

        assert world.kernel.run_callable(main) == {"x": 1}

    def test_rpc_takes_network_time(self, world, transport):
        serve_echo(transport, "s1")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            client.rpc(Addr("s1", "srv"), "ECHO", b"x" * 500_000)
            return world.now()

        elapsed = world.kernel.run_callable(main)
        assert elapsed > 0.5  # ~0.5 MB over 10 Mbit, both ways

    def test_copy_semantics(self, world, transport):
        state = {"received": None}
        ep = transport.create_endpoint(Addr("u2", "srv"))

        def mutate(msg):
            msg.payload["key"] = "changed-remotely"
            state["received"] = msg.payload
            return msg.payload

        ep.register("MUT", mutate)
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            arg = {"key": "original"}
            result = client.rpc(Addr("u2", "srv"), "MUT", arg)
            return arg, result

        arg, result = world.kernel.run_callable(main)
        assert arg == {"key": "original"}  # caller copy untouched
        assert result == {"key": "changed-remotely"}
        assert state["received"] is not result  # reply was copied too

    def test_remote_exception_wrapped(self, world, transport):
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            client.rpc(Addr("u2", "srv"), "FAIL")

        proc = world.kernel.spawn(main)
        world.kernel.run(main=proc)
        with pytest.raises(RemoteInvocationError) as err:
            proc.result()
        assert isinstance(err.value.cause, ZeroDivisionError)

    def test_async_rpc_overlaps(self, world, transport):
        serve_echo(transport, "u2")
        serve_echo(transport, "s1")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            r1 = client.rpc_async(Addr("u2", "srv"), "SLOW", 2.0)
            r2 = client.rpc_async(Addr("s1", "srv"), "SLOW", 2.0)
            assert r1.result_or_timeout() == "slept"
            assert r2.result_or_timeout() == "slept"
            return world.now()

        # Overlapped: total well under 4 s.
        assert world.kernel.run_callable(main) < 3.0

    def test_oneway_does_not_block(self, world, transport):
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            client.send_oneway(Addr("u2", "srv"), "SLOW", 5.0)
            return world.now()

        assert world.kernel.run_callable(main) < 0.01

    def test_timeout_on_failed_host(self, world, transport):
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))
        world.fail_host("u2")

        def main():
            client.rpc(Addr("u2", "srv"), "ECHO", 1, timeout=3.0)

        proc = world.kernel.spawn(main)
        world.kernel.run(main=proc)
        with pytest.raises(RPCTimeoutError):
            proc.result()
        assert transport.stats.dropped >= 1

    def test_host_fails_mid_execution_drops_reply(self, world, transport):
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))
        world.schedule_failure("u2", at=1.0)

        def main():
            client.rpc(Addr("u2", "srv"), "SLOW", 5.0, timeout=10.0)

        proc = world.kernel.spawn(main)
        world.kernel.run(main=proc)
        with pytest.raises(RPCTimeoutError):
            proc.result()

    def test_unknown_kind_is_remote_error(self, world, transport):
        """A kind the destination never registered fails the call in the
        caller, naming the kind; the endpoint keeps serving the rest."""
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RemoteInvocationError, match="NO_SUCH_KIND"):
                client.rpc(Addr("u2", "srv"), "NO_SUCH_KIND")
            return client.rpc(Addr("u2", "srv"), "ECHO", 5)

        assert world.kernel.run_callable(main) == 5
        assert transport.stats.by_kind == {
            "NO_SUCH_KIND": 1, "NO_SUCH_KIND:reply": 1,
            "ECHO": 1, "ECHO:reply": 1,
        }

    @pytest.mark.parametrize("policy, stop", [
        (RetryPolicy(max_attempts=3, attempt_timeout=0.5, jitter=0),
         "after 3 attempt(s)"),
        (RetryPolicy(max_attempts=10, attempt_timeout=0.5, jitter=0,
                     deadline=1.2),
         "after 3 attempt(s) (deadline exceeded)"),
    ], ids=["max_attempts", "deadline"])
    def test_retry_loop_is_bounded(self, world, transport, policy, stop):
        """A peer that never answers in time exhausts the retrier; it
        does not spin.  Three 0.5 s attempts and the 0.05 + 0.1 s
        backoffs between them, plus the three requests' send time."""
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))
        transport.retrier = Retrier(transport, policy)

        def main():
            with pytest.raises(RetriesExhaustedError) as err:
                client.rpc(Addr("u2", "srv"), "SLOW", 1.0)
            elapsed = world.now()
            world.kernel.sleep(1.0)  # the abandoned handlers finish
            return err.value, elapsed

        exc, elapsed = world.kernel.run_callable(main)
        assert str(exc).endswith(stop)
        assert [a.attempt for a in exc.attempts] == [1, 2, 3]
        assert transport.stats.by_kind["SLOW"] == 3
        assert elapsed > 3 * 0.5 + 0.05 + 0.1
        assert elapsed == pytest.approx(1.6513, abs=1e-4)

    def test_message_to_unregistered_endpoint_dropped(self, world, transport):
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RPCTimeoutError):
                client.rpc(Addr("u2", "ghost"), "ECHO", 1, timeout=2.0)

        world.kernel.run_callable(main)
        assert transport.stats.dropped >= 1

    def test_nominal_payload_drives_cost(self, world, transport):
        serve_echo(transport, "s1")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def timed(payload):
            t0 = world.now()
            client.rpc(Addr("s1", "srv"), "ECHO", payload)
            return world.now() - t0

        def main():
            small = timed(Payload(data=None, nbytes=1_000))
            big = timed(Payload(data=None, nbytes=2_000_000))
            return small, big

        small, big = world.kernel.run_callable(main)
        assert big > 100 * small

    def test_duplicate_endpoint_rejected(self, transport):
        transport.create_endpoint(Addr("u1", "x"))
        with pytest.raises(TransportError):
            transport.create_endpoint(Addr("u1", "x"))

    def test_closed_endpoint_drops(self, world, transport):
        ep = serve_echo(transport, "u2")
        ep.close()
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            with pytest.raises(RPCTimeoutError):
                client.rpc(Addr("u2", "srv"), "ECHO", 1, timeout=2.0)

        world.kernel.run_callable(main)

    def test_stats_accumulate(self, world, transport):
        serve_echo(transport, "u2")
        client = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            for _ in range(3):
                client.rpc(Addr("u2", "srv"), "ECHO", 42)
            client.send_oneway(Addr("u2", "srv"), "ECHO", 1)
            world.kernel.sleep(1.0)

        world.kernel.run_callable(main)
        assert transport.stats.rpcs == 3
        assert transport.stats.oneways == 1
        assert transport.stats.by_kind["ECHO"] == 4
