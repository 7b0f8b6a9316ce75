"""Deeper transport semantics: FIFO per host pair, sender CPU charging,
stats, and hypothesis ordering properties."""

from hypothesis import given, settings, strategies as st

from repro.kernel import VirtualKernel
from repro.simnet import ConstantLoad, SimWorld, build_lan, make_host
from repro.transport import Addr, Transport
from repro.util.serialization import Payload


def make_world(fast_load=0.0):
    world = SimWorld(VirtualKernel(strict=True), seed=5)
    build_lan(
        world,
        fast_hosts=[make_host("u1", "Ultra10/440", 1),
                    make_host("u2", "Ultra10/300", 2)],
        slow_hosts=[make_host("s1", "SS4/110", 3)],
        load_models={"u1": ConstantLoad(fast_load)},
    )
    return world


class TestFIFO:
    def test_small_message_cannot_overtake_big_one(self):
        """RMI over one TCP connection is ordered: a 1-byte call sent
        after a 2 MB transfer arrives after it."""
        world = make_world()
        transport = Transport(world)
        arrivals = []
        ep = transport.create_endpoint(Addr("s1", "srv"))
        ep.register("MARK", lambda msg: arrivals.append(msg.payload.data
                                                        if isinstance(
                                                            msg.payload,
                                                            Payload)
                                                        else msg.payload))
        cli = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            cli.send_oneway(Addr("s1", "srv"), "MARK",
                            Payload(data="big", nbytes=2_000_000))
            cli.send_oneway(Addr("s1", "srv"), "MARK", "small")
            world.kernel.sleep(60.0)

        world.kernel.run_callable(main)
        assert arrivals == ["big", "small"]

    def test_different_destinations_independent(self):
        world = make_world()
        transport = Transport(world)
        arrivals = []
        for host in ("u2", "s1"):
            ep = transport.create_endpoint(Addr(host, "srv"))
            ep.register(
                "MARK",
                lambda msg, h=host: arrivals.append(h),
            )
        cli = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            # Big transfer to s1 must not delay the small call to u2.
            cli.send_oneway(Addr("s1", "srv"), "MARK",
                            Payload(nbytes=2_000_000))
            cli.send_oneway(Addr("u2", "srv"), "MARK", "x")
            world.kernel.sleep(60.0)

        world.kernel.run_callable(main)
        assert arrivals == ["u2", "s1"]

    @settings(deadline=None, max_examples=20)
    @given(sizes=st.lists(st.integers(10, 500_000), min_size=2,
                          max_size=8))
    def test_order_preserved_for_any_size_sequence(self, sizes):
        world = make_world()
        transport = Transport(world)
        arrivals = []
        ep = transport.create_endpoint(Addr("s1", "srv"))
        ep.register("MARK", lambda msg: arrivals.append(
            msg.payload.meta["seq"]))
        cli = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            for i, size in enumerate(sizes):
                cli.send_oneway(
                    Addr("s1", "srv"), "MARK",
                    Payload(nbytes=size, meta={"seq": i}),
                )
            world.kernel.sleep(120.0)

        world.kernel.run_callable(main)
        assert arrivals == list(range(len(sizes)))


class TestSenderCPU:
    def test_send_charges_sender_compute(self):
        world = make_world()
        transport = Transport(world)
        transport.create_endpoint(Addr("u2", "srv")).register(
            "X", lambda msg: None
        )
        cli = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            t0 = world.now()
            cli.send_oneway(Addr("u2", "srv"), "X",
                            Payload(nbytes=6_000_000))
            return world.now() - t0

        blocked = world.kernel.run_callable(main)
        # 6 MB x 4 flops/byte = 24 Mflop on a 60 MFLOPS machine ~ 0.4 s
        # of *sender* time before the message even leaves.
        assert blocked > 0.3

    def test_loaded_sender_serializes_slower(self):
        def issue_time(load):
            world = make_world(fast_load=load)
            transport = Transport(world)
            transport.create_endpoint(Addr("u2", "srv")).register(
                "X", lambda msg: None
            )
            cli = transport.create_endpoint(Addr("u1", "cli"))

            def main():
                t0 = world.now()
                cli.send_oneway(Addr("u2", "srv"), "X",
                                Payload(nbytes=4_000_000))
                return world.now() - t0

            return world.kernel.run_callable(main)

        assert issue_time(0.75) > 3 * issue_time(0.0)


class TestStatsDetail:
    def test_bytes_accumulate_with_nominal_sizes(self):
        world = make_world()
        transport = Transport(world)
        transport.create_endpoint(Addr("u2", "srv")).register(
            "X", lambda msg: "r"
        )
        cli = transport.create_endpoint(Addr("u1", "cli"))

        def main():
            cli.rpc(Addr("u2", "srv"), "X", Payload(nbytes=1_000_000))

        world.kernel.run_callable(main)
        assert transport.stats.bytes_total > 1_000_000
        assert transport.stats.rpcs == 1
        assert transport.stats.messages == 2  # request + reply
