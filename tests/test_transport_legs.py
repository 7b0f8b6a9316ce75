"""The transport's two wire legs, pinned side by side.

A request (caller -> callee) and its reply (callee -> caller) pay the
same toll — sender CPU, latency + bandwidth share, the per-connection
FIFO floor, the chaos hook — and can be lost at the same points.  This
file pins, for both legs: every way a message is dropped (which
``TransportStats`` field moves, what the ``rpc.drop`` event and the
``rpc.dropped:<stage>`` counter say, what the caller sees), the FIFO
floor in both directions of one host pair, what each chaos fault does on
each leg, the shape of the ``rpc.request`` / ``rpc.reply`` spans, and
which requests a waiting caller runs on its own thread, and what each
kind of send blocks for its leg's CPU charge.
"""

import collections
import threading

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.errors import NodeFailedError, RPCTimeoutError, TransportError
from repro.kernel import VirtualKernel
from repro.kernel.virtual import VirtualProcess
from repro.obs import Tracer, events as ev, tracing
from repro.simnet import SimWorld, build_lan, make_host
from repro.transport import Addr, Transport
from tests.conftest import Odd

CLI = Addr("u1", "cli")
SRV = Addr("u2", "srv")


class Rig:
    """A traced three-host LAN with an ``ECHO`` server on ``u2`` and a
    client endpoint on ``u1``."""

    def __init__(self, plan: str = "") -> None:
        with tracing(Tracer()) as tracer:
            world = SimWorld(VirtualKernel(strict=True), seed=0)
        build_lan(
            world,
            fast_hosts=[make_host("u1", "Ultra10/440"),
                        make_host("u2", "Ultra10/300")],
            slow_hosts=[make_host("s1", "SS4/110")],
        )
        self.tracer = tracer
        self.world = world
        self.kernel = world.kernel
        self.transport = Transport(world)
        self.stats = self.transport.stats
        self.server = self.transport.create_endpoint(SRV)
        self.server.register("ECHO", lambda msg: msg.payload)
        self.client = self.transport.create_endpoint(CLI)
        self.injector = None
        if plan:
            self.injector = ChaosInjector(
                world, FaultPlan.parse(plan)
            ).install(self.transport)

    def run(self, fn):
        return self.kernel.run_callable(fn)

    def outcome(self, kind="ECHO", payload="x", dst=SRV, timeout=5.0):
        """What a blocking caller sees."""
        try:
            return ("value", self.client.rpc(dst, kind, payload, timeout))
        except RPCTimeoutError:
            return ("timeout", None)

    def ledger(self):
        s = self.stats
        return {
            "messages": s.messages, "rpcs": s.rpcs, "oneways": s.oneways,
            "dropped_requests": s.dropped_requests,
            "dropped_replies": s.dropped_replies,
            "by_kind": dict(s.by_kind),
        }

    def drops(self):
        """``(stage, reason, host, kind)`` of every ``rpc.drop`` event."""
        return [
            (e.fields["stage"], e.fields["reason"], e.host, e.fields["kind"])
            for e in self.tracer.events_of(ev.RPC_DROP)
        ]

    def watch(self, tag, reply, log):
        """Log ``(tag, time)`` when ``reply`` completes."""
        def waiter():
            reply.result_or_timeout(60.0)
            log.append((tag, self.world.now()))

        self.kernel.spawn(waiter, name=f"watch-{tag}")

    def drop_counters(self):
        """Non-zero ``rpc.dropped:*`` counters, per host."""
        found = {}
        for host in sorted(self.tracer.host_metrics):
            counters = self.tracer.host_metrics[host].snapshot()["counters"]
            for name, value in counters.items():
                if name.startswith("rpc.dropped:"):
                    found[(host, name)] = value
        return found


# -- every way a message is lost ------------------------------------------------
#
# Each scenario drives one RPC that loses exactly one message and returns
# what the caller saw.  ``msg.dst`` of the *request* names the host the
# drop is filed under on both legs (the callee's), which is why a lost
# reply shows up under ``u2`` although it was travelling to ``u1``.

def _dst_dead_at_send(rig):
    rig.world.fail_host("u2")
    return rig.outcome()


def _src_dead_outside_a_process(rig):
    """No process, so no sender CPU charge: the network is the first to
    notice that the sending host is gone."""
    rig.world.fail_host("u1")
    reply = rig.transport.rpc(CLI, SRV, "ECHO", "x")
    rig.kernel.run(until=5.0)
    return ("pending", None) if not reply.done() else ("value", None)


def _chaos_request(rig):
    return rig.outcome()


def _dst_dies_in_flight(rig):
    reply = rig.client.rpc_async(SRV, "ECHO", "x")
    rig.world.fail_host("u2")  # same instant: sent, not yet delivered
    try:
        return ("value", reply.result_or_timeout(5.0))
    except RPCTimeoutError:
        return ("timeout", None)


def _no_such_endpoint(rig):
    return rig.outcome(dst=Addr("u2", "nobody"))


def _closed_endpoint(rig):
    rig.server.close()
    return rig.outcome()


def _undecodable_oneway(rig):
    """Pickled at send, refuses to unpickle at delivery: the handler
    never runs.  (A two-way caller gets a RemoteInvocationError.)"""
    rig.client.send_oneway(SRV, "ECHO", Odd(1, 2))
    rig.kernel.sleep(1.0)
    return ("sent", None)


def _caller_dies_during_handler(rig):
    def slow(msg):
        rig.kernel.sleep(2.0)
        return "done"

    rig.server.register("SLOW", slow)
    reply = rig.client.rpc_async(SRV, "SLOW")
    rig.kernel.sleep(0.5)
    rig.world.fail_host("u1")
    rig.kernel.sleep(5.0)
    return ("pending", None) if not reply.done() else ("value", None)


def _replier_dies_during_handler(rig):
    def suicidal(msg):
        rig.world.fail_host("u2")
        return "last words"

    rig.server.register("DIE", suicidal)
    return rig.outcome(kind="DIE")


def _chaos_reply(rig):
    return rig.outcome()


def _src_dies_mid_charge(rig):
    """An untimed caller waits for its reply while its request's CPU
    charge runs; the host dies before the charge ends, so the network
    refuses the request when the charge puts it on the wire."""
    reply = []
    rig.kernel.spawn(lambda: reply.append(rig.client.rpc(SRV, "ECHO", "x")),
                     name="caller")
    rig.kernel.sleep(1e-4)  # the charge takes ~0.4 ms
    rig.world.fail_host("u1")
    rig.kernel.sleep(5.0)
    return ("value", reply[0]) if reply else ("pending", None)


def _replier_dies_mid_charge(rig):
    """The handler has returned; the CPU charge for its reply is still
    running, without blocking it, when its host dies."""
    def soon_dead(msg):
        rig.kernel.call_at(rig.world.now() + 1e-4, rig.world.fail_host, "u2")
        return "last words"

    rig.server.register("LATE", soon_dead)
    return rig.outcome(kind="LATE")


#: flops of a CPU charge longer than two of compute's 5 s slices on u1
LONG = 600e6


def _replier_found_dead_at_a_later_slice(rig):
    def long_reply(msg):
        rig.transport.cpu_flops_per_msg = LONG  # ~14 s on u2
        rig.kernel.call_at(rig.world.now() + 7.0, rig.world.fail_host, "u2")
        return "last words"

    rig.server.register("LATE", long_reply)
    return rig.outcome(kind="LATE", timeout=30.0)


#: scenario -> (chaos plan, driver, outside a process?, caller sees,
#:              rpc.drop (stage, reason, host, kind), stats that moved)
DROPS = {
    "request/network refuses: destination dead at send": (
        "", _dst_dead_at_send, False, "timeout",
        ("request", "host failed", "u2", "ECHO"),
        {"messages": 1, "rpcs": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "request/network refuses: sender dead, no process": (
        "", _src_dead_outside_a_process, True, "pending",
        ("request", "host failed", "u2", "ECHO"),
        {"messages": 1, "rpcs": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "request/chaos": (
        "drop:p=1,stage=request", _chaos_request, False, "timeout",
        ("request", "chaos", "u2", "ECHO"),
        {"messages": 1, "rpcs": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "request/destination failed at delivery": (
        "", _dst_dies_in_flight, False, "timeout",
        ("request", "destination failed", "u2", "ECHO"),
        {"messages": 1, "rpcs": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "request/no such endpoint": (
        "", _no_such_endpoint, False, "timeout",
        ("request", "no such endpoint", "u2", "ECHO"),
        {"messages": 1, "rpcs": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "request/closed endpoint": (
        "", _closed_endpoint, False, "timeout",
        ("request", "no such endpoint", "u2", "ECHO"),
        {"messages": 1, "rpcs": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "request/undecodable (one-way)": (
        "", _undecodable_oneway, False, "sent",
        ("request", "undecodable request", "u2", "ECHO"),
        {"messages": 1, "oneways": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "reply/caller failed": (
        "", _caller_dies_during_handler, False, "pending",
        ("reply", "caller failed", "u2", "SLOW"),
        {"messages": 2, "rpcs": 1, "dropped_replies": 1,
         "by_kind": {"SLOW": 1, "SLOW:reply": 1}},
    ),
    "reply/replying host failed": (
        "", _replier_dies_during_handler, False, "timeout",
        # Was ("reply", "caller failed", ...) with the reply counted as
        # a message: the drop named the wrong side, and the dead host
        # never put that reply on the wire.
        ("reply", "replying host failed", "u2", "DIE"),
        {"messages": 1, "rpcs": 1, "dropped_replies": 1,
         "by_kind": {"DIE": 1}},
    ),
    "reply/chaos": (
        "drop:p=1,stage=reply", _chaos_reply, False, "timeout",
        ("reply", "chaos", "u2", "ECHO"),
        {"messages": 2, "rpcs": 1, "dropped_replies": 1,
         "by_kind": {"ECHO": 1, "ECHO:reply": 1}},
    ),
    # The three below lose a leg whose sender's CPU charge was still
    # running, without blocking the sender, when its host died.  Each
    # reads as it did when the charge blocked the sender.
    "request/sender dies mid-charge": (
        "", _src_dies_mid_charge, False, "pending",
        ("request", "host failed", "u2", "ECHO"),
        {"messages": 1, "rpcs": 1, "dropped_requests": 1,
         "by_kind": {"ECHO": 1}},
    ),
    "reply/replying host dies mid-charge": (
        # Counted as sent, as "request/sender dies mid-charge" is: the
        # charge ended, and the network refused the leg.
        "", _replier_dies_mid_charge, False, "timeout",
        ("reply", "replying host failed", "u2", "LATE"),
        {"messages": 2, "rpcs": 1, "dropped_replies": 1,
         "by_kind": {"LATE": 1, "LATE:reply": 1}},
    ),
    "reply/replying host found dead at a later slice": (
        "", _replier_found_dead_at_a_later_slice, False, "timeout",
        ("reply", "replying host failed", "u2", "LATE"),
        {"messages": 1, "rpcs": 1, "dropped_replies": 1,
         "by_kind": {"LATE": 1}},
    ),
}


@pytest.mark.parametrize("name", list(DROPS))
def test_drop_table(name):
    plan, drive, outside, sees, drop, moved = DROPS[name]
    rig = Rig(plan)
    saw, _ = drive(rig) if outside else rig.run(lambda: drive(rig))
    assert saw == sees
    assert rig.drops() == [drop]
    stage, _, host, _ = drop
    assert rig.drop_counters() == {(host, f"rpc.dropped:{stage}"): 1.0}
    assert rig.tracer.metrics.counter(f"rpc.dropped:{stage}") == 1.0
    expected = {"messages": 0, "rpcs": 0, "oneways": 0,
                "dropped_requests": 0, "dropped_replies": 0, "by_kind": {}}
    expected.update(moved)
    assert rig.ledger() == expected


@pytest.mark.parametrize("how", ["rpc", "rpc_async", "send_oneway"])
def test_send_from_a_dead_host_raises_with_nothing_sent(how):
    """The one loss that is not silent: the sender of a request is the
    calling process, and its host is gone.  Nothing counts as sent — no
    message, no ``msg_id``, no reply future left behind."""
    rig = Rig()

    def main():
        rig.world.fail_host("u1")
        with pytest.raises(NodeFailedError):
            getattr(rig.client, how)(SRV, "ECHO", "x")
        rig.kernel.sleep(1.0)

    rig.run(main)
    assert rig.ledger() == {
        "messages": 0, "rpcs": 0, "oneways": 0, "dropped_requests": 0,
        "dropped_replies": 0, "by_kind": {}}
    assert rig.stats.bytes_total == 0
    assert rig.transport._ids.next("msg") == "msg-1"
    assert rig.drops() == []
    assert rig.tracer.events_of(ev.RPC_REQUEST) == []


def test_drop_events_carry_the_request_span_on_both_legs():
    """A lost reply is filed under the request that caused it, not under
    the reply span emitted just before the loss."""
    for stage in ("request", "reply"):
        rig = Rig(f"drop:p=1,stage={stage}")
        rig.run(rig.outcome)
        (request,) = rig.tracer.events_of(ev.RPC_REQUEST)
        (drop,) = rig.tracer.events_of(ev.RPC_DROP)
        (inject,) = rig.tracer.events_of(ev.CHAOS_INJECT)
        assert drop.ctx == request.ctx
        assert inject.ctx == request.ctx
        assert drop.fields["msg_id"] == request.fields["msg_id"]


# -- what a leg's CPU charge blocks -------------------------------------------------
#
# The sender's CPU pays for every leg.  A sender with nothing to do until
# its leg lands (an untimed two-way caller, a handler sending its reply)
# pays without blocking: the charge ends in a call event that puts the
# leg on the wire.  A sender that carries on after the charge (a one-way
# send, rpc_async, a timed call) blocks for it.


@pytest.fixture
def blocks(monkeypatch):
    """process name -> how many times it blocked."""
    counts = collections.Counter()
    block = VirtualProcess._block

    def counting(proc, why):
        counts[proc.name] += 1
        return block(proc, why)

    monkeypatch.setattr(VirtualProcess, "_block", counting)
    return counts


def test_an_untimed_call_blocks_only_for_its_reply(blocks):
    rig = Rig()
    assert rig.kernel.run_callable(
        lambda: rig.client.rpc(SRV, "ECHO", "x"), name="caller") == "x"
    assert blocks["caller"] == 1  # the reply wait
    assert blocks["handle-ECHO@u2"] == 0  # not even for its reply's CPU
    # Both charges happened all the same, each under its sender's name.
    request, reply = rig.tracer.events_of(ev.COMPUTE)
    assert (request.actor, request.host) == ("caller", "u1")
    assert (reply.actor, reply.host) == ("handle-ECHO@u2", "u2")
    assert request.dur > 0 and reply.dur > 0


SENDS = {
    # kind of send -> how often its sender blocks (charge, reply wait)
    "send_oneway": (lambda rig: rig.client.send_oneway(SRV, "ECHO", "x"), 1),
    "rpc_async": (lambda rig: rig.client.rpc_async(SRV, "ECHO", "x"), 1),
    "timed rpc": (lambda rig: rig.client.rpc(SRV, "ECHO", "x", timeout=5.0),
                  2),
}


@pytest.mark.parametrize("how", list(SENDS))
def test_a_sender_that_carries_on_blocks_for_its_charge(how, blocks):
    send, expected = SENDS[how]
    rig = Rig()

    def main():
        before = blocks["main"]
        t0 = rig.world.now()
        send(rig)
        return blocks["main"] - before, t0

    blocked, t0 = rig.run(main)
    assert blocked == expected
    charge = rig.tracer.events_of(ev.COMPUTE)[0]
    assert (charge.actor, charge.ts) == ("main", t0)


def test_an_untimed_caller_sees_what_its_send_raises():
    """The continuation that puts an untimed request on the wire runs in
    a call event; what it raises reaches the caller, as from a send that
    blocked for its charge, and not ``kernel.run``."""
    rig = Rig()

    def main():
        with pytest.raises(TransportError, match="unknown machine 'zz'"):
            rig.client.rpc(Addr("zz", "srv"), "ECHO", "x")
        return rig.world.now()

    assert rig.run(main) > 0.0  # after the charge


def test_a_timed_calls_clock_starts_when_its_charge_ends():
    rig = Rig()

    def main():
        with pytest.raises(RPCTimeoutError):
            rig.client.rpc(Addr("u2", "nobody"), "ECHO", "x", timeout=1.0)
        return rig.world.now()

    timed_out = rig.run(main)
    (charge,) = rig.tracer.events_of(ev.COMPUTE)
    assert charge.ts == 0.0 and charge.dur > 0
    assert timed_out == pytest.approx(charge.dur + 1.0, rel=0, abs=1e-12)


def test_a_hosted_handlers_reply_resumes_its_caller_without_a_hand_off(
        blocks):
    """The reply of a handler run on its caller's thread goes out from its
    charge's continuation, after the handler has returned: the caller's
    thread runs that event, the reply's delivery and its own wake."""
    rig = Rig()
    handoffs, armed = [], []
    hand_off = rig.kernel._hand_off
    rig.kernel._hand_off = lambda proc: (
        armed and handoffs.append(proc.name), hand_off(proc))
    ran_on = []
    rig.server.register("WHO", lambda msg: ran_on.append(threading.get_ident()))

    def main():
        armed.append(True)
        rig.client.rpc(SRV, "WHO")
        return threading.get_ident()

    assert ran_on == [rig.run(main)]  # hosted
    assert handoffs == []
    assert blocks["handle-WHO@u2"] == 0
    (execute,) = rig.tracer.events_of(ev.RPC_EXEC)
    (reply,) = rig.tracer.events_of(ev.RPC_REPLY)
    _, reply_charge = rig.tracer.events_of(ev.COMPUTE)
    # The continuation records under the handler's name and exec span.
    assert reply_charge.actor == "handle-WHO@u2"
    assert reply_charge.ctx.parent_id == execute.ctx.span_id
    assert reply.ctx.parent_id == execute.ctx.span_id


# -- long charges, and hosts that fail or restart during one ------------------------

def _charge_beside_a_task(send):
    """The request's COMPUTE span and its delivery time, for a ``LONG``
    request charge on u1 while a 4 s task shares u1's CPU."""
    rig = Rig()
    rig.transport.cpu_flops_per_msg = LONG
    rig.kernel.spawn(rig.world.compute, "u1", 240e6, name="task")
    rig.run(lambda: send(rig))
    charge = [e for e in rig.tracer.events_of(ev.COMPUTE)
              if e.actor == "main"][0]
    (execute,) = rig.tracer.events_of(ev.RPC_EXEC)
    return (charge.ts, charge.dur, charge.fields["flops"]), execute.ts


def test_a_long_charge_is_sliced_as_compute_slices_it():
    """Each 5 s slice re-samples the CPU share: the first runs beside the
    task (half speed), the later ones alone.  An untimed caller's charge
    ends exactly where a blocking charge of the same flops ends."""
    untimed = _charge_beside_a_task(lambda rig: rig.client.rpc(SRV, "ECHO"))
    timed = _charge_beside_a_task(
        lambda rig: rig.client.rpc(SRV, "ECHO", timeout=60.0))
    assert untimed == timed
    (t0, dur, flops), _ = untimed
    assert dur == pytest.approx(12.5, abs=1e-3)  # 5 s at 30 MFLOPS, then 60
    rig = Rig()
    rig.kernel.spawn(rig.world.compute, "u1", 240e6, name="task")
    assert rig.run(lambda: rig.world.compute("u1", flops)) == dur


def test_an_untimed_sender_found_dead_at_a_later_slice_raises():
    """As a blocking charge raises from its loop: at the first slice
    boundary after the failure, with nothing counted or numbered."""
    rig = Rig()
    rig.transport.cpu_flops_per_msg = LONG  # 10 s on u1
    rig.kernel.call_at(7.0, rig.world.fail_host, "u1")

    def main():
        with pytest.raises(NodeFailedError):
            rig.client.rpc(SRV, "ECHO", "x")
        return rig.world.now()

    assert rig.run(main) == 10.0
    assert rig.ledger() == {
        "messages": 0, "rpcs": 0, "oneways": 0, "dropped_requests": 0,
        "dropped_replies": 0, "by_kind": {}}
    assert rig.transport._ids.next("msg") == "msg-1"
    assert rig.world.machine("u1").active_tasks == 0


@pytest.mark.parametrize("host, at", [("u1", 7.0), ("u2", 12.0)])
def test_a_restart_mid_charge(host, at):
    """A restart forgets the host's tasks, a charge in flight included:
    the charge still ends and its leg goes out, and its end does not take
    the slot of a task begun after the restart."""
    rig = Rig()
    rig.transport.cpu_flops_per_msg = LONG  # u1 0-10 s, u2 from ~10 s
    machine = rig.world.machine(host)
    rig.kernel.call_at(at, rig.world.restart_host, host)
    rig.kernel.spawn(rig.world.compute, host, 2400e6, delay=at + 0.5,
                     name="after")

    def main():
        value = rig.client.rpc(SRV, "ECHO", "x")
        return value, machine.active_tasks

    assert rig.run(main) == ("x", 1)  # only "after" runs on host now
    rig.kernel.run()
    assert rig.world.machine("u1").active_tasks == 0
    assert rig.world.machine("u2").active_tasks == 0


# -- the FIFO floor, both directions ---------------------------------------------

BIG = b"x" * 2_000_000


def test_a_small_request_cannot_overtake_a_big_one():
    rig = Rig()
    arrivals = []
    rig.server.register(
        "NOTE", lambda msg: arrivals.append((msg.payload[:1], rig.world.now()))
    )

    def main():
        rig.client.send_oneway(SRV, "NOTE", BIG)
        rig.client.send_oneway(SRV, "NOTE", b"s")
        rig.kernel.sleep(5.0)

    rig.run(main)
    (first, t_big), (second, t_small) = arrivals
    assert (first, second) == (b"x", b"s")
    assert t_small == t_big  # held at the floor, not merely behind it


def test_a_small_reply_cannot_overtake_a_big_one():
    rig = Rig()
    rig.server.register("BIG", lambda msg: BIG)
    done = []

    def main():
        rig.watch("big", rig.client.rpc_async(SRV, "BIG"), done)
        # Serialising the big reply takes the callee a while; it is on
        # the wire once its direction of the pair has a floor.
        while ("u2", "u1") not in rig.transport._last_delivery:
            rig.kernel.sleep(0.01)
        rig.watch("small", rig.client.rpc_async(SRV, "ECHO", "s"), done)
        rig.kernel.sleep(30.0)

    rig.run(main)
    (first, t_big), (second, t_small) = done
    assert (first, second) == ("big", "small")
    assert t_small == t_big


def test_the_two_directions_of_a_pair_have_separate_floors():
    """A big reply in flight u2 -> u1 does not hold back a request going
    u1 -> u2: a connection is ordered per direction."""
    rig = Rig()
    rig.server.register("BIG", lambda msg: BIG)

    def main():
        big = rig.client.rpc_async(SRV, "BIG")
        while ("u2", "u1") not in rig.transport._last_delivery:
            rig.kernel.sleep(0.01)  # the callee is still serialising
        floors = dict(rig.transport._last_delivery)
        t0 = rig.world.now()
        rig.client.rpc(SRV, "ECHO", "s", timeout=30.0)
        rtt = rig.world.now() - t0
        big.result_or_timeout(30.0)
        return floors, t0, rtt

    floors, t0, rtt = rig.run(main)
    assert set(floors) == {("u1", "u2"), ("u2", "u1")}
    assert floors[("u2", "u1")] > t0 > floors[("u1", "u2")]
    # The echo's own reply queues behind the big one; its request did not.
    (echo_exec,) = [e for e in rig.tracer.events_of(ev.RPC_EXEC)
                    if e.fields["kind"] == "ECHO"]
    assert echo_exec.ts < floors[("u2", "u1")]
    assert t0 + rtt >= floors[("u2", "u1")]


# -- chaos faults on each leg -----------------------------------------------------

def _calls(rig, tags="AB"):
    """One async RPC per tag, sent in order; returns the order the
    handlers saw them, the order the caller saw them complete, and the
    time until the last completion."""
    arrived, completed = [], []

    def note(msg):
        arrived.append(msg.payload)
        return msg.payload

    rig.server.register("NOTE", note)

    def main():
        t0 = rig.world.now()
        for tag in tags:
            rig.watch(tag, rig.client.rpc_async(SRV, "NOTE", tag), completed)
        rig.kernel.sleep(30.0)  # lets duplicates land too
        return max(t for _, t in completed) - t0

    rtt = rig.run(main)
    return arrived, [tag for tag, _ in completed], rtt


def test_chaos_faults_per_leg():
    plain_arrived, plain_completed, plain_rtt = _calls(Rig())
    assert plain_arrived == ["A", "B"] and plain_completed == ["A", "B"]

    for stage in ("request", "reply"):
        # duplicate: a request runs its handler twice, a reply completes
        # the (idempotent) future twice; the caller sees one result.
        rig = Rig(f"duplicate:p=1,stage={stage}")
        arrived, completed, _ = _calls(rig)
        assert rig.injector.injected == {"duplicate": 2}
        assert sorted(arrived) == (
            ["A", "A", "B", "B"] if stage == "request" else ["A", "B"])
        assert completed == ["A", "B"]
        assert rig.stats.dropped == 0
        assert rig.stats.by_kind == (
            {"NOTE": 2, "NOTE:reply": 4} if stage == "request"
            else {"NOTE": 2, "NOTE:reply": 2})

        # delay: every delivery of the leg shifts by 0.5-1.5 x delay.
        rig = Rig(f"delay:p=1,delay=1.0,stage={stage}")
        arrived, completed, rtt = _calls(rig)
        assert rig.injector.injected == {"delay": 2}
        assert sorted(arrived) == ["A", "B"]
        assert 0.5 <= rtt - plain_rtt <= 1.5

    # reorder: shifts land *after* the FIFO floor, so a later message can
    # overtake an earlier one — on the request leg the handlers run out
    # of order, on the reply leg only the completions do.  (The order is
    # seed 0's dice: the same draws on either leg.)
    rig = Rig("reorder:p=1,delay=1.0,stage=request")
    arrived, completed, _ = _calls(rig, "ABCD")
    assert rig.injector.injected == {"reorder": 4}
    assert arrived == completed == ["A", "C", "D", "B"]
    rig = Rig("reorder:p=1,delay=1.0,stage=reply")
    arrived, completed, _ = _calls(rig, "ABCD")
    assert rig.injector.injected == {"reorder": 4}
    assert arrived == ["A", "B", "C", "D"]
    assert completed == ["A", "C", "D", "B"]


# -- which thread runs a handler ----------------------------------------------------
#
# A two-way request delivered once and carrying no idempotency token is
# spawned promising that its process alone completes the reply future, so
# a caller waiting for it untimed runs the handler on its own thread.  A
# timed wait, a tokened call or a duplicated delivery leaves the handler
# to a worker.

def _untimed(rig):
    return rig.client.rpc(SRV, "WHO")


HOSTS = {
    "untimed": ("", _untimed, ["caller"]),
    "timed": ("", lambda rig: rig.client.rpc(SRV, "WHO", timeout=5.0),
              ["worker"]),
    "tokened": ("", lambda rig: rig.transport.rpc(
        CLI, SRV, "WHO", None, token="tok-1").result_or_timeout(),
        ["worker"]),
    "chaos duplicate": ("duplicate:p=1,stage=request", _untimed,
                        ["worker", "worker"]),
    "chaos delay": ("delay:p=1,delay=1.0,stage=request", _untimed,
                    ["caller"]),
}


@pytest.mark.parametrize("name", list(HOSTS))
def test_who_runs_the_handler(name):
    plan, call, expected = HOSTS[name]
    rig = Rig(plan)
    ran_on = []
    rig.server.register("WHO", lambda msg: ran_on.append(threading.get_ident()))

    def main():
        call(rig)
        rig.kernel.sleep(30.0)  # lets duplicates land too
        me = threading.get_ident()
        return ["caller" if ident == me else "worker" for ident in ran_on]

    assert rig.run(main) == expected


# -- span shape ---------------------------------------------------------------------

def test_request_and_reply_spans():
    rig = Rig()
    t0 = rig.run(lambda: (rig.world.now(), rig.outcome())[0])
    (request,) = rig.tracer.events_of(ev.RPC_REQUEST)
    (execute,) = rig.tracer.events_of(ev.RPC_EXEC)
    (reply,) = rig.tracer.events_of(ev.RPC_REPLY)

    assert list(request.fields) == [
        "kind", "nbytes", "src", "dst", "msg_id", "oneway"]
    assert list(reply.fields) == ["kind", "nbytes", "src", "dst", "msg_id"]
    assert (request.host, request.actor) == ("u1", "cli@u1")
    assert (reply.host, reply.actor) == ("u2", "srv@u2")
    assert request.fields["kind"] == "ECHO"
    assert reply.fields["kind"] == "ECHO:reply"
    assert (request.fields["src"], request.fields["dst"]) == (
        "cli@u1", "srv@u2")
    assert (reply.fields["src"], reply.fields["dst"]) == ("srv@u2", "cli@u1")
    assert request.fields["oneway"] is False
    assert reply.fields["msg_id"] == request.fields["msg_id"]

    # The request span starts when the caller called (its CPU charge is
    # inside it); the reply span starts once the reply is on the wire
    # (the callee's CPU charge lies between exec and reply).
    assert request.ts == t0
    assert request.ts + request.dur == execute.ts
    assert reply.ts > execute.ts + execute.dur

    # request -> exec -> reply is one causal chain.
    assert execute.ctx.parent_id == request.ctx.span_id
    assert reply.ctx.parent_id == execute.ctx.span_id

    # Bytes are booked on the sending host of each leg, the round trip
    # on the host that issued the call.
    per_host = {
        host: rig.tracer.host_metrics[host].snapshot()
        for host in rig.tracer.host_metrics
    }
    assert per_host["u1"]["counters"]["rpc.bytes:ECHO"] == (
        request.fields["nbytes"])
    assert per_host["u2"]["counters"]["rpc.bytes:ECHO:reply"] == (
        reply.fields["nbytes"])
    assert "rpc.latency:ECHO" in per_host["u1"]["histograms"]
    assert "rpc.latency:ECHO" not in per_host["u2"]["histograms"]
    latency = rig.tracer.metrics.histogram("rpc.latency:ECHO")
    assert latency.count == 1
    assert latency.total == pytest.approx(reply.ts + reply.dur - request.ts)


def test_oneway_request_span_says_so():
    rig = Rig()

    def main():
        rig.client.send_oneway(SRV, "ECHO", "x")
        rig.kernel.sleep(1.0)

    rig.run(main)
    (request,) = rig.tracer.events_of(ev.RPC_REQUEST)
    assert request.fields["oneway"] is True
    assert rig.tracer.events_of(ev.RPC_REPLY) == []
    assert rig.ledger()["by_kind"] == {"ECHO": 1}
    assert rig.stats.oneways == 1 and rig.stats.rpcs == 0


def test_by_kind_separates_requests_from_replies():
    rig = Rig()

    def main():
        for _ in range(3):
            rig.outcome()
        rig.client.send_oneway(SRV, "ECHO", "y")
        rig.kernel.sleep(1.0)

    rig.run(main)
    assert rig.stats.by_kind == {"ECHO": 4, "ECHO:reply": 3}
    assert rig.stats.messages == 7
