"""RPC over the simulated network — the stand-in for Java/RMI.

Agents register *endpoints* (one per ``(host, agent-name)`` pair) with
handlers keyed by message kind.  An RPC is two *legs*, request and
reply, under one rule (:meth:`Transport._leg`): the sender's CPU pays
for the flattened value, the network charges latency + bandwidth share +
software overhead from its size, and messages between one pair of hosts
arrive in send order.  So an RPC:

1. encodes the request payload once, at send — the blob that travels and
   its size (honoring nominal :class:`Payload` sizes) come from one pass,
2. decodes the blob at each delivery and executes the handler **in its
   own spawned process at the destination** (JavaSymphony ran one thread
   per incoming request on the PubOA).  A two-way request delivered once
   and carrying no idempotency token is spawned ``completes=`` its reply
   future: on the virtual kernel a caller waiting for the reply untimed
   then runs that process on its own thread, with thread-locals of the
   handler's own (DESIGN.md decision 1, "Caller-hosted handlers"),
3. encodes the result once and completes the caller's future with a
   decoded copy.

A leg's CPU charge blocks its sender only when the sender has something
to do after it.  A handler's reply, and the request of an untimed
two-way call (:meth:`Endpoint.rpc` with no timeout and no retrier), are
charged without blocking: the charge begins at once and ends in a call
event that puts the leg on the wire, while the caller already waits for
its reply and the handler has returned.  A one-way send,
:meth:`Endpoint.rpc_async`, a timed call and a retrier's attempts block
for the charge (:meth:`Transport.send`).  Simulated time and event order
are the same either way.

Failure semantics mirror a real LAN: messages to or from a failed host
are silently dropped (:meth:`Transport._drop`) — the caller learns about
failures only through timeouts, which is exactly what the paper's
Network Agent System relies on for failure detection.

Arguments and results cross the "wire" as a pickle: the callee works on
what the sender's value was *when it was sent*, and mutation on either
side is invisible to the other (true copy semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.errors import (
    NodeFailedError,
    RemoteInvocationError,
    RPCTimeoutError,
    TransportError,
    WaitTimeout,
)
from repro.kernel.virtual import VirtualFuture
from repro.obs import events as ev
from repro.obs.spans import TraceContext
from repro.simnet.world import SimWorld
from repro.util.ids import IdGenerator
from repro.util.serialization import Wire, decode, encode


#: Addr -> its ``agent@host`` label, built once per address so every
#: trace event naming an address shares one string
_LABELS: dict[tuple, str] = {}


class Addr(NamedTuple):
    """Transport address: which agent on which host."""

    host: str
    agent: str

    def __str__(self) -> str:
        label = _LABELS.get(self)
        if label is None:
            label = _LABELS[self] = f"{self.agent}@{self.host}"
        return label


@dataclass
class Message:
    msg_id: str
    src: Addr
    dst: Addr
    kind: str
    #: in flight: the :class:`~repro.util.serialization.Wire` encoded at
    #: send; as a handler sees it: the value decoded from it.  Every
    #: delivery gets a ``Message`` and a decoded copy of its own.
    payload: Any
    nbytes: int = 0
    sent_at: float = 0.0
    #: the request span's context, carried across the wire so the
    #: handler-side exec span joins the caller's trace
    ctx: TraceContext | None = None
    #: idempotency token: identical across every retry of one logical
    #: call (each retry still gets a fresh ``msg_id``), so the holder's
    #: :class:`repro.rmi.reliability.ReplayCache` can serve a duplicate
    #: from cache instead of re-executing.  ``None`` = unreliable call.
    token: str | None = None
    #: ``False`` when the payload holds no
    #: :class:`~repro.util.serialization.Payload` wrapper anywhere, so a
    #: handler need not look for one (``Wire.nominal``)
    nominal: bool = True
    #: deliveries the request leg scheduled: more than one when the chaos
    #: hook duplicated it
    deliveries: int = 1


@dataclass
class RemoteError:
    """Wire representation of an exception raised by a remote handler."""

    exc: BaseException
    where: Addr


@dataclass
class TransportStats:
    messages: int = 0
    rpcs: int = 0
    oneways: int = 0
    dropped_requests: int = 0
    dropped_replies: int = 0
    bytes_total: int = 0
    by_kind: dict = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        """All drops; request vs reply drops are counted separately
        because a dropped reply means the call *executed*."""
        return self.dropped_requests + self.dropped_replies


class Endpoint:
    def __init__(self, transport: "Transport", addr: Addr) -> None:
        self.transport = transport
        self.addr = addr
        #: this endpoint's name on trace events, ``str(addr)`` computed once
        self.actor = str(addr)
        self._handlers: dict[str, Callable[[Message], Any]] = {}
        #: optional :class:`repro.rmi.reliability.ReplayCache`; when set,
        #: tokened requests execute at most once (see :meth:`Transport._execute`)
        self.dedup = None

    def register(self, kind: str, handler: Callable[[Message], Any]) -> None:
        if kind in self._handlers:
            raise TransportError(
                f"{self.addr}: handler for {kind!r} already registered"
            )
        self._handlers[kind] = handler

    def handler_for(self, kind: str) -> Callable[[Message], Any]:
        try:
            return self._handlers[kind]
        except KeyError:
            raise TransportError(
                f"{self.addr}: no handler for message kind {kind!r}"
            ) from None

    def close(self) -> None:
        self.transport._unregister(self.addr)

    # -- convenience wrappers -------------------------------------------------

    def rpc(self, dst: Addr, kind: str, payload: Any = None,
            timeout: float | None = None) -> Any:
        """Blocking RPC; returns the reply value or raises the remote
        exception / :class:`repro.errors.RPCTimeoutError`.

        With a retrier installed on the transport this becomes a
        *reliable* call: failed attempts are retried with backoff and
        exhaustion surfaces as
        :class:`repro.errors.RetriesExhaustedError`."""
        retrier = self.transport.retrier
        if retrier is not None:
            return retrier.rpc(self.addr, dst, kind, payload, timeout)
        reply = self.transport.rpc(self.addr, dst, kind, payload,
                                   untimed=timeout is None)
        return reply.result_or_timeout(timeout)

    def rpc_async(self, dst: Addr, kind: str, payload: Any = None) -> "Reply":
        return self.transport.rpc(self.addr, dst, kind, payload)

    def send_oneway(self, dst: Addr, kind: str, payload: Any = None) -> None:
        self.transport.send(self.addr, dst, kind, payload)


class Reply:
    """Caller-side handle on an in-flight RPC."""

    def __init__(self, future: VirtualFuture, transport: "Transport",
                 src: Addr, dst: Addr, kind: str) -> None:
        self._future = future
        self._transport = transport
        self._src = src
        self._dst = dst
        self._kind = kind

    def done(self) -> bool:
        return self._future.done()

    def wait(self, timeout: float | None = None) -> bool:
        return self._future.wait(timeout)

    def result_or_timeout(self, timeout: float | None = None) -> Any:
        try:
            value = self._future.result(timeout)
        except WaitTimeout:
            tracer = self._transport.tracer
            host = self._src.host
            tracer.emit(
                ev.RPC_TIMEOUT, ts=self._transport.world.now(), host=host,
                actor=str(self._src), kind=self._kind, dst=str(self._dst),
                waited=timeout,
            )
            tracer.count("rpc.timeouts", host=host)
            exc = RPCTimeoutError(
                f"no reply within {timeout} s (peer failed?)"
            )
            # Nobody waits for this reply any more: fail its future, or
            # a request lost on the way would leave it pending for good.
            # A reply that still lands is ignored (``_complete``).
            self._future.set_exception(exc)
            raise exc from None
        if isinstance(value, RemoteError):
            exc = value.exc
            if isinstance(exc, (NodeFailedError, RemoteInvocationError)):
                # Already the caller-facing family; re-wrapping would bury
                # the class (e.g. MethodNotFoundError) a level deep.
                raise exc
            raise RemoteInvocationError(
                f"remote handler at {value.where} raised {exc!r}", cause=exc
            )
        return value


class Transport:
    def __init__(self, world: SimWorld) -> None:
        self.world = world
        self.stats = TransportStats()
        self.tracer = world.tracer
        self._endpoints: dict[Addr, Endpoint] = {}
        self._ids = IdGenerator()
        #: (src host, dst host) -> latest scheduled delivery.  RMI runs
        #: over persistent TCP connections: messages between the same
        #: pair of hosts are delivered in send order, so a small call
        #: cannot overtake a large one (the paper's ``oinvoke init`` ->
        #: ``ainvoke multiply`` pattern relies on it).
        self._last_delivery: dict[tuple[str, str], float] = {}
        # A failed host's TCP connections are gone; its ordering floors
        # must not outlive them (a recovered host would otherwise queue
        # behind pre-crash delivery times).
        world.failure_listeners.append(self._prune_fifo)
        #: :class:`repro.rmi.reliability.Retrier` | None — when set,
        #: :meth:`Endpoint.rpc` hands every blocking call to it.
        self.retrier = None
        #: :class:`repro.chaos.ChaosInjector` | None — fault hook on the
        #: wire: may drop/duplicate/delay scheduled deliveries.
        self.chaos = None
        #: sender-side CPU cost of an RMI: dispatch plus serialization.
        #: JDK 1.2 object serialization ran at a handful of MB/s, a large
        #: part of why "a larger number of RMIs" degrades the paper's
        #: >10-node runs.  Charged as compute on the sending machine.
        self.cpu_flops_per_msg = 25_000.0
        self.cpu_flops_per_byte = 4.0
        #: kind -> its reply leg's kind, and (kind, host) -> the name of
        #: a request's handler process: built once, shared by every call
        self._reply_kinds: dict[str, str] = {}
        self._handler_names: dict[tuple[str, str], str] = {}

    # -- endpoints ------------------------------------------------------------

    def create_endpoint(self, addr: Addr) -> Endpoint:
        if addr in self._endpoints:
            raise TransportError(f"endpoint {addr} already exists")
        endpoint = Endpoint(self, addr)
        self._endpoints[addr] = endpoint
        return endpoint

    def _unregister(self, addr: Addr) -> None:
        self._endpoints.pop(addr, None)
        if not any(a.host == addr.host for a in self._endpoints):
            self._prune_fifo(addr.host)

    def _prune_fifo(self, host: str) -> None:
        """Forget delivery-order floors involving ``host``."""
        for key in [k for k in self._last_delivery if host in k]:
            del self._last_delivery[key]

    # -- send path -------------------------------------------------------------

    def rpc(self, src: Addr, dst: Addr, kind: str, payload: Any,
            token: str | None = None, untimed: bool = False) -> Reply:
        """Send a two-way request.  ``untimed`` says the caller's next act
        is ``result_or_timeout(None)`` on the returned reply, so the
        request's CPU charge need not block it (:meth:`send`)."""
        future = self.send(src, dst, kind, payload, oneway=False,
                           token=token, untimed=untimed)
        return Reply(future, self, src=src, dst=dst, kind=kind)

    def send(
        self,
        src: Addr,
        dst: Addr,
        kind: str,
        payload: Any,
        oneway: bool = True,
        token: str | None = None,
        untimed: bool = False,
    ) -> VirtualFuture | None:
        """Put one request on the wire; returns the reply future of a
        two-way send.  The payload is flattened here, so the callee sees
        the value as it was at this instant.  ``untimed``: the caller's
        next act is to wait for the reply with no timeout."""
        # First, so that an unpicklable payload fails in the sender
        # before a counter moves or a future exists.
        wire = encode(payload)
        world = self.world
        kernel = world.kernel
        sent_at = kernel.now()
        flops = self._sender_flops(wire.nbytes)
        if flops > 0:
            # Where the legs differ, 1 of 2: a request's sender is the
            # calling process, so on a dead host its charge raises to it
            # — NodeFailedError, with nothing counted, numbered or
            # awaited yet.
            if untimed and not oneway:
                # The one condition under which a request's charge does
                # not block its sender, and it is not a setting: an
                # untimed two-way caller has nothing to do until the
                # reply lands.  It goes straight to its reply wait; the
                # charge ends in a call event (at the time and place in
                # the event order of the blocking charge's wake), which
                # numbers the message and puts it on the wire.  Every
                # other sender carries on after the charge and so pays
                # it blocked: a one-way send, rpc_async, and a timed call
                # or a retrier's attempt.  A timeout clock starts when the
                # charge ends; armed from a call event, its wake would
                # take another place in the event order.
                task = world.begin_compute(src.host, flops)
                reply_future = kernel.create_future()
                world.compute_then(task, self._request_charged, src, dst,
                                   kind, wire, sent_at, token, reply_future)
                return reply_future
            world.compute(src.host, flops)
        reply_future = None if oneway else kernel.create_future()
        self._request(src, dst, kind, wire, sent_at, token, reply_future)
        return reply_future

    def _request_charged(self, failure: NodeFailedError | None, src: Addr,
                         dst: Addr, kind: str, wire: Wire, sent_at: float,
                         token: str | None,
                         reply_future: VirtualFuture) -> None:
        """The continuation of an untimed caller's request charge: sends
        the request.  What a blocking charge or send would have raised to
        the caller (its host found dead at a later slice, ``failure``; an
        unknown destination host) fails the reply future instead, so the
        caller's call raises it."""
        if failure is None:
            try:
                return self._request(src, dst, kind, wire, sent_at, token,
                                     reply_future)
            except Exception as exc:  # noqa: BLE001 - the caller's outcome
                failure = exc
        reply_future.set_exception(failure)

    def _request(self, src: Addr, dst: Addr, kind: str, wire: Wire,
                 sent_at: float, token: str | None,
                 reply_future: VirtualFuture | None) -> None:
        """Count, number and send a request whose sender's CPU is paid."""
        if reply_future is None:
            self.stats.oneways += 1
        else:
            self.stats.rpcs += 1
        nbytes = wire.nbytes
        msg = Message(
            self._ids.next("msg"), src, dst, kind, wire, nbytes, sent_at,
            None, token, wire.nominal,
        )
        self._leg(msg, "request", nbytes, self._deliver, (msg, reply_future))

    def _send_reply(
        self, msg: Message, result: Any, nbytes: int,
        reply_future: VirtualFuture,
    ) -> None:
        """Reply to an executed request: ``result`` is the caller's
        decoded copy, ``nbytes`` the size of the wire it came from.  The
        handler has nothing left to do, so its CPU charge for the reply
        does not block it: the reply goes on the wire from the charge's
        continuation (:meth:`_reply`)."""
        world = self.world
        flops = self._sender_flops(nbytes)
        if flops > 0:
            try:
                task = world.begin_compute(msg.dst.host, flops)
            except NodeFailedError as exc:
                return self._reply(exc, msg, result, nbytes, reply_future)
            return world.compute_then(task, self._reply, msg, result,
                                      nbytes, reply_future)
        self._reply(None, msg, result, nbytes, reply_future)

    def _reply(self, failure: NodeFailedError | None, msg: Message,
               result: Any, nbytes: int,
               reply_future: VirtualFuture) -> None:
        """Put the reply to ``msg`` on the wire, its sender's CPU paid —
        or lose it, the replying host having died first (``failure``)."""
        if failure is not None:
            # Where the legs differ, 2 of 2: this host died under its
            # own handler, and a reply has no caller to raise to — it is
            # lost like any other message.
            return self._drop(msg, "reply", "replying host failed")
        self._leg(msg, "reply", nbytes, self._complete,
                  (reply_future, result))

    def _leg(self, msg: Message, stage: str, nbytes: int,
             deliver: Callable[..., None], args: tuple) -> None:
        """One message on the wire, its sender's CPU already charged:
        ``msg`` itself (``"request"``) or the reply to it (``"reply"``,
        travelling ``msg.dst`` to ``msg.src``).  Either pays latency +
        bandwidth share + software overhead, in order, per connection,
        so this is the only place that counts a message as sent, asks
        the network for its delay, applies the FIFO floor, emits the
        wire span, consults the chaos hook and schedules
        ``deliver(*args)``."""
        request = stage == "request"
        if request:
            src, dst, kind = msg.src, msg.dst, msg.kind
        else:
            src, dst = msg.dst, msg.src
            kind = self._reply_kinds.get(msg.kind)
            if kind is None:
                kind = self._reply_kinds[msg.kind] = msg.kind + ":reply"
        stats = self.stats
        stats.messages += 1
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        stats.bytes_total += nbytes
        world = self.world
        try:
            delay = world.transfer_delay(src.host, dst.host, nbytes)
        except NodeFailedError:
            return self._drop(msg, stage, (
                "host failed" if request
                else "caller failed" if world.machine(dst.host).failed
                else "replying host failed"))
        kernel = world.kernel
        now = kernel.now()
        key = (src.host, dst.host)
        deliver_at = max(now + delay, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = deliver_at
        tracer = self.tracer
        if tracer.enabled:
            # A request span starts when the caller called (CPU charge
            # included) and rides on the message, so the handler's exec
            # span joins the caller's trace.  A reply span starts now,
            # under the current context: still the exec span (_execute's
            # restore=False), so a reply descends from its request.
            ts = msg.sent_at if request else now
            sender = str(src)
            ctx = tracer.emit_span(
                ev.RPC_REQUEST if request else ev.RPC_REPLY, ts=ts,
                host=src.host, actor=sender, dur=deliver_at - ts,
                kind=kind, nbytes=nbytes, src=sender, dst=str(dst),
                msg_id=msg.msg_id,
                **({"oneway": args[1] is None} if request else {}),
            )
            tracer.count(f"rpc.bytes:{kind}", nbytes, host=src.host)
            if request:
                msg.ctx = ctx
            else:
                # Latency is the caller-observed round trip; attribute
                # it to the calling host so per-host percentiles mean
                # "RPCs this machine issued".
                tracer.observe(f"rpc.latency:{msg.kind}",
                               deliver_at - msg.sent_at, host=dst.host)
        # Chaos runs *after* the FIFO floor: faulted deliveries shift
        # individually, which is exactly how reordering becomes possible
        # on an otherwise in-order connection.
        deliveries: Any = (deliver_at,)
        if self.chaos is not None:
            deliveries = self.chaos.filter(msg, stage, deliver_at)
            if not deliveries:
                return self._drop(msg, stage, "chaos")
            if request:
                msg.deliveries = len(deliveries)
        for at in deliveries:
            # Duplicates are harmless: every request delivery decodes a
            # copy of its own, and _complete is idempotent.
            kernel.call_at(at, deliver, *args)

    def _drop(self, msg: Message, stage: str, reason: str) -> None:
        """Lose ``msg`` (or the reply to it): the only place a drop is
        counted and traced.  Nobody is told — the caller's timeout is
        the detector."""
        if stage == "request":
            self.stats.dropped_requests += 1
        else:
            self.stats.dropped_replies += 1
        self.tracer.emit(
            ev.RPC_DROP, ts=self.world.now(), host=msg.dst.host,
            actor=str(msg.dst), ctx=msg.ctx, kind=msg.kind, stage=stage,
            reason=reason, msg_id=msg.msg_id,
        )
        self.tracer.count(f"rpc.dropped:{stage}", host=msg.dst.host)

    # -- receive path ------------------------------------------------------------

    def _deliver(
        self, msg: Message, reply_future: VirtualFuture | None
    ) -> None:
        if self.world.machine(msg.dst.host).failed:
            return self._drop(msg, "request", "destination failed")
        endpoint = self._endpoints.get(msg.dst)
        if endpoint is None:  # never registered, or closed
            return self._drop(msg, "request", "no such endpoint")
        # One process per incoming request, as the paper's PubOA runs one
        # thread per request.  Delivered once and not tokened, its handler
        # is the only one to complete the reply future (a duplicate's or
        # a replay's could too), so the caller waiting for it may run it.
        completes = (reply_future if msg.token is None
                     and msg.deliveries == 1 else None)
        key = (msg.kind, msg.dst.host)
        name = self._handler_names.get(key)
        if name is None:
            name = self._handler_names[key] = (
                f"handle-{msg.kind}@{msg.dst.host}")
        self.world.kernel.spawn(
            self._execute, endpoint, msg, reply_future, name=name,
            context={"addr": msg.dst}, completes=completes,
        )

    def _execute(
        self, endpoint: Endpoint, sent: Message,
        reply_future: VirtualFuture | None,
    ) -> None:
        # Decoding is the copy, and each delivery makes its own: the
        # handlers of a duplicated request must not share an argument.
        # It happens here, in the request's own process: a payload that
        # pickled but does not unpickle fails its call, not the
        # scheduler's run loop.
        try:
            payload = decode(sent.payload)
        except Exception as exc:  # noqa: BLE001 - the call's outcome
            return self._undecodable(sent, reply_future, exc)
        # (Spelled out: dataclasses.replace costs six times as much.)
        msg = Message(
            sent.msg_id, sent.src, sent.dst, sent.kind, payload,
            sent.nbytes, sent.sent_at, sent.ctx, sent.token, sent.nominal,
        )
        dedup = endpoint.dedup
        slot = None
        if msg.token is not None and dedup is not None:
            is_new, slot = dedup.claim(msg.token)
            if not is_new:
                # Duplicate of a tokened call: at-most-once execution.
                # Wait for the original's outcome (it may still be
                # running) and replay the reply instead of re-executing.
                self.tracer.count("rpc.dedup.hits", host=msg.dst.host)
                wire = slot.future.result()
                if reply_future is not None:
                    # A fresh copy per reply, so one caller mutating the
                    # value cannot pollute the cached outcome.
                    self._send_reply(msg, decode(wire), wire.nbytes,
                                     reply_future)
                return
        exec_span = None
        if self.tracer.enabled:
            # The handler process joins the sender's trace: the exec span
            # parents under the request span carried on the message.
            exec_span = self.tracer.begin_span(
                ev.RPC_EXEC, ts=self.world.now(), host=msg.dst.host,
                actor=endpoint.actor, parent=msg.ctx,
                kind=msg.kind, msg_id=msg.msg_id,
            )
        failed = False
        try:
            handler = endpoint.handler_for(msg.kind)
            result: Any = handler(msg)
        except BaseException as exc:  # noqa: BLE001 - shipped to caller
            result = RemoteError(exc=exc, where=msg.dst)
            failed = True
        if exec_span is not None:
            # restore=False: the reply leg below (serialization compute,
            # the reply span itself) is still caused by this handler.
            self.tracer.end_span(exec_span, ts=self.world.now(),
                                 restore=False, error=failed)
        if reply_future is None and slot is None:
            return
        wire, result = self._roundtrip_result(result, msg.dst)
        if slot is not None:
            # Cache the outcome (success *or* error) before the reply
            # leg, which can still fail: a retry after an
            # executed-but-lost-reply must replay, not re-execute.
            dedup.complete(msg.token, wire)
        if reply_future is None:
            return
        self._send_reply(msg, result, wire.nbytes, reply_future)

    def _undecodable(self, msg: Message, reply_future: VirtualFuture | None,
                     exc: Exception) -> None:
        """A request whose payload pickled at send but does not unpickle
        (say, an exception whose ``__init__`` does not take its own
        ``args``): the handler never runs.  A one-way call is lost like
        any other message; a two-way caller is told why."""
        if reply_future is None:
            return self._drop(msg, "request", "undecodable request")
        wire, result = self._roundtrip_result(RemoteError(
            RemoteInvocationError(
                f"request {msg.kind} to {msg.dst} could not be decoded: "
                f"{exc!r}"), msg.dst), msg.dst)
        self._send_reply(msg, result, wire.nbytes, reply_future)

    def _roundtrip_result(self, result: Any, where: Addr) -> tuple[Wire, Any]:
        """Encode a reply once and decode the caller's copy of it —
        including :class:`RemoteError` results, so remote exceptions get
        copy semantics too.  Unpicklable values degrade to a picklable
        :class:`RemoteInvocationError` carrying the repr, instead of
        crossing the wire by reference (or killing the handler process
        and stranding the caller); the degraded value is what is sized."""
        try:
            wire = encode(result)
            return wire, decode(wire)
        except Exception:
            what = (
                f"raised an unpicklable exception: {result.exc!r}"
                if isinstance(result, RemoteError)
                else f"returned an unpicklable value: {result!r}"
            )
            degraded = RemoteError(RemoteInvocationError(
                f"remote handler at {where} {what}"), where)
            return encode(degraded), degraded

    def _sender_flops(self, nbytes: int) -> float:
        """What a leg of ``nbytes`` costs its sender's CPU: dispatch plus
        serialization.  0 outside a process (a call event, a test
        harness), where there is no sender to charge."""
        if self.world.kernel.current_process() is None:
            return 0.0
        return self.cpu_flops_per_msg + nbytes * self.cpu_flops_per_byte

    @staticmethod
    def _complete(future: VirtualFuture, result: Any) -> None:
        if not future.done():
            future.set_result(result)
