"""RPC over the simulated network — the stand-in for Java/RMI.

Agents register *endpoints* (one per ``(host, agent-name)`` pair) with
handlers keyed by message kind.  An RPC:

1. encodes the request payload once, at send — the blob that travels and
   its size (honoring nominal :class:`Payload` sizes) come from one pass,
2. charges the network (latency + bandwidth share + software overhead)
   from that size,
3. decodes the blob at each delivery and executes the handler **in its
   own spawned process at the destination** (JavaSymphony ran one thread
   per incoming request on the PubOA),
4. encodes the result once, charges the network again from its size and
   completes the caller's future with a decoded copy.

Failure semantics mirror a real LAN: messages to or from a failed host
are silently dropped — the caller learns about failures only through
timeouts, which is exactly what the paper's Network Agent System relies
on for failure detection.

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
    TransportError,
)
from repro.kernel.base import Future
from repro.obs import events as ev
from repro.obs.spans import TraceContext
from repro.simnet.world import SimWorld
from repro.util.ids import IdGenerator
from repro.util.serialization import Wire, decode, encode


class Addr(NamedTuple):
    """Transport address: which agent on which host."""

    host: str
    agent: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.agent}@{self.host}"


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
        because a dropped reply means the *caller's* host failed."""
        return self.dropped_requests + self.dropped_replies


class Endpoint:
    def __init__(self, transport: "Transport", addr: Addr) -> None:
        self.transport = transport
        self.addr = addr
        self._handlers: dict[str, Callable[[Message], Any]] = {}
        self.closed = False
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
        self.closed = True
        self.transport._unregister(self.addr)

    # -- convenience wrappers -------------------------------------------------

    def rpc(
        self,
        dst: Addr,
        kind: str,
        payload: Any = None,
        timeout: float | None = None,
    ) -> Any:
        """Blocking RPC; returns the reply value or raises the remote
        exception / :class:`repro.errors.RPCTimeoutError`.

        With a retry policy installed on the transport this becomes a
        *reliable* call: failed attempts are retried with backoff and
        exhaustion surfaces as
        :class:`repro.errors.RetriesExhaustedError`."""
        if self.transport.retry_policy is not None:
            return self.transport.reliable_rpc(
                self.addr, dst, kind, payload, timeout=timeout
            )
        return self.transport.rpc(self.addr, dst, kind, payload).result_or_timeout(
            timeout
        )

    def rpc_async(self, dst: Addr, kind: str, payload: Any = None) -> "Reply":
        return self.transport.rpc(self.addr, dst, kind, payload)

    def send_oneway(self, dst: Addr, kind: str, payload: Any = None) -> None:
        self.transport.send(self.addr, dst, kind, payload)


class Reply:
    """Caller-side handle on an in-flight RPC."""

    def __init__(self, future: Future, transport: "Transport",
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
        from repro.errors import RPCTimeoutError, WaitTimeout

        try:
            value = self._future.result(timeout)
        except WaitTimeout:
            tracer = self._transport.tracer
            if tracer.enabled:
                host = self._src.host
                tracer.emit(
                    ev.RPC_TIMEOUT, ts=self._transport.world.now(),
                    host=host, actor=str(self._src), kind=self._kind,
                    dst=str(self._dst), waited=timeout,
                )
                tracer.count("rpc.timeouts", host=host)
            raise RPCTimeoutError(
                f"no reply within {timeout} s (peer failed?)"
            ) from None
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
        #: :class:`repro.rmi.reliability.RetryPolicy` | None — when set,
        #: :meth:`Endpoint.rpc` routes through :meth:`reliable_rpc`.
        self.retry_policy = None
        #: :class:`repro.rmi.reliability.CircuitBreaker` | None
        self.health = None
        #: :class:`repro.chaos.ChaosInjector` | None — fault hook on the
        #: wire: may drop/duplicate/delay scheduled deliveries.
        self.chaos = None
        #: sender-side CPU cost of an RMI: dispatch plus serialization.
        #: JDK 1.2 object serialization ran at a handful of MB/s, a large
        #: part of why "a larger number of RMIs" degrades the paper's
        #: >10-node runs.  Charged as compute on the sending machine.
        self.cpu_flops_per_msg = 25_000.0
        self.cpu_flops_per_byte = 4.0

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

    def endpoint(self, addr: Addr) -> Endpoint | None:
        return self._endpoints.get(addr)

    # -- send path -------------------------------------------------------------

    def rpc(
        self,
        src: Addr,
        dst: Addr,
        kind: str,
        payload: Any,
        token: str | None = None,
    ) -> Reply:
        future = self.send(src, dst, kind, payload, oneway=False, token=token)
        return Reply(future, self, src=src, dst=dst, kind=kind)

    def reliable_rpc(
        self,
        src: Addr,
        dst: Addr,
        kind: str,
        payload: Any,
        timeout: float | None = None,
    ) -> Any:
        """Blocking RPC with retries, per :attr:`retry_policy`.

        Every attempt carries the same idempotency token (fresh
        ``msg_id``), so holders with a dedup cache execute at most once.
        Only transport-level failures (:class:`RPCTimeoutError`,
        :class:`NodeFailedError`) are retried — an application exception
        from the handler is a *delivered* outcome and re-raises
        immediately.  Exhaustion raises
        :class:`repro.errors.RetriesExhaustedError` carrying the
        per-attempt trace; an open circuit sheds the call up front with
        :class:`repro.errors.CircuitOpenError`."""
        from repro.errors import (
            CircuitOpenError,
            RetriesExhaustedError,
            RPCTimeoutError,
        )
        from repro.rmi.reliability import AttemptTrace

        policy = self.retry_policy
        kernel = self.world.kernel
        if kernel.current_process() is None:
            # No process to sleep in (module-level/test harness
            # callers): seed fire-once semantics.
            return self.rpc(src, dst, kind, payload).result_or_timeout(timeout)
        health = self.health
        token = self._ids.next("tok")
        per_attempt = policy.per_attempt_timeout(timeout)
        deadline = (
            None if policy.deadline is None
            else self.world.now() + policy.deadline
        )
        rng = self.world.rng.stream("retry")
        attempts: list = []
        for attempt in range(1, policy.max_attempts + 1):
            now = self.world.now()
            if health is not None and not health.allow(dst.host, now):
                if attempts:
                    raise RetriesExhaustedError(
                        f"{kind} to {dst}: circuit opened after "
                        f"{len(attempts)} failed attempt(s)",
                        attempts=attempts,
                    )
                raise CircuitOpenError(
                    f"{kind} to {dst}: circuit open for host {dst.host!r}"
                )
            started = self.world.now()
            try:
                value = self.rpc(
                    src, dst, kind, payload, token=token
                ).result_or_timeout(per_attempt)
            except (RPCTimeoutError, NodeFailedError) as exc:
                now = self.world.now()
                attempts.append(AttemptTrace(
                    attempt=attempt, dst=str(dst), kind=kind,
                    started=started, elapsed=now - started,
                    error=repr(exc),
                ))
                if health is not None:
                    health.record_failure(dst.host, now)
                backoff = policy.backoff(attempt, rng)
                out_of_budget = (
                    deadline is not None and now + backoff >= deadline
                )
                if attempt >= policy.max_attempts or out_of_budget:
                    raise RetriesExhaustedError(
                        f"{kind} to {dst} failed after {attempt} "
                        f"attempt(s)"
                        + (" (deadline exceeded)" if out_of_budget else ""),
                        attempts=attempts,
                    ) from exc
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.RPC_RETRY, ts=now, host=src.host,
                        actor=str(src), kind=kind, dst=str(dst),
                        attempt=attempt, backoff=backoff,
                        error=type(exc).__name__,
                    )
                    self.tracer.count("rpc.retries", host=src.host)
                kernel.sleep(backoff)
            else:
                if health is not None:
                    health.record_success(dst.host)
                return value
        raise AssertionError("unreachable: retry loop is bounded")

    def send(
        self,
        src: Addr,
        dst: Addr,
        kind: str,
        payload: Any,
        oneway: bool = True,
        token: str | None = None,
    ) -> Future | None:
        """Put one request on the wire; returns the reply future of a
        two-way send.  The payload is flattened here, so the callee sees
        the value as it was at this instant."""
        # First, so that an unpicklable payload fails in the sender
        # before a counter moves or a future exists.
        wire = encode(payload)
        nbytes = wire.nbytes
        reply_future = None
        if oneway:
            self.stats.oneways += 1
        else:
            self.stats.rpcs += 1
            reply_future = self.world.kernel.create_future()
        self.stats.messages += 1
        self.stats.by_kind[kind] = self.stats.by_kind.get(kind, 0) + 1
        self.stats.bytes_total += nbytes
        msg = Message(
            msg_id=self._ids.next("msg"),
            src=src,
            dst=dst,
            kind=kind,
            payload=wire,
            nbytes=nbytes,
            sent_at=self.world.now(),
            token=token,
            nominal=wire.nominal,
        )
        self._charge_sender_cpu(src.host, nbytes)
        try:
            delay = self.world.transfer_delay(src.host, dst.host, nbytes)
        except NodeFailedError:
            # Dropped on the floor; the caller's timeout is the detector.
            self.stats.dropped_requests += 1
            self._trace_drop(msg, "request", "host failed")
            return reply_future
        key = (src.host, dst.host)
        deliver_at = max(self.world.now() + delay,
                         self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = deliver_at
        if self.tracer.enabled:
            msg.ctx = self.tracer.emit_span(
                ev.RPC_REQUEST, ts=msg.sent_at, host=src.host,
                actor=str(src), dur=deliver_at - msg.sent_at,
                kind=kind, nbytes=nbytes, src=str(src), dst=str(dst),
                msg_id=msg.msg_id, oneway=oneway,
            )
            self.tracer.count(f"rpc.bytes:{kind}", nbytes, host=src.host)
        # Chaos runs *after* the FIFO floor: faulted deliveries shift
        # individually, which is exactly how reordering becomes possible
        # on an otherwise in-order connection.
        deliveries = [deliver_at]
        if self.chaos is not None:
            deliveries = self.chaos.filter(msg, "request", deliver_at)
            if not deliveries:
                self.stats.dropped_requests += 1
                self._trace_drop(msg, "request", "chaos")
                return reply_future
        for at in deliveries:
            self.world.kernel.call_at(at, self._deliver, msg, reply_future)
        return reply_future

    # -- receive path ------------------------------------------------------------

    def _deliver(self, msg: Message, reply_future: Future | None) -> None:
        if self.world.machine(msg.dst.host).failed:
            self.stats.dropped_requests += 1
            self._trace_drop(msg, "request", "destination failed")
            return
        endpoint = self._endpoints.get(msg.dst)
        if endpoint is None or endpoint.closed:
            self.stats.dropped_requests += 1
            self._trace_drop(msg, "request", "no such endpoint")
            return
        # Decoding is the copy, and each delivery makes its own: the
        # handlers of a duplicated request must not share an argument.
        # (Spelled out: dataclasses.replace costs six times as much.)
        delivered = Message(
            msg.msg_id, msg.src, msg.dst, msg.kind, decode(msg.payload),
            msg.nbytes, msg.sent_at, msg.ctx, msg.token, msg.nominal,
        )
        # One process per incoming request, as the paper's PubOA runs one
        # thread per request.
        self.world.kernel.spawn(
            self._execute,
            endpoint,
            delivered,
            reply_future,
            name=f"handle-{msg.kind}@{msg.dst.host}",
            context={"addr": msg.dst},
        )

    def _execute(
        self, endpoint: Endpoint, msg: Message, reply_future: Future | None
    ) -> None:
        dedup = endpoint.dedup
        slot = None
        if msg.token is not None and dedup is not None:
            is_new, slot = dedup.claim(msg.token)
            if not is_new:
                # Duplicate of a tokened call: at-most-once execution.
                # Wait for the original's outcome (it may still be
                # running) and replay the reply instead of re-executing.
                if self.tracer.enabled:
                    self.tracer.count("rpc.dedup.hits", host=msg.dst.host)
                wire = slot.future.result()
                if reply_future is not None:
                    # A fresh copy per reply, so one caller mutating the
                    # value cannot pollute the cached outcome.
                    self._send_reply(msg, decode(wire), wire.nbytes,
                                     reply_future)
                return
        exec_start = self.world.now()
        exec_span = None
        if self.tracer.enabled:
            # The handler process joins the sender's trace: the exec span
            # parents under the request span carried on the message.
            exec_span = self.tracer.begin_span(
                ev.RPC_EXEC, ts=exec_start, host=msg.dst.host,
                actor=str(msg.dst), parent=msg.ctx,
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

    def _send_reply(
        self, msg: Message, result: Any, nbytes: int, reply_future: Future
    ) -> None:
        """Charge and schedule the reply leg for an executed request:
        ``result`` is the caller's decoded copy, ``nbytes`` the size of
        the wire it was decoded from."""
        reply_kind = msg.kind + ":reply"
        self.stats.messages += 1
        self.stats.by_kind[reply_kind] = (
            self.stats.by_kind.get(reply_kind, 0) + 1
        )
        self.stats.bytes_total += nbytes
        try:
            self._charge_sender_cpu(msg.dst.host, nbytes)
            delay = self.world.transfer_delay(msg.dst.host, msg.src.host, nbytes)
        except NodeFailedError:
            # The *caller's* host failed while we were executing.
            self.stats.dropped_replies += 1
            self._trace_drop(msg, "reply", "caller failed")
            return
        key = (msg.dst.host, msg.src.host)
        deliver_at = max(self.world.now() + delay,
                         self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = deliver_at
        if self.tracer.enabled:
            t_reply = self.world.now()
            # Current context is still the exec span (restore=False
            # above), so the reply span is its child — every cross-host
            # reply descends from the request that caused it.
            self.tracer.emit_span(
                ev.RPC_REPLY, ts=t_reply, host=msg.dst.host,
                actor=str(msg.dst), dur=deliver_at - t_reply,
                kind=reply_kind, nbytes=nbytes, src=str(msg.dst),
                dst=str(msg.src), msg_id=msg.msg_id,
            )
            self.tracer.count(f"rpc.bytes:{reply_kind}", nbytes,
                              host=msg.dst.host)
            # Latency is the caller-observed round trip; attribute it to
            # the calling host so per-host percentiles mean "RPCs this
            # machine issued".
            self.tracer.observe(
                f"rpc.latency:{msg.kind}", deliver_at - msg.sent_at,
                host=msg.src.host,
            )
        deliveries = [deliver_at]
        if self.chaos is not None:
            deliveries = self.chaos.filter(msg, "reply", deliver_at)
            if not deliveries:
                self.stats.dropped_replies += 1
                self._trace_drop(msg, "reply", "chaos")
                return
        for at in deliveries:
            # Duplicate replies are harmless: _complete is idempotent.
            self.world.kernel.call_at(
                at, self._complete, reply_future, result
            )

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
            if isinstance(result, RemoteError):
                synthesized: BaseException = RemoteInvocationError(
                    f"remote handler at {where} raised an unpicklable "
                    f"exception: {result.exc!r}"
                )
            else:
                synthesized = RemoteInvocationError(
                    f"remote handler at {where} returned an unpicklable "
                    f"value: {result!r}"
                )
            degraded = RemoteError(exc=synthesized, where=where)
            return encode(degraded), degraded

    def _trace_drop(self, msg: Message, stage: str, reason: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                ev.RPC_DROP, ts=self.world.now(), host=msg.dst.host,
                actor=str(msg.dst), ctx=msg.ctx, kind=msg.kind,
                stage=stage, reason=reason, msg_id=msg.msg_id,
            )
            self.tracer.count(f"rpc.dropped:{stage}", host=msg.dst.host)

    def _charge_sender_cpu(self, host: str, nbytes: int) -> None:
        flops = self.cpu_flops_per_msg + nbytes * self.cpu_flops_per_byte
        if flops > 0 and self.world.kernel.current_process() is not None:
            self.world.compute(host, flops)

    @staticmethod
    def _complete(future: Future, result: Any) -> None:
        if not future.done():
            future.set_result(result)
