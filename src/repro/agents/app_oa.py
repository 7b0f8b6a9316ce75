"""The application object agent (AppOA), one per registered application.

The AppOA lives on the application's home node.  It keeps the
*local-objects-table* for this application's objects: the unique handle,
the holder location (authoritative — the migration protocol keeps the
origin informed, paper Figure 3), pending invocation results and
executing flags.  Applications call the AppOA by direct local method
invocation; everything beyond the home node goes over the transport.

Also implemented here:

* the three invocation modes (sync / async / one-sided), with one worker
  process per asynchronous invocation (paper Section 5.2: "one thread for
  every asynchronous method invocation");
* RMI redirection on migrated objects (Figure 4): a stale holder answers
  ``Moved``; the caller re-resolves via the object's *origin* AppOA and
  retries;
* the AppOA half of automatic migration: on a ``CONSTRAINTS_VIOLATED``
  notification it moves its objects off violating nodes with
  same-cluster → same-site → anywhere locality preference.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.agents import messages as M
from repro.agents.holder_endpoints import HolderEndpoints
from repro.agents.messages import BatchFailure, Moved, UnknownObject
from repro.agents.objects import ClassRegistry, ObjectRef
from repro.errors import (
    MigrationError,
    ObjectStateError,
    PersistenceError,
    RegistrationError,
    RemoteInvocationError,
    RetriesExhaustedError,
    TransportError,
)
from repro.obs import events as ev
from repro.obs import spans
from repro.rmi.handle import ResultHandle
from repro.rmi.multi import MultiHandle
from repro.transport import Addr
from repro.util.serialization import Payload

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import JSRuntime

_MAX_REDIRECTS = 8

#: default calls-per-message cap of the ainvoke coalescing buffer
DEFAULT_COALESCE_BATCH = 16


@dataclass
class RefEntry:
    """local-objects-table row for an object originated by this app."""

    ref: ObjectRef
    location: Addr
    pending: int = 0            # in-flight async/batched invocations
    #: futures completed when ``pending`` drops to zero (migrate drain)
    drain_waiters: list = field(default_factory=list)
    auto_migrations: int = 0
    meta: dict = field(default_factory=dict)


@dataclass(slots=True)
class _Call:
    """One invocation in flight, whatever its mode: the wire triple,
    the caller-side future (the modes that hand out a handle) and the
    tracer span (tracing on)."""

    ref: ObjectRef
    method: str
    params: Any
    mode: str                   # "sync" | "async" | "oneway" | "batch"
    coalesced: bool = False     # an ainvoke buffered by coalescing()
    future: Any = None
    span: Any = None


#: per-call (counter, latency histogram) by mode.  Batch slots and
#: coalesced calls have none: their group is counted when it ships.
_CALL_METRICS = {
    "sync": ("invoke.sync", "invoke.latency:sync"),
    "async": ("invoke.async", "invoke.latency:async"),
    "oneway": ("invoke.oneway", None),
}


class _InvokeCoalescer:
    """Per-destination buffering of async invocations.

    Inside a :meth:`AppOA.coalescing` window every ``ainvoke`` appends
    to the buffer of its resolved destination instead of shipping its
    own message.  A buffer ships as one ``INVOKE_BATCH`` when it reaches
    ``max_batch`` calls, on an explicit ``flush()``, or automatically on
    the next scheduler tick: a spawned flusher runs as soon as the
    buffering process yields, so a burst issued inside one tick
    piggybacks onto one message without ever stalling the application.
    """

    def __init__(self, app: "AppOA",
                 max_batch: int = DEFAULT_COALESCE_BATCH) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.app = app
        self.max_batch = max_batch
        self._buffers: dict[Addr, list[_Call]] = {}
        self._flush_scheduled = False

    def add(self, dest: Addr, call: _Call) -> None:
        buffer = self._buffers.setdefault(dest, [])
        buffer.append(call)
        if len(buffer) >= self.max_batch:
            self._ship(dest, self._buffers.pop(dest))
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self.app._spawn(self._scheduled_flush,
                            name=f"minvoke-flush@{self.app.app_id}")

    def _scheduled_flush(self) -> None:
        self._flush_scheduled = False
        self.flush()

    def flush(self) -> None:
        """Ship every buffered group now."""
        buffers, self._buffers = self._buffers, {}
        for dest, group in buffers.items():
            self._ship(dest, group)

    def _ship(self, dest: Addr, group: list[_Call]) -> None:
        app = self.app
        app._spawn_batch(
            dest, group, app._open_batch(dest, len(group), coalesced=True)
        )


class AppOA(HolderEndpoints):
    def __init__(self, runtime: "JSRuntime", app_id: str, home: str) -> None:
        self.runtime = runtime
        self.world = runtime.world
        self.tracer = runtime.world.tracer
        self.app_id = app_id
        self.home = home
        self.addr = Addr(home, f"app:{app_id}")
        self.endpoint = runtime.transport.create_endpoint(self.addr)
        self.loaded_classes: set[str] = set()  # the app's local CLASSPATH
        self.refs: dict[str, RefEntry] = {}
        #: location cache for handles originated by *other* applications
        self.foreign_locations: dict[str, Addr] = {}
        #: in-flight async invocations on refs without a RefEntry row
        #: (remote-origin handles, static segments)
        self.foreign_pending: dict[str, int] = {}
        #: active ainvoke coalescing buffer (None outside coalescing())
        self._coalescer: _InvokeCoalescer | None = None
        self.watch_ids: list[str] = []
        self.closed = False
        self.init_holder()
        self.register_holder_handlers()
        self.endpoint.register(M.GET_LOCATION, self._h_get_location)
        self.endpoint.register(
            M.CONSTRAINTS_VIOLATED, self._h_constraints_violated
        )

    # The application's own classes are on its CLASSPATH: anything
    # registered globally can be instantiated *locally* without an
    # explicit codebase load (paper Section 4.3: class files must be
    # "locally in the CLASSPATH or at an arbitrary URL").
    def class_available(self, class_name: str) -> bool:
        return ClassRegistry.known(class_name)

    def _check_open(self) -> None:
        if self.closed:
            raise RegistrationError(
                f"application {self.app_id} has unregistered"
            )

    @property
    def rpc_timeout(self) -> float | None:
        return self.runtime.shell.config.rpc_timeout

    migration_timeout = rpc_timeout  # the Figure-3 push waits as long

    # ------------------------------------------------------------------------
    # object creation / free
    # ------------------------------------------------------------------------

    def create_object(
        self, class_name: str, host: str, args: tuple = ()
    ) -> ObjectRef:
        self._check_open()
        obj_id = self.runtime.ids.next(f"{self.app_id}:obj")
        if host == self.home:
            # Locally generated objects live in the AppOA's own table.
            location = self.addr
            self.hold_new_object(obj_id, class_name, self.addr, args)
        else:
            location = Addr(host, "oa")
            self.endpoint.rpc(
                location,
                M.CREATE_OBJECT,
                (obj_id, class_name, self.addr, args),
                timeout=self.rpc_timeout,
            )
        ref = ObjectRef(obj_id, class_name, self.addr, location)
        self._note_refs_write(obj_id)
        self.refs[obj_id] = RefEntry(ref=ref, location=location)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.OBJ_CREATE, ts=self.world.now(), host=location.host,
                actor=self.actor, obj_id=obj_id, class_name=class_name,
                location=str(location),
            )
            self.tracer.count("obj.created", host=self.home)
        return ref

    def free_object(self, ref: ObjectRef) -> None:
        self._check_open()
        entry = self._own_entry(ref)
        if entry.location == self.addr:
            self.drop_object(ref.obj_id)
        else:
            self.endpoint.rpc(
                entry.location, M.FREE_OBJECT, ref.obj_id,
                timeout=self.rpc_timeout,
            )
        self._note_refs_write(ref.obj_id)
        del self.refs[ref.obj_id]
        if self.tracer.enabled:
            self.tracer.emit(
                ev.OBJ_FREE, ts=self.world.now(), host=entry.location.host,
                actor=self.actor, obj_id=ref.obj_id,
                class_name=ref.class_name, location=str(entry.location),
            )
            self.tracer.count("obj.freed", host=self.home)

    def _note_refs_write(self, obj_id: str) -> None:
        """Tell the sanitizer this process is about to write
        ``refs[obj_id]`` (a no-op unless sanitizing): one entry is written
        by one process at a time, which symsan checks here at run time."""
        san = self.world.kernel.sanitizer
        if san.enabled:
            san.access(f"AppOA[{self.app_id}]", f"refs[{obj_id}]",
                       scope=self.world.kernel)

    def _own_entry(self, ref: ObjectRef) -> RefEntry:
        entry = self.refs.get(ref.obj_id)
        if entry is None:
            raise ObjectStateError(
                f"object {ref.obj_id} is not (or no longer) registered "
                f"with application {self.app_id}"
            )
        return entry

    # ------------------------------------------------------------------------
    # location resolution (Figure 4)
    # ------------------------------------------------------------------------

    def _h_get_location(self, msg):
        obj_id = msg.payload
        entry = self.refs.get(obj_id)
        if entry is None:
            return UnknownObject(obj_id)
        return entry.location

    def _location_of(self, ref: ObjectRef) -> Addr:
        if ref.origin == self.addr:
            if ref.obj_id in self.objects and ref.obj_id not in self.refs:
                # Held here without a table row: a local static segment.
                return self.addr
            return self._own_entry(ref).location
        return self.foreign_locations.get(ref.obj_id, ref.location_hint)

    def _update_location(self, ref: ObjectRef, location: Addr) -> None:
        if ref.origin == self.addr:
            entry = self.refs.get(ref.obj_id)
            if entry is not None:
                entry.location = location
        else:
            # A location cache: last writer wins, and a stale entry only
            # costs a redirect.
            self.foreign_locations[ref.obj_id] = location

    def _resolve_via_origin(self, ref: ObjectRef) -> Addr:
        """Ask the AppOA the object originates from for its location."""
        if ref.origin == self.addr:
            return self._own_entry(ref).location
        answer = self.endpoint.rpc(
            ref.origin, M.GET_LOCATION, ref.obj_id, timeout=self.rpc_timeout
        )
        if isinstance(answer, UnknownObject):
            raise ObjectStateError(
                f"origin {ref.origin} no longer knows object {ref.obj_id} "
                "(freed?)"
            )
        self._update_location(ref, answer)
        return answer

    # ------------------------------------------------------------------------
    # invocation (paper Section 4.5).  One lifecycle for every mode, see
    # DESIGN.md "Invocation pipeline": _open_call, a carrier (inline, a
    # worker, a batch group), _settle.
    # ------------------------------------------------------------------------

    def sinvoke(self, ref: ObjectRef, method: str, params: Any = ()) -> Any:
        """Synchronous (blocking) remote method invocation."""
        self._check_open()
        if not self.tracer.enabled:
            return self._invoke_with_redirect(ref, method, params)
        call = self._open_call(_Call(ref, method, params, "sync"),
                               install=True)
        try:
            result = self._invoke_with_redirect(ref, method, params)
        except BaseException:
            self._close_call(call, error=True)
            raise
        self._close_call(call)
        return result

    def ainvoke(
        self, ref: ObjectRef, method: str, params: Any = ()
    ) -> ResultHandle:
        """Asynchronous invocation: returns a :class:`ResultHandle`
        immediately; a dedicated worker process carries the RMI.
        Inside a :meth:`coalescing` window the call is buffered and
        piggybacks onto a per-destination ``INVOKE_BATCH`` instead."""
        self._check_open()
        if self._coalescer is not None:
            # Resolved before the call is opened: a dead handle raises
            # here, with nothing counted or traced yet.
            dest = self._location_of(ref)
            call = self._open_call(_Call(ref, method, params, "async", True))
            self._coalescer.add(dest, call)
        else:
            call = self._open_call(_Call(ref, method, params, "async"))
            self._spawn(self._chase, call,
                        name=f"ainvoke-{method}@{self.app_id}")
        return self._handle(call)

    def oinvoke(self, ref: ObjectRef, method: str, params: Any = ()) -> None:
        """One-sided invocation: no result, no completion wait."""
        self._check_open()
        location = self._location_of(ref)
        call = self._open_call(_Call(ref, method, params, "oneway"))
        if location == self.addr:
            # Local object: run it in the background without reply
            # traffic.  The span travels with the worker so its duration
            # covers the actual dispatch, not just this resolve-and-spawn.
            self._spawn(self._fire_oneway, call, location,
                        name=f"oinvoke-{method}@{self.app_id}")
        else:
            self._fire_oneway(call, location)

    def _fire_oneway(self, call: _Call, location: Addr) -> None:
        payload = (call.ref.obj_id, call.method, call.params)
        prev = None
        if call.span is not None:
            prev = spans.set_context(call.span.ctx)
        try:
            if location == self.addr:
                try:
                    self.dispatch_oneway(payload)
                except Exception:  # noqa: BLE001 - one-sided semantics
                    # Dropped, exactly as a remote one-sided invocation
                    # would drop it (fire and forget).
                    pass
            elif self.runtime.transport.retrier is not None:
                # Reliability on: carry the one-sided call on an acked,
                # retried RPC so a dropped message does not silently
                # lose it.  Still fire-and-forget for the application.
                self._spawn(self._acked_oneway, location, payload,
                            name=f"oinvoke-reliable@{self.app_id}")
            else:
                self.endpoint.send_oneway(location, M.ONEWAY_INVOKE, payload)
        finally:
            if call.span is not None:
                self._close_call(call)
                spans.set_context(prev)

    def _acked_oneway(self, location: Addr, payload: Any) -> None:
        """Worker body of a reliable one-sided call.

        ``ONEWAY_INVOKE`` replies ``None``, which here serves purely as
        a delivery ack.  Transport failures (including exhausted
        retries) are swallowed: one-sided semantics promise the caller
        nothing, so best-effort-with-retries strictly improves on the
        bare ``send_oneway`` without changing the API contract."""
        try:
            self.endpoint.rpc(
                location, M.ONEWAY_INVOKE, payload, timeout=self.rpc_timeout
            )
        except TransportError:
            pass

    # -- the call lifecycle ---------------------------------------------------

    def _open_call(self, call: _Call, install: bool = False,
                   parent: Any = None) -> _Call:
        """Open a call: a future and a pending count for the modes that
        hand out a handle, and with tracing on its ``obj.invoke`` span,
        a child of ``parent`` or else of the caller's current span.
        Only ``sinvoke`` installs it; otherwise it belongs to whichever
        process carries the call, and is opened here so the handle can
        link its get_result wait span to the invocation."""
        if call.mode == "async" or call.mode == "batch":
            call.future = self.world.kernel.create_future()
            self._pending_incr(call.ref)
        tracer = self.tracer
        if tracer.enabled:
            fields = {"obj_id": call.ref.obj_id, "method": call.method,
                      "mode": call.mode}
            if call.coalesced:
                fields["coalesced"] = True
            if parent is None:
                parent = spans.current_context()
            call.span = tracer.begin_span(ev.OBJ_INVOKE, self.world.now(),
                                          self.home, self.actor, parent,
                                          install, **fields)
        return call

    def _close_call(self, call: _Call, error: bool = False) -> None:
        """End a traced call's span and record its per-mode metrics."""
        tracer = self.tracer
        now = self.world.now()
        if error:
            tracer.end_span(call.span, ts=now, error=True)
        else:
            tracer.end_span(call.span, ts=now)
        metrics = None if call.coalesced else _CALL_METRICS.get(call.mode)
        if metrics is not None:
            counter, latency = metrics
            tracer.count(counter, host=self.home)
            if latency is not None:
                tracer.observe(latency, now - call.span.ts, host=self.home)

    def _settle(self, call: _Call, result: Any = None,
                exc: BaseException | None = None) -> None:
        """The one way a call with a handle ends: complete its future,
        release its pending count, close its span."""
        try:
            if exc is not None:
                call.future.set_exception(exc)
            else:
                call.future.set_result(result)
        finally:
            self._pending_decr(call.ref)
            if call.span is not None:
                self._close_call(call, exc is not None)

    def _chase(self, call: _Call) -> None:
        """Drive one call to its outcome by the redirect chase (Figure
        4), under the call's own span, and settle it.  This is the
        whole worker of a scalar ``ainvoke`` and the per-slot fallback
        of a batch group: a stale slot re-resolves on its own, and the
        slots of a group whose message exhausted its retries each get a
        fresh chase and a fresh retry budget."""
        prev = None
        if call.span is not None:
            prev = spans.set_context(call.span.ctx)
        try:
            result = self._invoke_with_redirect(
                call.ref, call.method, call.params
            )
        except BaseException as exc:  # noqa: BLE001 - to the handle
            self._settle(call, exc=exc)
        else:
            self._settle(call, result=result)
        finally:
            if call.span is not None:
                spans.set_context(prev)

    def _handle(self, call: _Call) -> ResultHandle:
        return ResultHandle(
            call.future,
            ctx=call.span.ctx if call.span is not None else None,
            label=f"{call.ref.obj_id}.{call.method}",
        )

    def _spawn(self, fn: Any, *args: Any, name: str) -> None:
        """Every process this agent starts: one worker per asynchronous
        invocation, one-sided call, batch group, flush or auto-migration
        (paper Section 5.2)."""
        self.world.kernel.spawn(fn, *args, name=name, context={})

    # ------------------------------------------------------------------------
    # bulk invocation (extension: per-destination request batching)
    # ------------------------------------------------------------------------

    def minvoke(self, calls: Any, mapper: Any = None) -> MultiHandle:
        """Bulk invocation: group ``(ref, method, params)`` calls by
        resolved destination and ship each group as one
        ``INVOKE_BATCH`` message.  Returns a :class:`MultiHandle` with
        one handle per call, in request order; per-call failures and
        ``Moved`` redirects stay per-call (one stale or raising call
        never fails its batch-mates)."""
        self._check_open()
        # Every destination is resolved before any call is opened: a
        # dead handle in the list raises here, not after its batch-mates
        # took a pending count that nothing would release.
        items: list[_Call] = []
        groups: dict[Addr, list[_Call]] = {}
        for ref, method, params in calls:
            call = _Call(ref, method, params, "batch")
            items.append(call)
            groups.setdefault(self._location_of(ref), []).append(call)
        for dest, group in groups.items():
            # The batch span parents every per-call span of its group.
            bspan = self._open_batch(dest, len(group), coalesced=False)
            parent = bspan.ctx if bspan is not None else None
            for call in group:
                self._open_call(call, parent=parent)
            self._spawn_batch(dest, group, bspan)
        return MultiHandle(
            [self._handle(call) for call in items], mapper=mapper
        )

    @contextmanager
    def coalescing(self, max_batch: int = DEFAULT_COALESCE_BATCH):
        """Context manager: buffer ``ainvoke`` bursts per destination
        and ship each group as one ``INVOKE_BATCH``.  Buffers flush at
        ``max_batch`` calls, on :meth:`flush_invokes`, automatically on
        the next scheduler tick, and when the window closes."""
        self._check_open()
        previous = self._coalescer
        coalescer = _InvokeCoalescer(self, max_batch)
        self._coalescer = coalescer
        try:
            yield coalescer
        finally:
            self._coalescer = previous
            coalescer.flush()

    def flush_invokes(self) -> None:
        """Ship anything buffered by an active :meth:`coalescing`
        window immediately."""
        if self._coalescer is not None:
            self._coalescer.flush()

    def _open_batch(self, dest: Addr, size: int, coalesced: bool) -> Any:
        """The ``obj.invoke.batch`` span of one destination group (None
        with tracing off); install=False — it belongs to the shipping
        worker, not to this caller."""
        if not self.tracer.enabled:
            return None
        return self.tracer.begin_span(
            ev.OBJ_INVOKE_BATCH, ts=self.world.now(), host=self.home,
            actor=self.actor, install=False, dest=str(dest),
            size=size, coalesced=coalesced,
        )

    def _spawn_batch(self, dest: Addr, group: list[_Call],
                     bspan: Any) -> None:
        """Ship one destination group on a dedicated worker process."""
        self._spawn(self._carry_batch, dest, group, bspan,
                    name=f"minvoke@{self.app_id}->{dest.host}")

    def _carry_batch(self, dest: Addr, group: list[_Call],
                     bspan: Any) -> None:
        tracer = self.tracer
        if bspan is not None:
            spans.set_context(bspan.ctx)
        try:
            self._run_batch(dest, group)
        finally:
            if bspan is not None:
                tracer.count("invoke.batched", len(group), host=self.home)
                tracer.count("invoke.batch.messages", host=self.home)
                tracer.observe("batch.size", len(group), host=self.home)
                tracer.end_span(bspan, ts=self.world.now())

    def _run_batch(self, dest: Addr, group: list[_Call]) -> None:
        payload = [(c.ref.obj_id, c.method, c.params) for c in group]
        remote = dest != self.addr
        if not remote:
            outcomes = self.dispatch_invoke_batch(payload)
        else:
            try:
                outcomes = self.endpoint.rpc(
                    dest, M.INVOKE_BATCH, payload, timeout=self.rpc_timeout
                )
            except RetriesExhaustedError:
                # Graceful degradation: the batch message is poisoned
                # (too big for the loss rate, or the destination is
                # sick), but the calls need not share its fate — retry
                # each slot as a scalar invocation so only genuinely
                # failed slots surface errors: a migrated-away or
                # restarted holder rescues its slots while truly dead
                # ones fail with their own RetriesExhaustedError.
                if self.tracer.enabled:
                    self.tracer.count("invoke.batch.degraded",
                                      host=self.home)
                for call in group:
                    self._chase(call)
                return
            except BaseException as exc:  # noqa: BLE001 - to every handle
                for call in group:
                    self._settle(call, exc=exc)
                return
        if not isinstance(outcomes, list) or len(outcomes) != len(group):
            exc = ObjectStateError(
                f"malformed INVOKE_BATCH reply from {dest}: {outcomes!r}"
            )
            for call in group:
                self._settle(call, exc=exc)
            return
        for call, outcome in zip(group, outcomes):
            if isinstance(outcome, (Moved, UnknownObject)):
                # Per-call stale slot: chase this one redirect on its
                # own (Figure 4) so a migrated object does not fail its
                # batch-mates.
                if isinstance(outcome, Moved) and outcome.hint is not None:
                    self._update_location(call.ref, outcome.hint)
                self._chase(call)
            elif isinstance(outcome, BatchFailure):
                exc = outcome.exc
                if remote and not isinstance(exc, RemoteInvocationError):
                    # Same caller-facing family as a scalar remote
                    # invocation failure.
                    exc = RemoteInvocationError(
                        f"batched call {call.ref.obj_id}.{call.method} at "
                        f"{dest} raised {outcome.exc!r}",
                        cause=outcome.exc,
                    )
                self._settle(call, exc=exc)
            else:
                self._settle(call, result=outcome)

    # ------------------------------------------------------------------------
    # pending-invocation tracking (drained before migration)
    # ------------------------------------------------------------------------

    def _pending_incr(self, ref: ObjectRef) -> None:
        entry = self.refs.get(ref.obj_id)
        if entry is not None:
            entry.pending += 1
        else:
            # Remote-origin handles and static segments have no
            # RefEntry row but their in-flight calls count too.
            self.foreign_pending[ref.obj_id] = (
                self.foreign_pending.get(ref.obj_id, 0) + 1
            )

    def _pending_decr(self, ref: ObjectRef) -> None:
        entry = self.refs.get(ref.obj_id)
        if entry is not None and entry.pending > 0:
            entry.pending -= 1
            if entry.pending == 0 and entry.drain_waiters:
                drained, entry.drain_waiters = entry.drain_waiters, []
                for waiter in drained:
                    waiter.set_result(None)
        else:
            left = self.foreign_pending.get(ref.obj_id)
            if left is not None:
                if left <= 1:
                    del self.foreign_pending[ref.obj_id]
                else:
                    self.foreign_pending[ref.obj_id] = left - 1

    def pending_invocations(self, obj_id: str) -> int:
        """In-flight async/batched invocations issued through this
        AppOA for ``obj_id`` (own and foreign refs alike)."""
        entry = self.refs.get(obj_id)
        own = entry.pending if entry is not None else 0
        return own + self.foreign_pending.get(obj_id, 0)

    def _invoke_with_redirect(
        self, ref: ObjectRef, method: str, params: Any
    ) -> Any:
        asked_origin = False
        location = self._location_of(ref)
        for _ in range(_MAX_REDIRECTS):
            if location == self.addr:
                outcome = self.dispatch_invoke(ref.obj_id, method, params)
            else:
                outcome = self.endpoint.rpc(
                    location,
                    M.INVOKE,
                    (ref.obj_id, method, params),
                    timeout=self.rpc_timeout,
                )
            if isinstance(outcome, Moved):
                # Stale reference: chase the tombstone hint if present,
                # otherwise ask the origin (Figure 4).
                if outcome.hint is not None:
                    location = outcome.hint
                    self._update_location(ref, location)
                else:  # pragma: no cover - tombstones always carry hints
                    location = self._resolve_via_origin(ref)
                    asked_origin = True
                continue
            if isinstance(outcome, UnknownObject):
                if asked_origin:
                    raise ObjectStateError(
                        f"object {ref.obj_id} not found anywhere "
                        "(freed while invoking?)"
                    )
                location = self._resolve_via_origin(ref)
                asked_origin = True
                continue
            return outcome
        raise ObjectStateError(
            f"gave up invoking {method} on {ref.obj_id} after "
            f"{_MAX_REDIRECTS} redirects"
        )

    # ------------------------------------------------------------------------
    # migration (paper Figure 3: ao -> pa1 -> pa2)
    # ------------------------------------------------------------------------

    def migrate_object(self, ref: ObjectRef, target_host: str) -> Addr:
        self._check_open()
        entry = self._own_entry(ref)
        src = entry.location
        dst = self.addr if target_host == self.home else Addr(target_host, "oa")
        if src == dst:
            return dst
        self._drain_pending(entry)
        with self._span(ev.MIGRATE, "migrations", "migrate.duration",
                        obj_id=ref.obj_id, src=str(src), dst=str(dst)):
            if src == self.addr:
                # The object lives in our own table: run pa1's side inline.
                outcome = self.migrate_out(ref.obj_id, dst)
            else:
                outcome = self.endpoint.rpc(
                    src, M.MIGRATE_OUT, (ref.obj_id, dst),
                    timeout=self.rpc_timeout,
                )
            if not isinstance(outcome, dict) or "new_location" not in outcome:
                raise MigrationError(
                    f"unexpected migration outcome {outcome!r}"
                )
            entry.location = dst
        return dst

    @contextmanager
    def _span(self, etype: str, counter: str, latency: str | None = None,
              **fields: Any):
        """Bracket a region of this agent with an installed span (tracing
        on).  A region that raises closes it with ``error=True``; one
        that completes closes it with the fields it put into the yielded
        dict and is counted under ``counter``, its duration observed
        under ``latency``."""
        tracer = self.tracer
        closing: dict = {}
        if not tracer.enabled:
            yield closing
            return
        span = tracer.begin_span(
            etype, ts=self.world.now(), host=self.home, actor=self.actor,
            **fields,
        )
        try:
            yield closing
        except BaseException:
            tracer.end_span(span, ts=self.world.now(), error=True)
            raise
        now = self.world.now()
        tracer.end_span(span, ts=now, **closing)
        tracer.count(counter, host=self.home)
        if latency is not None:
            tracer.observe(latency, now - span.ts, host=self.home)

    def _drain_pending(self, entry: RefEntry) -> None:
        """Wait for this app's in-flight async invocations on the object
        before migrating it (paper: "migration is delayed until all
        unfinished method invocations have completed").  The holder-side
        quiescence wait only covers invocations already dispatched
        there; calls issued here may still be on the wire.  The wait is
        bounded by ``shell.config.migrate_drain_timeout`` (None = drain
        fully): on expiry migration proceeds and the stragglers are
        handed off to the tombstone redirect — safe, but worth a
        sanitizer finding because the application is racing itself."""
        if entry.pending <= 0:
            return
        self.flush_invokes()  # buffered coalesced calls count as pending
        kernel = self.world.kernel
        drain_start = self.world.now()
        timeout = self.runtime.shell.config.migrate_drain_timeout
        # Event-driven, not polled: _pending_decr completes the waiter
        # on the 0-transition, so the drain costs one wakeup instead of
        # a context-switch per poll tick (which starves long runs).
        waiter = kernel.create_future()
        drained = entry.pending <= 0
        if not drained:
            entry.drain_waiters.append(waiter)
            drained = waiter.wait(timeout)
            if not drained and waiter in entry.drain_waiters:
                entry.drain_waiters.remove(waiter)
        tracer = self.tracer
        if tracer.enabled:
            # How long invocations stayed pending against this migration;
            # the SLO watcher's pending-age rule reads the windowed max.
            tracer.observe("migrate.pending_age",
                           self.world.now() - drain_start, host=self.home)
        if not drained and entry.pending > 0:
            san = kernel.sanitizer
            if san.enabled:
                san.migrate_with_pending(
                    f"AppOA[{self.app_id}]", entry.ref.obj_id, entry.pending
                )

    # ------------------------------------------------------------------------
    # persistence (paper Section 4.7)
    # ------------------------------------------------------------------------

    def store_object(self, ref: ObjectRef, key: str | None = None) -> str:
        self._check_open()
        entry = self._own_entry(ref)
        with self._span(ev.PERSIST_STORE, "persist.stores",
                        obj_id=ref.obj_id) as closing:
            if entry.location == self.addr:
                blob, obj_entry = self.serialize_object(ref.obj_id)
                class_name = obj_entry.class_name
            else:
                payload = self.endpoint.rpc(
                    entry.location, M.FETCH_STATE, ref.obj_id,
                    timeout=self.rpc_timeout,
                )
                class_name, blob = payload.data if hasattr(payload, "data") \
                    else payload
            closing["key"] = stored = self.runtime.persistent_store.save(
                class_name, blob, key=key
            )
        # Remember the latest checkpoint; the optional failure-recovery
        # extension (paper: future work) restores from it.
        entry.meta["checkpoint"] = stored
        return stored

    def recover_from_failure(self, host: str) -> list[str]:
        """EXTENSION (off by default; paper Section 5.1 calls OAS
        recovery future work): re-create objects that lived on a failed
        node from their most recent persistent checkpoint, on a fresh
        node.  Objects without a checkpoint are lost, as in the paper.
        Returns the obj_ids recovered."""
        if self.closed:
            return []
        recovered: list[str] = []
        for obj_id, entry in list(self.refs.items()):
            if entry.location.host != host:
                continue
            key = entry.meta.get("checkpoint")
            if key is None:
                continue
            record = self.runtime.persistent_store.load(key)
            if record is None:
                continue
            target = self.runtime.choose_migration_target(host)
            if target is None:
                continue
            entry.location = self._place_from_state(obj_id, *record, target)
            recovered.append(obj_id)
        return recovered

    def _place_from_state(self, obj_id: str, class_name: str, blob: bytes,
                          host: str) -> Addr:
        """Re-create an object from its stored state on ``host``."""
        if host == self.home:
            self.hold_from_state(obj_id, class_name, blob, self.addr)
            return self.addr
        location = Addr(host, "oa")
        self.endpoint.rpc(
            location,
            M.CREATE_FROM_STATE,
            Payload(data=(obj_id, class_name, blob, self.addr),
                    nbytes=len(blob)),
            timeout=self.rpc_timeout,
        )
        return location

    def load_object(self, key: str, host: str | None = None) -> ObjectRef:
        self._check_open()
        with self._span(ev.PERSIST_LOAD, "persist.loads", key=key) as closing:
            record = self.runtime.persistent_store.load(key)
            if record is None:
                raise PersistenceError(f"no persistent object under {key!r}")
            class_name, blob = record
            closing["obj_id"] = obj_id = self.runtime.ids.next(
                f"{self.app_id}:obj"
            )
            location = self._place_from_state(
                obj_id, class_name, blob, host or self.home
            )
        ref = ObjectRef(obj_id, class_name, self.addr, location)
        self._note_refs_write(obj_id)
        self.refs[obj_id] = RefEntry(ref=ref, location=location)
        return ref

    # ------------------------------------------------------------------------
    # automatic migration (AppOA half)
    # ------------------------------------------------------------------------

    def _h_constraints_violated(self, msg):
        watch_id, violating, constraints = msg.payload
        violating = set(violating)
        plan = []
        for obj_id, entry in list(self.refs.items()):
            if entry.location.host not in violating:
                continue
            target = self.runtime.choose_migration_target(
                entry.location.host, constraints, exclude=violating
            )
            if target is None:
                continue  # nowhere satisfies the constraints; stay put
            plan.append((entry, target))
        if not plan:
            return None

        # Migrate on a worker, not in this handler: migrate_object now
        # drains pending invocations, and a pending worker may need
        # *this* mailbox (re-resolving a moved object through the
        # origin) — migrating inline would deadlock the two.
        def worker() -> None:
            for entry, target in plan:
                try:
                    self.migrate_object(entry.ref, target)
                    entry.auto_migrations += 1
                except (MigrationError, ObjectStateError):
                    continue

        self._spawn(worker, name=f"auto-migrate@{self.app_id}")
        return None

    # ------------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------------

    def unregister(self) -> None:
        """Release everything this application holds (paper Section 4.1:
        un-registration lets JRS drop book-keeping and free memory)."""
        if self.closed:
            return
        self.flush_invokes()  # ship any still-buffered coalesced calls
        for obj_id, entry in list(self.refs.items()):
            try:
                self.free_object(entry.ref)
            except Exception:  # noqa: BLE001 - best effort cleanup
                self._note_refs_write(obj_id)
                self.refs.pop(obj_id, None)
        for watch_id in self.watch_ids:
            try:
                self.endpoint.rpc(
                    Addr(self.home, "oa"), M.UNREGISTER_VA, watch_id,
                    timeout=self.rpc_timeout,
                )
            except Exception:  # noqa: BLE001
                pass
        self.closed = True
        self.endpoint.close()
        self.runtime.forget_app(self.app_id)
