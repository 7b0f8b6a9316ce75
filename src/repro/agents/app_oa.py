"""The application object agent (AppOA), one per registered application.

The AppOA lives on the application's home node.  It keeps the
*local-objects-table* for this application's objects: the unique handle,
the holder location (authoritative — the migration protocol keeps the
origin informed, paper Figure 3), pending invocation results and
executing flags.  Applications call the AppOA by direct local method
invocation.  It also holds the objects created on the home node, and
serves that table with the same handlers a PubOA serves its
remote-objects-table with: every request to a holder goes through
:meth:`AppOA.request`, which runs the handler in place for the home table
and goes over the transport for any other holder.

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


@dataclass
class RefEntry:
    """local-objects-table row for an object originated by this app."""

    ref: ObjectRef
    location: Addr
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
    future: Any = None
    span: Any = None


@dataclass(slots=True)
class _InPlace:
    """What a handler reads of a request served from the AppOA's own
    table (:meth:`AppOA.request`): the payload, uncopied, and ``nominal``
    set, as nothing looked for a ``Payload`` wrapper in it."""

    payload: Any
    nominal: bool = True


#: per-call (counter, latency histogram) by mode.  Batch slots have
#: none: their group is counted when it ships.
_CALL_METRICS = {
    "sync": ("invoke.sync", "invoke.latency:sync"),
    "async": ("invoke.async", "invoke.latency:async"),
    "oneway": ("invoke.oneway", None),
}


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
        #: in-flight async/batched invocations by obj_id, for every
        #: handle this app calls through (own, foreign, static segments);
        #: an entry goes when its count reaches 0
        self.pending: dict[str, int] = {}
        #: obj_id -> the future its count's 0-transition completes
        self._drained: dict[str, Any] = {}
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

    def request(self, addr: Addr, kind: str, payload: Any = None) -> Any:
        """One request to the holder at ``addr``.  The home table is
        served by this endpoint's own handler in the calling process (no
        message, no copy, no CPU charge; errors come raw); any other
        holder by an RPC under ``rpc_timeout``."""
        if addr == self.addr:
            return self.endpoint.handler_for(kind)(_InPlace(payload))
        return self.endpoint.rpc(addr, kind, payload,
                                 timeout=self.rpc_timeout)

    def _holder_at(self, host: str) -> Addr:
        """Who holds this app's objects on ``host``: itself or a PubOA."""
        return self.addr if host == self.home else Addr(host, "oa")

    # ------------------------------------------------------------------------
    # object creation / free
    # ------------------------------------------------------------------------

    def create_object(
        self, class_name: str, host: str, args: tuple = ()
    ) -> ObjectRef:
        self._check_open()
        obj_id = self.runtime.ids.next(f"{self.app_id}:obj")
        location = self._holder_at(host)
        self.request(location, M.CREATE_OBJECT,
                     (obj_id, class_name, self.addr, args))
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
        self.request(entry.location, M.FREE_OBJECT, ref.obj_id)
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
        answer = self.request(ref.origin, M.GET_LOCATION, ref.obj_id)
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
        immediately; a dedicated worker process carries the RMI."""
        self._check_open()
        call = self._open_call(_Call(ref, method, params, "async"))
        self._spawn(self._chase, call, name=f"ainvoke-{method}@{self.app_id}")
        return self._handle(call)

    def oinvoke(self, ref: ObjectRef, method: str, params: Any = ()) -> None:
        """One-sided invocation: no result, no completion wait."""
        self._check_open()
        location = self._location_of(ref)
        call = self._open_call(_Call(ref, method, params, "oneway"))
        if location == self.addr:
            # Not folded into request(): a one-sided call never runs in
            # its caller.  The span travels with the worker so its
            # duration covers the dispatch, not this resolve-and-spawn.
            self._spawn(self._fire_oneway, call, location, True,
                        name=f"oinvoke-{method}@{self.app_id}")
        else:
            self._fire_oneway(call, location)

    def _fire_oneway(self, call: _Call, location: Addr,
                     on_worker: bool = False) -> None:
        payload = (call.ref.obj_id, call.method, call.params)
        prev = None
        if call.span is not None:
            prev = spans.set_context(call.span.ctx)
        try:
            if on_worker:
                self._acked_oneway(location, payload)
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
        """Worker body of a one-sided call on the home table or, with
        reliability on, on another holder.  ``ONEWAY_INVOKE`` replies
        ``None``, a delivery ack.  Every failure is swallowed, the
        method's or the transport's: one-sided semantics promise the
        caller nothing, so best-effort-with-retries strictly improves on
        the bare ``send_oneway`` without changing the API contract."""
        try:
            self.request(location, M.ONEWAY_INVOKE, payload)
        except Exception:  # noqa: BLE001 - fire and forget
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
            if parent is None:
                parent = spans.current_context()
            call.span = tracer.begin_span(
                ev.OBJ_INVOKE, self.world.now(), self.home, self.actor,
                parent, install, obj_id=call.ref.obj_id, method=call.method,
                mode=call.mode,
            )
        return call

    def _close_call(self, call: _Call, error: bool = False) -> None:
        """End a traced call's span and record its per-mode metrics."""
        tracer = self.tracer
        now = self.world.now()
        if error:
            tracer.end_span(call.span, ts=now, error=True)
        else:
            tracer.end_span(call.span, ts=now)
        metrics = _CALL_METRICS.get(call.mode)
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
        invocation, one-sided call, batch group or auto-migration
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
            # The batch span parents every per-call span of its group;
            # it belongs to the shipping worker, so it is not installed.
            bspan = parent = None
            if self.tracer.enabled:
                bspan = self.tracer.begin_span(
                    ev.OBJ_INVOKE_BATCH, ts=self.world.now(), host=self.home,
                    actor=self.actor, install=False, dest=str(dest),
                    size=len(group),
                )
                parent = bspan.ctx
            for call in group:
                self._open_call(call, parent=parent)
            self._spawn(self._carry_batch, dest, group, bspan,
                        name=f"minvoke@{self.app_id}->{dest.host}")
        return MultiHandle(
            [self._handle(call) for call in items], mapper=mapper
        )

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
            # Not folded into request(): _h_invoke_batch counts
            # invoke.batch.dispatched for batches that came over the
            # wire, and the home table's batches never do.
            outcomes = self.dispatch_invoke_batch(payload)
        else:
            try:
                outcomes = self.request(dest, M.INVOKE_BATCH, payload)
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
        self.pending[ref.obj_id] = self.pending.get(ref.obj_id, 0) + 1

    def _pending_decr(self, ref: ObjectRef) -> None:
        obj_id = ref.obj_id
        left = self.pending.pop(obj_id) - 1
        if left > 0:
            self.pending[obj_id] = left
            return
        drained = self._drained.pop(obj_id, None)
        if drained is not None:
            drained.set_result(None)

    def pending_invocations(self, obj_id: str) -> int:
        """In-flight async/batched invocations issued through this
        AppOA for ``obj_id`` (own and foreign refs alike)."""
        return self.pending.get(obj_id, 0)

    def _invoke_with_redirect(
        self, ref: ObjectRef, method: str, params: Any
    ) -> Any:
        asked_origin = False
        location = self._location_of(ref)
        for _ in range(_MAX_REDIRECTS):
            outcome = self.request(location, M.INVOKE,
                                   (ref.obj_id, method, params))
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
        dst = self._holder_at(target_host)
        if src == dst:
            return dst
        self._drain_pending(ref.obj_id)
        with self._span(ev.MIGRATE, "migrations", "migrate.duration",
                        obj_id=ref.obj_id, src=str(src), dst=str(dst)):
            outcome = self.request(src, M.MIGRATE_OUT, (ref.obj_id, dst))
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

    def _drain_pending(self, obj_id: str) -> None:
        """Wait, with no time limit, for this app's in-flight async and
        batched invocations on the object before migrating it (paper
        Section 5.2: "migration is delayed until all unfinished method
        invocations have completed").  The holder-side quiescence wait
        only covers invocations already dispatched there; calls issued
        here may still be on the wire.  Each settles on its own (a
        reply, or its transport error under ``rpc_timeout``), so the
        wait ends.  Event-driven, not polled: concurrent drains share
        the future ``_pending_decr`` completes on the 0-transition."""
        if obj_id not in self.pending:
            return
        drain_start = self.world.now()
        drained = self._drained.get(obj_id)
        if drained is None:
            drained = self._drained[obj_id] = self.world.kernel.create_future()
        drained.wait()
        if self.tracer.enabled:
            # How long invocations stayed pending against this migration;
            # the SLO watcher's pending-age rule reads the windowed max.
            self.tracer.observe("migrate.pending_age",
                                self.world.now() - drain_start, host=self.home)

    # ------------------------------------------------------------------------
    # persistence (paper Section 4.7)
    # ------------------------------------------------------------------------

    def store_object(self, ref: ObjectRef, key: str | None = None) -> str:
        self._check_open()
        entry = self._own_entry(ref)
        with self._span(ev.PERSIST_STORE, "persist.stores",
                        obj_id=ref.obj_id) as closing:
            class_name, blob = self.request(
                entry.location, M.FETCH_STATE, ref.obj_id
            ).data
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
        location = self._holder_at(host)
        self.request(location, M.CREATE_FROM_STATE,
                     Payload(data=(obj_id, class_name, blob, self.addr),
                             nbytes=len(blob)))
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
                except (MigrationError, ObjectStateError,
                        RemoteInvocationError) as exc:
                    # A refusal skips its object, raw from the home table
                    # or wrapped from a PubOA; a transport error ends it.
                    if not isinstance(getattr(exc, "cause", exc),
                                      (MigrationError, ObjectStateError)):
                        raise

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
        for obj_id, entry in list(self.refs.items()):
            try:
                self.free_object(entry.ref)
            except Exception:  # noqa: BLE001 - best effort cleanup
                self._note_refs_write(obj_id)
                self.refs.pop(obj_id, None)
        for watch_id in self.watch_ids:
            try:
                self.request(Addr(self.home, "oa"), M.UNREGISTER_VA,
                             watch_id)
            except Exception:  # noqa: BLE001
                pass
        self.closed = True
        self.endpoint.close()
        self.runtime.forget_app(self.app_id)
