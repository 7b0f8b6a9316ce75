"""Wire handlers shared by every agent that hosts object instances.

Both the PubOA (remote-objects-table) and the AppOA (local-objects-table)
serve the same object-hosting protocol: create, invoke, free, migrate
out/in, fetch state, static segments.  This mixin registers those
handlers on the agent's endpoint; it sits on top of
:class:`repro.agents.objects.ObjectHolder`.  The handlers are the only
implementation of each request: a PubOA runs them for requests off the
wire, and the AppOA also runs them in place for requests to its own
table (``AppOA.request``), so a handler reads only ``msg.payload`` and
``msg.nominal``.
"""

from __future__ import annotations

from repro.agents import messages as M
from repro.agents.objects import ObjectHolder
from repro.errors import (
    CircuitOpenError,
    MigrationError,
    ObjectStateError,
    TransportError,
)
from repro.obs import events as ev
from repro.transport import Addr
from repro.util.serialization import Payload, dumps


def wire_bytes(instance, blob: bytes) -> int:
    """Bytes an object occupies on the wire: real pickle size unless the
    instance declares a nominal ``__js_nbytes__`` (scaled benchmarks)."""
    nominal = getattr(instance, "__js_nbytes__", None)
    if nominal is not None:
        return int(nominal)
    return len(blob)


class HolderEndpoints(ObjectHolder):
    """Contract: ``self.endpoint``, ``self.addr``, ``self.world``,
    ``self.runtime`` and ``self.loaded_classes``."""

    def register_holder_handlers(self) -> None:
        ep = self.endpoint
        self._install_dedup(ep)
        ep.register(M.PING, lambda msg: "pong")
        ep.register(M.CREATE_OBJECT, self._h_create_object)
        ep.register(M.CREATE_FROM_STATE, self._h_create_from_state)
        ep.register(M.INVOKE, self._h_invoke)
        ep.register(M.INVOKE_BATCH, self._h_invoke_batch)
        ep.register(M.ONEWAY_INVOKE, self._h_oneway_invoke)
        ep.register(M.FREE_OBJECT, self._h_free_object)
        ep.register(M.MIGRATE_OUT, self._h_migrate_out)
        ep.register(M.MIGRATE_IN, self._h_migrate_in)
        ep.register(M.MIGRATE_RESOLVE, self._h_migrate_resolve)
        ep.register(M.FETCH_STATE, self._h_fetch_state)
        ep.register(M.STATIC_REF, self._h_static_ref)
        ep.register(M.STATIC_GETVAR, self._h_static_getvar)
        ep.register(M.STATIC_SETVAR, self._h_static_setvar)

    def _install_dedup(self, ep) -> None:
        """Attach a replay cache when ``ShellConfig.reliable`` is set,
        so retried tokened requests execute at most once on this holder."""
        config = self.runtime.shell.config
        if not config.reliable:
            return
        from repro.rmi.reliability import ReplayCache

        ep.dedup = ReplayCache(self.world.kernel, config)

    def _trace_migrate_step(self, obj_id: str, step: str) -> None:
        self.world.tracer.emit(
            ev.MIGRATE_STEP, ts=self.world.now(), host=self.addr.host,
            actor=self.actor, obj_id=obj_id, step=step,
        )

    # -- creation ---------------------------------------------------------------

    def _h_create_object(self, msg):
        obj_id, class_name, origin, args = msg.payload
        if obj_id in self.tombstones:
            # A duplicated or late request: the object was created here
            # and has migrated away or been freed since, or its free came
            # first, so it must not come to life.  (Adopting state over a
            # tombstone stays legal: a migration A -> B -> A lands back
            # at A.)
            raise ObjectStateError(
                f"object {obj_id} was already let go at {self.addr}"
            )
        entry = self.hold_new_object(obj_id, class_name, origin, tuple(args),
                                     msg.nominal)
        return {"obj_id": obj_id, "mem_mb": entry.mem_mb}

    def _h_create_from_state(self, msg):
        obj_id, class_name, blob, origin = msg.payload.data
        entry = self.hold_from_state(obj_id, class_name, blob, origin)
        return {"obj_id": obj_id, "mem_mb": entry.mem_mb}

    # -- invocation --------------------------------------------------------------

    def _h_invoke(self, msg):
        obj_id, method_name, params = msg.payload
        return self.dispatch_invoke(obj_id, method_name, params, msg.nominal)

    def dispatch_invoke_batch(self, calls, nominal=True):
        """Dispatch a positional batch of ``(obj_id, method, params)``
        calls.  The outcome vector stays index-aligned with the request:
        stale refs pass their ``Moved``/``UnknownObject`` markers through
        per slot and a raising call becomes a ``BatchFailure`` — one bad
        call never fails its batch-mates.  ``nominal`` is the message's
        flag and covers every call in it (see :meth:`dispatch_invoke`)."""
        from repro.agents.messages import BatchFailure

        outcomes = []
        for obj_id, method_name, params in calls:
            try:
                outcomes.append(
                    self.dispatch_invoke(obj_id, method_name, params,
                                         nominal)
                )
            except Exception as exc:  # noqa: BLE001 - shipped positionally
                outcomes.append(BatchFailure(obj_id, exc))
        return outcomes

    def _h_invoke_batch(self, msg):
        calls = msg.payload
        self.world.tracer.count("invoke.batch.dispatched", len(calls),
                                host=self.addr.host)
        return self.dispatch_invoke_batch(calls, msg.nominal)

    def dispatch_oneway(self, call, nominal=True):
        """Run a one-sided ``(obj_id, method, params)`` call on a held
        object."""
        outcome = self.dispatch_invoke(*call, nominal)
        if isinstance(outcome, M.Moved):
            # One-sided calls carry no reply channel, so the tombstone
            # forwards the invocation to the object's new home.
            self.endpoint.send_oneway(outcome.hint, M.ONEWAY_INVOKE, call)

    def _h_oneway_invoke(self, msg):
        self.dispatch_oneway(msg.payload, msg.nominal)
        return None

    # -- free -------------------------------------------------------------------

    def _h_free_object(self, msg):
        obj_id = msg.payload
        if obj_id in self.objects:
            self.drop_object(obj_id)
            return "freed"
        answer = self._let_go(obj_id)
        # Let go of an id not held here too: its create may still be on
        # the way, and must not land after the free.
        self.tombstones.setdefault(obj_id, None)
        return answer

    # -- migration (paper Figure 3, steps 2-4) -------------------------------

    def _h_migrate_out(self, msg):
        return self.migrate_out(*msg.payload)

    def migrate_out(self, obj_id: str, dst: Addr):
        """pa1 side: push the object to pa2 and leave a tombstone."""
        entry = self.objects.get(obj_id)
        if entry is None:
            return self._let_go(obj_id)
        if entry.migrating:
            raise MigrationError(f"{obj_id} is already migrating")
        entry.migrating = True
        self._trace_migrate_step(obj_id, "out-start")
        try:
            # Paper: "migration is delayed until all unfinished method
            # invocations have completed execution".
            self.wait_until_quiescent(entry)
            self._trace_migrate_step(obj_id, "quiesced")
            self._push(entry, Addr(dst.host, dst.agent))
            self._trace_migrate_step(obj_id, "pushed")
        except BaseException:
            if entry.in_doubt is None:
                # pa2 does not hold the object: reinstate it here.
                entry.migrating = False
                self._trace_migrate_step(obj_id, "aborted")
            raise
        self.drop_object(obj_id, forward_to=dst)
        self._trace_migrate_step(obj_id, "tombstone")
        machine = self.world.machine(self.addr.host)
        machine.counters.migrations_out += 1
        return {"obj_id": obj_id, "new_location": dst}

    def _push(self, entry, dst: Addr) -> None:
        """Figure 3 step 3: hand the object to pa2.  Returns once pa2
        has adopted it and raises if it has not."""
        blob = dumps(entry.instance)
        migration = self.runtime.ids.next("migration")
        payload = Payload(
            data=(entry.obj_id, entry.class_name, blob, entry.origin,
                  migration),
            nbytes=wire_bytes(entry.instance, blob),
        )
        try:
            # Figure 3 step 3 *is* a synchronous push: pa1 must know the
            # object arrived before dropping it to a tombstone, and this
            # handler runs in its own transport process, so waiting here
            # cannot stall unrelated dispatch.
            self.endpoint.rpc(dst, M.MIGRATE_IN, payload,
                              timeout=self.runtime.shell.config.rpc_timeout)
        except CircuitOpenError:
            raise  # shed before it was sent
        except TransportError:
            if not self._adopted(entry, dst, migration):
                raise

    def _adopted(self, entry, dst: Addr, migration: str) -> bool:
        """Settle a push that got no answer: did pa2 adopt it?  A failed
        pa2 keeps no copy (a restart brings a blank agent back).  A live
        one is asked: it says whether it adopted the migration, or
        records it aborted and refuses it should it still arrive.  If it
        cannot be asked either, the entry stays migrating and
        ``in_doubt``: unavailable, never a second copy."""
        if self.world.machine(dst.host).failed:
            return False
        self._trace_migrate_step(entry.obj_id, "in-doubt")
        try:
            return self.endpoint.rpc(
                dst, M.MIGRATE_RESOLVE, migration,
                timeout=self.runtime.shell.config.rpc_timeout,
            )
        except TransportError:
            if self.world.machine(dst.host).failed:
                return False
            entry.in_doubt = dst
            self._trace_migrate_step(entry.obj_id, "unavailable")
            raise

    def _h_migrate_in(self, msg):
        """pa2 side: adopt the instance and confirm, once per migration."""
        obj_id, class_name, blob, origin, migration = msg.payload.data
        if migration in self.migrations_in:
            # A second copy of the push, or one that pa1 gave up on.
            if not self.migrations_in[migration]:
                self._trace_migrate_step(obj_id, "refused")
                raise MigrationError(
                    f"migration {migration} of {obj_id} was aborted"
                )
            return {"obj_id": obj_id}
        entry = self.hold_from_state(obj_id, class_name, blob, origin)
        self.migrations_in[migration] = True
        self._trace_migrate_step(obj_id, "adopted")
        machine = self.world.machine(self.addr.host)
        machine.counters.migrations_in += 1
        return {"obj_id": obj_id, "mem_mb": entry.mem_mb}

    def _h_migrate_resolve(self, msg):
        """pa2 side of a push in doubt: did migration ``msg.payload``
        land here?  One that has not is aborted now, so that it is
        refused if it still comes."""
        return self.migrations_in.setdefault(msg.payload, False)

    # -- static segments (extension) -------------------------------------------
    #
    # The paper lists "handling static methods and variables" as ongoing
    # work.  We model a class's static segment as one surrogate instance
    # per node (per "JVM"): static methods run on it, static variables
    # are its attributes.  Static segments never migrate and are created
    # on demand — but only where the class was loaded (selective
    # classloading applies to statics too).

    def static_obj_id(self, class_name: str) -> str:
        return f"static::{class_name}"

    def ensure_static(self, class_name: str):
        from repro.agents.objects import ClassRegistry
        from repro.errors import ClassNotLoadedError

        obj_id = self.static_obj_id(class_name)
        entry = self.objects.get(obj_id)
        if entry is not None:
            return entry
        if not self.class_available(class_name):
            raise ClassNotLoadedError(
                f"class {class_name!r} is not loaded on node "
                f"{self.addr.host}; its static segment cannot exist there"
            )
        klass = ClassRegistry.resolve(class_name)
        surrogate = klass.__new__(klass)
        init = getattr(surrogate, "__js_static_init__", None)
        if callable(init):
            init()
        return self._store_entry(obj_id, class_name, surrogate, self.addr)

    def _h_static_ref(self, msg):
        class_name = msg.payload
        self.ensure_static(class_name)
        return self.static_obj_id(class_name)

    def _h_static_getvar(self, msg):
        class_name, var = msg.payload
        entry = self.ensure_static(class_name)
        if not hasattr(entry.instance, var) and not hasattr(
            type(entry.instance), var
        ):
            raise AttributeError(
                f"{class_name} has no static variable {var!r}"
            )
        return getattr(entry.instance, var)

    def _h_static_setvar(self, msg):
        class_name, var, value = msg.payload
        entry = self.ensure_static(class_name)
        setattr(entry.instance, var, value)
        return "ok"

    # -- persistence --------------------------------------------------------------

    def _h_fetch_state(self, msg):
        obj_id = msg.payload
        entry = self.objects.get(obj_id)
        if entry is None:
            return self._let_go(obj_id)
        self.wait_until_quiescent(entry)
        blob = dumps(entry.instance)
        payload = Payload(
            data=(entry.class_name, blob),
            nbytes=wire_bytes(entry.instance, blob),
        )
        self.world.tracer.emit(
            ev.OBJ_FETCH_STATE, ts=self.world.now(),
            host=self.addr.host, actor=self.actor,
            obj_id=obj_id, nbytes=payload.nbytes,
        )
        return payload
