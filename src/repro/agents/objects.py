"""Object tables, class registry and the holder mixin shared by AppOA and
PubOA.

The paper stores locally-created objects in the AppOA's
*local-objects-table* and remotely-created ones in the hosting PubOA's
*remote-objects-table*, with the same information in both: unique handle,
location, pending results and an is-executing flag.  We factor that into
:class:`ObjectHolder`, mixed into both agents.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.agents.messages import Moved, UnknownObject
from repro.errors import (
    ClassNotLoadedError,
    MethodNotFoundError,
    MigrationError,
    ObjectStateError,
)
from repro.obs.events import LOCK_WAIT, OBJ_DISPATCH
from repro.sanitizer.core import note_write
from repro.transport import Addr
from repro.util.serialization import dumps, flops_of, loads, unwrap

# ---------------------------------------------------------------------------
# class registry ("the CLASSPATH")
# ---------------------------------------------------------------------------


class ClassRegistry:
    """Global name -> class mapping: what *could* be loaded anywhere.

    Selective classloading is enforced per node by the PubOA's loaded-set;
    this registry is merely the universe of classes (the paper's jar
    files / codebase URLs)."""

    _classes: dict[str, type] = {}

    @classmethod
    def register(cls, klass: type, name: str | None = None) -> type:
        cls._classes[name or klass.__name__] = klass
        return klass

    @classmethod
    def resolve(cls, name: str) -> type:
        try:
            return cls._classes[name]
        except KeyError:
            raise ClassNotLoadedError(
                f"class {name!r} is not registered anywhere "
                "(register it with @jsclass or ClassRegistry.register)"
            ) from None

    @classmethod
    def known(cls, name: str) -> bool:
        return name in cls._classes

    @classmethod
    def estimated_bytes(cls, name: str) -> int:
        """Approximate byte-code size of a class (for codebase transfer
        costs and per-node memory accounting)."""
        return _source_bytes(cls.resolve(name))


@functools.cache
def _source_bytes(klass: type) -> int:
    """:meth:`ClassRegistry.estimated_bytes` of ``klass``, kept per class:
    ``inspect.getsource`` parses the class's whole module each time."""
    try:
        return max(256, len(inspect.getsource(klass).encode()))
    except (OSError, TypeError):
        return 2048


def jsclass(klass: type) -> type:
    """Decorator registering a class as remotely instantiable."""
    return ClassRegistry.register(klass)


def js_compute(flops: float | Callable[..., float]) -> Callable:
    """Method decorator declaring the method's compute cost.

    ``flops`` is either a constant or ``fn(self, *args) -> flops``; the
    dispatcher charges it as virtual compute time on the hosting machine,
    on top of any :class:`~repro.util.serialization.Payload` flops the
    arguments carry.
    """

    def wrap(method: Callable) -> Callable:
        method._js_flops = flops
        return method

    return wrap


def method_flops(instance: Any, method_name: str, args: tuple) -> float:
    method = getattr(type(instance), method_name, None)
    declared = getattr(method, "_js_flops", None)
    if declared is None:
        return 0.0
    if callable(declared):
        return float(declared(instance, *args))
    return float(declared)


# ---------------------------------------------------------------------------
# handles & table entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectRef:
    """First-class, picklable object handle.

    ``origin`` is the AppOA the object originates from — the authority
    that always knows the current location (migration protocol invariant).
    ``location_hint`` may be stale; holders bounce stale RMIs with
    :class:`Moved` and callers re-resolve via the origin (Figure 4).
    """

    obj_id: str
    class_name: str
    origin: Addr
    location_hint: Addr

    def with_hint(self, location: Addr) -> "ObjectRef":
        return ObjectRef(self.obj_id, self.class_name, self.origin, location)


@dataclass
class ObjectEntry:
    obj_id: str
    class_name: str
    instance: Any
    origin: Addr
    executing: int = 0
    migrating: bool = False
    #: pa2 of a push that got no answer and that pa2 could not be asked
    #: about either: the entry stays migrating, and its calls fail
    in_doubt: Addr | None = None
    #: the instance's footprint when last measured: at create or adopt
    #: (the reply carries it), else at the first read of its host's
    #: ``js_mem_mb`` after a call (:meth:`settle_mem`)
    mem_mb: float = 0.0
    #: a call ran since ``mem_mb`` was measured, and the settle is
    #: queued on the host's machine
    mem_stale: bool = False
    invocations: int = 0
    meta: dict = field(default_factory=dict)

    def settle_mem(self) -> float:
        """Re-measure the footprint; return the change in MB."""
        new = instance_mem_mb(self.instance)
        delta = new - self.mem_mb
        self.mem_mb = new
        self.mem_stale = False
        return delta


def instance_mem_mb(instance: Any) -> float:
    """Memory footprint estimate from serialized size (floor 4 KiB).

    A pickle of the whole instance: taken when an object is created or
    adopted, and after calls only when its host's memory is read
    (:attr:`~repro.simnet.machine.Machine.js_mem_mb`), never per call."""
    try:
        nbytes = len(dumps(instance))
    except Exception:  # unpicklable state - charge a nominal footprint
        nbytes = 64 * 1024
    return max(nbytes, 4096) / 1e6


# ---------------------------------------------------------------------------
# holder mixin
# ---------------------------------------------------------------------------


class ObjectHolder:
    """Mixin: everything an agent that *hosts* object instances needs.

    Subclass contract: ``self.world`` (SimWorld), ``self.addr`` (Addr),
    ``self.loaded_classes`` (set of class names available on this node —
    the selective-classloading gate).
    """

    def init_holder(self) -> None:
        #: this agent's name on trace events, ``str(addr)`` computed once
        self.actor = str(self.addr)
        self.objects: dict[str, ObjectEntry] = {}
        #: invocations currently inside dispatch_invoke (waiting or
        #: executing) — the holder's live congestion gauge
        self._inflight = 0
        #: the ids this holder has let go: obj_id -> the forwarding Addr
        #: a migration left behind, or None for an id freed here (also
        #: one whose free came before its create)
        self.tombstones: dict[str, Addr | None] = {}
        #: migration id -> whether this holder adopted it (pa2's record of
        #: every push it received or was asked about)
        self.migrations_in: dict[str, bool] = {}

    # -- lifecycle ------------------------------------------------------------

    def class_available(self, class_name: str) -> bool:
        return class_name in self.loaded_classes

    def hold_new_object(
        self,
        obj_id: str,
        class_name: str,
        origin: Addr,
        args: tuple = (),
        nominal: bool = True,
    ) -> ObjectEntry:
        """Construct and hold an instance; ``nominal`` is
        :meth:`dispatch_invoke`'s: False means ``args`` hold no
        :class:`~repro.util.serialization.Payload` to unwrap."""
        if not self.class_available(class_name):
            raise ClassNotLoadedError(
                f"class {class_name!r} is not loaded on node "
                f"{self.addr.host}; load a codebase there first"
            )
        klass = ClassRegistry.resolve(class_name)
        instance = klass(*(unwrap(args) if nominal else args))
        return self._store_entry(obj_id, class_name, instance, origin)

    def hold_from_state(
        self, obj_id: str, class_name: str, blob: bytes, origin: Addr
    ) -> ObjectEntry:
        """Adopt a migrated/persisted instance (no class gate: the state
        carries the byte-code with it, as serialized Java objects do)."""
        instance = loads(blob)
        return self._store_entry(obj_id, class_name, instance, origin)

    def _store_entry(
        self, obj_id: str, class_name: str, instance: Any, origin: Addr
    ) -> ObjectEntry:
        entry = ObjectEntry(
            obj_id=obj_id,
            class_name=class_name,
            instance=instance,
            origin=origin,
            mem_mb=instance_mem_mb(instance),
        )
        note_write(self.world.kernel, f"ObjectHolder[{self.addr}]",
                   f"objects[{obj_id}]")
        if obj_id in self.objects:
            raise ObjectStateError(f"object {obj_id} already held here")
        self.tombstones.pop(obj_id, None)
        self.objects[obj_id] = entry
        machine = self.world.machine(self.addr.host)
        machine.js_mem_mb += entry.mem_mb
        machine.counters.objects_created += 1
        machine.counters.objects_hosted += 1
        return entry

    def drop_object(
        self, obj_id: str, forward_to: Addr | None = None
    ) -> ObjectEntry:
        note_write(self.world.kernel, f"ObjectHolder[{self.addr}]",
                   f"objects[{obj_id}]")
        try:
            entry = self.objects.pop(obj_id)
        except KeyError:
            raise ObjectStateError(
                f"object {obj_id} is not held at {self.addr}"
            ) from None
        self.tombstones[obj_id] = forward_to
        machine = self.world.machine(self.addr.host)
        used = machine.js_mem_mb  # settles this entry's footprint too
        machine.js_mem_mb = max(0.0, used - entry.mem_mb)
        machine.counters.objects_hosted -= 1
        return entry

    def _let_go(self, obj_id: str) -> Moved | UnknownObject:
        """The one answer about an id this holder does not hold, for
        every per-object request: ``Moved`` to where it migrated, else
        ``UnknownObject`` (freed here, or never held)."""
        hint = self.tombstones.get(obj_id)
        if hint is None:
            return UnknownObject(obj_id)
        return Moved(obj_id, hint)

    # -- invocation (runs in a per-request transport process) -------------------

    def dispatch_invoke(
        self, obj_id: str, method_name: str, params: Any,
        nominal: bool = True,
    ) -> Any:
        """Execute a method on a held object, charging compute time.

        ``nominal=False`` is the wire's word (``Message.nominal``) that
        ``params`` holds no :class:`~repro.util.serialization.Payload`:
        there are then no declared flops to add and nothing to unwrap.
        Callers that cannot know (a request the AppOA serves from its
        own table, a batch on it) leave it set.

        Returns :class:`Moved`/:class:`UnknownObject` markers for stale or
        unknown handles — the caller-side AppOA interprets them.
        """
        self._inflight += 1
        tracer = self.world.tracer
        if tracer.enabled:
            # Observed on arrival so the histogram records the depth each
            # call found, not the depth after it left; the SLO watcher's
            # queue-depth rule reads the windowed max.
            tracer.observe("queue.depth", float(self._inflight),
                           host=self.addr.host)
        try:
            return self._dispatch_invoke(obj_id, method_name, params, nominal)
        finally:
            self._inflight -= 1

    def _dispatch_invoke(
        self, obj_id: str, method_name: str, params: Any, nominal: bool
    ) -> Any:
        kernel = self.world.kernel
        wait_start = kernel.now()
        while True:
            entry = self.objects.get(obj_id)
            if entry is None:
                return self._let_go(obj_id)
            if not entry.migrating and entry.executing <= 0:
                break
            if entry.in_doubt is not None:
                raise MigrationError(
                    f"object {obj_id} is unavailable: its migration to "
                    f"{entry.in_doubt} got no answer"
                )
            # Paper: migration is delayed until running invocations end;
            # symmetrically, invocations arriving mid-migration wait and
            # then chase the tombstone.  Invocations on one object are
            # also serialized (active-object semantics): the paper's
            # tables track an is-executing flag per object and its slaves
            # run one task at a time, and queueing behind the executing
            # method removes the init/multiply race inherent in Figure
            # 6's replicate-then-distribute pattern.
            kernel.sleep(0.001)
        tracer = self.world.tracer
        if tracer.enabled:
            waited = kernel.now() - wait_start
            if waited > 0.0:
                # Holder-side queueing (serial dispatch / migration
                # quiescing): the critical-path extractor charges this
                # to lock time, not to the method itself.
                tracer.emit_span(
                    LOCK_WAIT, ts=wait_start, dur=waited,
                    host=self.addr.host, actor=self.actor,
                    obj_id=entry.obj_id, method=sys.intern(method_name),
                )
        args = tuple(params) if params is not None else ()
        method = getattr(entry.instance, method_name, None)
        if method is None or not callable(method):
            raise MethodNotFoundError(
                f"{entry.class_name} has no method {method_name!r}"
            )
        entry.executing += 1
        machine = self.world.machine(self.addr.host)
        machine.counters.invocations_served += 1
        entry.invocations += 1
        dspan = None
        if tracer.enabled:
            # Installed: the compute charge below nests under dispatch.
            # The entry's id and an interned name: the ring keeps one
            # string each, not a fresh decode per call.
            dspan = tracer.begin_span(
                OBJ_DISPATCH, ts=kernel.now(), host=self.addr.host,
                actor=self.actor, obj_id=entry.obj_id,
                method=sys.intern(method_name),
            )
        flops = 0.0
        try:
            if nominal:
                flops = flops_of(args)
                args = unwrap(args)
            flops += method_flops(entry.instance, method_name, args)
            if flops > 0:
                self.world.compute(self.addr.host, flops)
            result = method(*args)
        finally:
            entry.executing -= 1
            if dspan is not None:
                tracer.end_span(dspan, ts=kernel.now(), flops=flops)
                tracer.count(f"dispatch:{self.addr.host}",
                             host=self.addr.host)
        # The instance may have grown (e.g. init() storing a matrix):
        # its host re-measures it when its memory is next read.
        if not entry.mem_stale:
            entry.mem_stale = True
            machine.mark_mem_stale(entry.settle_mem)
        return result

    # -- migration / persistence support ----------------------------------------

    def wait_until_quiescent(self, entry: ObjectEntry) -> None:
        """Block until no method of the object is executing."""
        while entry.executing > 0:
            self.world.kernel.sleep(0.001)
