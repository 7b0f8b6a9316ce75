"""``JSCodebase``: selective remote classloading (paper Section 4.3).

Instead of replicating all classes to every node, the programmer builds a
codebase and loads it only onto the architecture components that need
it::

    cb = JSCodebase()
    cb.add(Matrix)                       # a Python class (the "class file")
    cb.add("archive:matrix-classes")     # a registered archive ("jar")
    cb.add("http://host/JS/test/file.class")   # a registered URL
    cb.load(cluster)                     # transfer to every cluster node
    cb.free()

Creating an object on a node whose PubOA has not loaded the class raises
:class:`repro.errors.ClassNotLoadedError` — the selectivity is enforced,
and per-node memory accounting reflects what was loaded where.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import context
from repro.agents import messages as M
from repro.agents.objects import ClassRegistry
from repro.errors import CodebaseError
from repro.obs.events import CLASSLOAD
from repro.transport import Addr
from repro.util.serialization import Payload
from repro.varch.component import VAComponent


@dataclass(frozen=True)
class CodebaseEntry:
    class_name: str
    nbytes: int


def _resolve_hosts(component: Any, app: Any) -> list[str]:
    if isinstance(component, str):
        return [component]
    if isinstance(component, VAComponent):
        return component.hostnames()
    if isinstance(component, (list, tuple)):
        return [
            h for item in component for h in _resolve_hosts(item, app)
        ]
    from repro.core.jsobj import HostGroup

    if isinstance(component, HostGroup):
        return list(component.hosts)
    raise CodebaseError(
        f"cannot load codebase onto {component!r}: expected a host name, "
        "Node/Cluster/Site/Domain, HostGroup or a list of those"
    )


class JSCodebase:
    def __init__(self, app: Any = None) -> None:
        self._app = app if app is not None else context.require_app()
        self._entries: dict[str, CodebaseEntry] = {}
        self._loaded_hosts: set[str] = set()
        self._freed = False

    # -- building the codebase ---------------------------------------------------

    def add(self, item: Any, nbytes: int | None = None) -> "JSCodebase":
        """Add a class, a registered class name, a registered archive
        (``archive:`` prefix or ``.jar``/``.class`` path) or a registered
        URL to the codebase."""
        self._check_active()
        runtime = self._app.runtime
        if isinstance(item, type):
            ClassRegistry.register(item)
            self._add_class(item.__name__, nbytes)
            return self
        if isinstance(item, str):
            if item in runtime.url_store:
                for class_name in runtime.url_store[item]:
                    self._add_class(class_name, None)
                return self
            if ClassRegistry.known(item):
                self._add_class(item, nbytes)
                return self
            raise CodebaseError(
                f"unknown codebase entry {item!r}: not a registered class, "
                "archive or URL (register archives with "
                "runtime.register_archive)"
            )
        raise CodebaseError(
            f"cannot add {item!r} to a codebase (class or string expected)"
        )

    def _add_class(self, class_name: str, nbytes: int | None) -> None:
        if class_name in self._entries:
            return
        size = (
            int(nbytes)
            if nbytes is not None
            else ClassRegistry.estimated_bytes(class_name)
        )
        self._entries[class_name] = CodebaseEntry(class_name, size)

    @property
    def entries(self) -> list[CodebaseEntry]:
        return list(self._entries.values())

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    @property
    def loaded_hosts(self) -> list[str]:
        return sorted(self._loaded_hosts)

    # -- loading / freeing -----------------------------------------------------------

    def load(self, component: Any) -> None:
        """Transfer the codebase (as one archive) to every node of the
        component; idempotent per node."""
        self._check_active()
        if not self._entries:
            raise CodebaseError("codebase is empty; add classes first")
        app = self._app
        pairs = [(e.class_name, e.nbytes) for e in self._entries.values()]
        hosts = _resolve_hosts(component, app)
        world = app.runtime.world
        tracer = world.tracer
        # One span over the whole fan-out; the per-host transfers show up
        # as child rpc.request spans.
        span = tracer.begin_span(
            CLASSLOAD, ts=world.now(), host=app.home, actor=str(app.addr),
            classes=len(self._entries), nbytes=self.total_bytes,
            hosts=len(hosts),
        )
        try:
            for host in hosts:
                app.request(Addr(host, "oa"), M.LOAD_CLASSES,
                            Payload(data=pairs, nbytes=self.total_bytes))
                self._loaded_hosts.add(host)
        finally:
            tracer.end_span(span, ts=world.now())

    def free(self) -> None:
        """Unload the codebase from every node it was loaded onto and
        release the associated memory (paper: ``codebase.free()``)."""
        self._check_active()
        app = self._app
        names = list(self._entries)
        for host in sorted(self._loaded_hosts):
            app.request(Addr(host, "oa"), M.UNLOAD_CLASSES, names)
        self._loaded_hosts.clear()
        self._entries.clear()
        self._freed = True

    def _check_active(self) -> None:
        if self._freed:
            raise CodebaseError("codebase has been freed")
