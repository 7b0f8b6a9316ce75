"""``JSStatic``: remote static methods and variables (EXTENSION).

The paper closes with "we are extending JavaSymphony to handle static
methods and variables"; this module implements that extension.  A class's
*static segment* exists at most once per node (per "JVM") and is modeled
as a surrogate instance — static methods execute on it, static variables
are its attributes.  Each node has its own segment, exactly like separate
JVMs have separate static state::

    stats = JSStatic("Counters", node)     # segment on that node
    stats.sinvoke("bump", [])              # static method call
    stats.set_var("threshold", 10)         # static variable write
    stats.get_var("threshold")

Static segments never migrate and cannot be freed individually; they
live as long as their node's agent.  Selective classloading applies: the
segment can only materialize on nodes the class was loaded onto.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import context
from repro.agents import messages as M
from repro.agents.app_oa import AppOA
from repro.agents.objects import ObjectRef
from repro.core.jsobj import _resolve_target_hosts, _to_wire
from repro.errors import ObjectStateError
from repro.rmi.handle import ResultHandle
from repro.rmi.multi import MultiHandle


class JSStatic:
    def __init__(
        self,
        class_name: str,
        target: Any = None,
        app: AppOA | None = None,
    ) -> None:
        self._app = app if app is not None else context.require_app()
        hosts = _resolve_target_hosts(target, self._app)
        if hosts is None:
            host = self._app.home
        elif len(hosts) == 1:
            host = hosts[0]
        else:
            raise ObjectStateError(
                "JSStatic needs exactly one node (static segments are "
                "per-node); got a multi-node target"
            )
        self._host = host
        self._class_name = class_name
        holder = self._app._holder_at(host)
        obj_id = self._app.request(holder, M.STATIC_REF, class_name)
        self._ref = ObjectRef(obj_id, class_name, holder, holder)

    # -- identity ----------------------------------------------------------------

    @property
    def ref(self) -> ObjectRef:
        return self._ref

    @property
    def class_name(self) -> str:
        return self._class_name

    def get_node(self) -> str:
        return self._host

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<JSStatic {self._class_name}@{self._host}>"

    # -- static methods (all three invocation modes) ----------------------------

    def sinvoke(self, method: str, params: Sequence[Any] | None = None) -> Any:
        return self._app.sinvoke(self._ref, method, _to_wire(params))

    def ainvoke(
        self, method: str, params: Sequence[Any] | None = None
    ) -> ResultHandle:
        return self._app.ainvoke(self._ref, method, _to_wire(params))

    def oinvoke(
        self, method: str, params: Sequence[Any] | None = None
    ) -> None:
        self._app.oinvoke(self._ref, method, _to_wire(params))

    def minvoke(
        self, method: str, params_list: Sequence[Sequence[Any] | None]
    ) -> MultiHandle:
        """Bulk static invocation: one call per parameter list, shipped
        as a single ``INVOKE_BATCH`` message to the segment's node."""
        return self._app.minvoke(
            [(self._ref, method, _to_wire(p)) for p in params_list]
        )

    # -- static variables ---------------------------------------------------------

    def get_var(self, name: str) -> Any:
        return self._app.request(self._ref.origin, M.STATIC_GETVAR,
                                 (self._class_name, name))

    def set_var(self, name: str, value: Any) -> None:
        self._app.request(self._ref.origin, M.STATIC_SETVAR,
                          (self._class_name, name, value))

    # Paper-style aliases.
    getNode = get_node
    getVar = get_var
    setVar = set_var
