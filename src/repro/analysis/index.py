"""The project index: every fact and decision the checkers share.

A :class:`~repro.analysis.base.Project` is what the checkers read.
Besides the parsed modules it answers, lazily and once per project
(the answers die with it):

* ``project.callgraph`` — the name-based call graph;
* ``project.facts(module)`` — that module's :class:`ModuleFacts`: its
  classes, its functions (qualname, def, CFG) and its message handlers.

Two decisions live here and nowhere else:

*Which functions are message handlers* — :meth:`ModuleFacts.entry_points`:
``_h_*`` / ``_on_*`` names and ``endpoint.register(kind, fn)`` targets.

*What does this function hand its work to* — :func:`reach`, the function
and the project functions it calls directly.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property

from repro.analysis.base import (
    Module,
    Project,
    iter_methods,
    self_attr_name,
)
from repro.analysis.callgraph import CallGraph, FuncInfo
from repro.analysis.cfg import CFG, FunctionNode, function_cfgs

HANDLER_PREFIXES = ("_h_", "_on_")

_EXCLUDED_SEGMENTS = {"kernel", "sanitizer"}


def excluded_path(path: str) -> bool:
    """Kernel/sanitizer modules: the kernel *is* the blocking layer (its
    futures' ``wait`` methods are the sinks themselves, its gates block
    OS threads on purpose) and the sanitizer instruments it, so no call
    edge is followed into them."""
    return bool(_EXCLUDED_SEGMENTS.intersection(re.split(r"[\\/]", path)))


# ---------------------------------------------------------------------------
# per-class, per-function and per-module facts
# ---------------------------------------------------------------------------


@dataclass
class ClassFacts:
    """One class definition, nested ones included."""

    node: ast.ClassDef

    @property
    def name(self) -> str:
        return self.node.name

    @cached_property
    def methods(self) -> list[FunctionNode]:
        return list(iter_methods(self.node))


@dataclass
class FunctionFacts:
    """One function (methods and nested defs included), analyzed alone."""

    qualname: str
    node: FunctionNode
    cfg: CFG


def _callable_name(expr: ast.AST) -> str | None:
    """``fn`` for ``fn`` or ``self.fn`` passed as a callable."""
    return expr.id if isinstance(expr, ast.Name) else self_attr_name(expr)


class ModuleFacts:
    """What the checkers share about one module; every fact is computed
    when first read."""

    def __init__(self, project: Project, module: Module) -> None:
        self.project = project
        self.module = module

    @cached_property
    def _scan(self) -> tuple[list[ClassFacts], set[str]]:
        """One walk: classes and ``.register(kind, fn)`` handler names."""
        classes: list[ClassFacts] = []
        registered: set[str] = set()
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.ClassDef):
                classes.append(ClassFacts(node))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "register" and len(node.args) >= 2:
                registered.add(_callable_name(node.args[1]))
        return classes, registered - {None}

    @property
    def classes(self) -> list[ClassFacts]:
        return self._scan[0]

    @cached_property
    def functions(self) -> list[FunctionFacts]:
        return [
            FunctionFacts(qualname, func, cfg)
            for qualname, func, cfg in function_cfgs(self.module.tree)
        ]

    def entry_points(self) -> list[FuncInfo]:
        """The module's message handlers — what runs as a transport
        process per request."""
        names = self._scan[1]
        return [
            info
            for info in self.project.callgraph.functions_in(self.module.path)
            if info.name.startswith(HANDLER_PREFIXES) or info.name in names
        ]


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def reach(graph: CallGraph, root: FuncInfo) -> list[FuncInfo]:
    """``root``, then each project function it calls directly, once and
    in call order.  :func:`excluded_path` modules are never entered."""
    reached = {root.key: root}
    for target, _call in graph.callees(root):
        if not excluded_path(target.key.path):
            reached.setdefault(target.key, target)
    return list(reached.values())
