"""Project-wide call graph with name-based resolution.

Interprocedural passes need to answer "what can this function end up
calling?" without running the program.  We build a conservative,
name-based call graph over every parsed module:

* ``self.X(...)`` inside a method resolves to method ``X`` on the
  enclosing class, or — walking the AST base-class *names* transitively,
  project-wide — on any base class that defines it.  The own-class
  definition shadows base definitions.
* a bare ``X(...)`` resolves to a module-level ``def X`` in the same
  module.
* everything else (attribute chains like ``self.endpoint.rpc``, calls
  through locals, imported names) stays unresolved: edges we cannot
  prove are absent, so the graph under-approximates reachability through
  *project* code and never invents paths.  Blocking *sinks* are matched
  syntactically at each call site by the rules instead.

Nested ``def``/``lambda`` bodies are not treated as part of the
enclosing function: they run later (or never), possibly under a
different lock/process context.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.base import Module, Project, self_attr_name

if TYPE_CHECKING:
    from repro.analysis.index import ClassFacts


@dataclass(frozen=True)
class FuncKey:
    """Stable identity of one function: file path + dotted qualname."""

    path: str
    qualname: str  # "Class.method" or "function"


@dataclass
class FuncInfo:
    key: FuncKey
    module: Module
    node: ast.FunctionDef
    cls: str | None  # enclosing class name, None for module-level defs

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def label(self) -> str:
        return self.key.qualname


def direct_calls(node: ast.AST):
    """Call nodes lexically inside ``node``, skipping nested defs and
    lambdas (they execute under a different context, if at all)."""
    stack: list[ast.AST] = (
        list(node.body) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) else [node]
    )
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(item, ast.Call):
            yield item
        stack.extend(ast.iter_child_nodes(item))


def _base_names(klass: ast.ClassDef) -> set[str]:
    """Last dotted component of each AST base (``agents.Foo`` -> Foo)."""
    names: set[str] = set()
    for base in klass.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


class CallGraph:
    """Name-based call graph over a :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.functions: dict[FuncKey, FuncInfo] = {}
        #: (class name, method name) -> every matching method, project-wide
        self._methods: dict[tuple[str, str], list[FuncKey]] = {}
        #: (path, function name) -> module-level def
        self._module_level: dict[tuple[str, str], FuncKey] = {}
        #: class name -> union of its AST base-class names, project-wide
        self._bases: dict[str, set[str]] = {}
        for module in project.modules:
            self._index_module(module, project.facts(module).classes)
        self._by_path: dict[str, list[FuncInfo]] = {}
        for info in self.functions.values():
            self._by_path.setdefault(info.key.path, []).append(info)

    def _index_module(
        self, module: Module, classes: list[ClassFacts]
    ) -> None:
        for item in module.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = FuncKey(module.path, item.name)
                self.functions[key] = FuncInfo(key, module, item, None)
                self._module_level[(module.path, item.name)] = key
        for cls in classes:
            self._bases.setdefault(cls.name, set()).update(
                _base_names(cls.node)
            )
            for method in cls.methods:
                key = FuncKey(module.path, f"{cls.name}.{method.name}")
                self.functions[key] = FuncInfo(
                    key, module, method, cls.name
                )
                self._methods.setdefault(
                    (cls.name, method.name), []
                ).append(key)

    def functions_in(self, path: str) -> list[FuncInfo]:
        """The functions defined in one file, in definition order."""
        return self._by_path.get(path, [])

    # -- resolution ----------------------------------------------------------

    def _class_closure(self, cls: str) -> list[str]:
        """``cls`` plus its transitive base-class names (BFS order)."""
        order = [cls]
        seen = {cls}
        i = 0
        while i < len(order):
            for base in sorted(self._bases.get(order[i], ())):
                if base not in seen:
                    seen.add(base)
                    order.append(base)
            i += 1
        return order

    def resolve(self, caller: FuncInfo, call: ast.Call) -> list[FuncInfo]:
        """Project functions ``call`` may invoke (possibly empty)."""
        func = call.func
        # self.X(...) -> method on the enclosing class or its bases
        attr = self_attr_name(func)
        if attr is not None and caller.cls is not None:
            for cls in self._class_closure(caller.cls):
                keys = self._methods.get((cls, attr))
                if keys:
                    return [self.functions[k] for k in keys]
            return []
        # bare X(...) -> module-level def in the same file
        if isinstance(func, ast.Name):
            key = self._module_level.get((caller.key.path, func.id))
            return [self.functions[key]] if key else []
        return []

    def callees(self, info: FuncInfo):
        """Resolved ``(callee, call node)`` edges out of ``info``."""
        for call in direct_calls(info.node):
            for target in self.resolve(info, call):
                yield target, call
