"""The project index: every fact and decision the checkers share.

A :class:`~repro.analysis.base.Project` is what the checkers read.
Besides the parsed modules it answers, lazily and once per project
(the answers die with it):

* ``project.callgraph`` — the name-based call graph;
* ``project.facts(module)`` — that module's :class:`ModuleFacts`: its
  classes (with their lock attributes), its functions (qualname, def,
  CFG) and its kernel-process entry points.

Four decisions live here and nowhere else:

*Which attributes are locks* — :attr:`ClassFacts.lock_attrs` (assigned
from a ``threading`` lock factory or from ``*.make_lock(...)``) plus
one name heuristic, in :func:`lock_name`: an expression whose attribute
chain spells "lock".

*What is held inside this ``with``* — :class:`HeldLocks`, the one
visitor that owns ``visit_With``; a rule subclasses it and keeps only
what it records.

*Which functions are message handlers* — :meth:`ModuleFacts.entry_points`:
``_h_*`` / ``_on_*`` names and ``endpoint.register(kind, fn)`` targets,
optionally with ``spawn(fn)`` targets.

*What does this function reach* — :func:`reach`, a breadth-first walk of
resolved call edges with an optional hop bound.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property

from repro.analysis.base import (
    Module,
    Project,
    dotted_name,
    iter_methods,
    self_attr_name,
)
from repro.analysis.callgraph import CallGraph, FuncInfo, FuncKey
from repro.analysis.cfg import CFG, FunctionNode, function_cfgs

HANDLER_PREFIXES = ("_h_", "_on_")

LOCK_FACTORIES = {"threading.Lock", "threading.RLock", "Lock", "RLock"}

_EXCLUDED_SEGMENTS = {"kernel", "sanitizer"}


def excluded_path(path: str) -> bool:
    """Kernel/sanitizer modules: the kernel *is* the blocking layer (its
    futures' ``wait`` methods are the sinks themselves, its sleeps are
    real on purpose) and the sanitizer instruments it, so no
    interprocedural walk enters them."""
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

    @cached_property
    def lock_attrs(self) -> frozenset[str]:
        """``self.x`` attributes assigned a lock anywhere in the class:
        ``threading.Lock()``-style factories and sanitizer-tracked locks
        from ``*.make_lock(...)``."""
        locks: set[str] = set()
        for node in ast.walk(self.node):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            if dotted_name(func) in LOCK_FACTORIES or (
                isinstance(func, ast.Attribute) and func.attr == "make_lock"
            ):
                locks.update(
                    attr for attr in map(self_attr_name, node.targets)
                    if attr is not None
                )
        return frozenset(locks)


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
    def _scan(self) -> tuple[list[ClassFacts], set[str], set[str]]:
        """One walk: classes, ``.register(kind, fn)`` handler names and
        ``.spawn(fn)`` / ``._spawn(fn)`` targets."""
        classes: list[ClassFacts] = []
        registered: set[str] = set()
        spawned: set[str] = set()
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.ClassDef):
                classes.append(ClassFacts(node))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                if node.func.attr == "register" and len(node.args) >= 2:
                    registered.add(_callable_name(node.args[1]))
                elif node.func.attr in ("spawn", "_spawn") and node.args:
                    spawned.add(_callable_name(node.args[0]))
        return classes, registered - {None}, spawned - {None}

    @property
    def classes(self) -> list[ClassFacts]:
        return self._scan[0]

    @cached_property
    def functions(self) -> list[FunctionFacts]:
        return [
            FunctionFacts(qualname, func, cfg)
            for qualname, func, cfg in function_cfgs(self.module.tree)
        ]

    def entry_points(self, spawned: bool = False) -> list[FuncInfo]:
        """The module's message handlers — what runs as a transport
        process per request; with ``spawned`` every kernel-process entry
        point, i.e. also the functions handed to ``spawn``."""
        _classes, names, spawn_targets = self._scan
        if spawned:
            names = names | spawn_targets
        return [
            info
            for info in self.project.callgraph.functions_in(self.module.path)
            if info.name.startswith(HANDLER_PREFIXES) or info.name in names
        ]


# ---------------------------------------------------------------------------
# held locks
# ---------------------------------------------------------------------------


def lock_name(expr: ast.AST, lock_attrs: frozenset[str]) -> str | None:
    """The lock a ``with`` item acquires, or None if it is not one:
    ``x`` for ``self.x`` and for a bare ``x``, the dotted text for longer
    chains.  It is a lock when its class assigned it one
    (``lock_attrs``) or when any part of the chain mentions "lock"."""
    dotted = dotted_name(expr)
    if dotted is None:
        return None
    parts = dotted.split(".")
    name = parts[-1] if parts[:-1] in ([], ["self"]) else dotted
    if name in lock_attrs or any("lock" in part.lower() for part in parts):
        return name
    return None


class HeldLocks(ast.NodeVisitor):
    """Walks one function body tracking the stack of held locks.

    ``held`` names the locks of the enclosing ``with`` blocks, outermost
    first; subclasses add the ``visit_*`` methods for what they record.
    Nested functions and lambdas run later, possibly without the lock
    held: analyzing them with the current stack would be wrong, and
    without it would be noise, so their bodies are skipped.
    """

    def __init__(self, lock_attrs: frozenset[str] = frozenset()) -> None:
        self.lock_attrs = lock_attrs
        self.held: list[str] = []

    def scan(self, func: FunctionNode) -> None:
        for stmt in func.body:
            self.visit(stmt)

    def visit_With(self, node: ast.With | ast.AsyncWith) -> None:
        depth = len(self.held)
        for item in node.items:
            name = lock_name(item.context_expr, self.lock_attrs)
            if name is None:
                self.visit(item.context_expr)
            else:
                self.held.append(name)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[depth:]

    visit_AsyncWith = visit_With

    def visit_FunctionDef(self, node: ast.AST) -> None:
        pass

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def reach(
    graph: CallGraph, roots: list[FuncInfo], max_hops: int | None = None
) -> dict[FuncKey, FuncInfo | None]:
    """Everything ``roots`` call through resolved project edges, at most
    ``max_hops`` edges away (unbounded when None): function key -> the
    caller it was first reached from (None for a root), in breadth-first
    order.  :func:`excluded_path` modules are never entered."""
    parents: dict[FuncKey, FuncInfo | None] = {
        info.key: None for info in roots
    }
    frontier = list(roots)
    while frontier and max_hops != 0:
        reached = []
        for info in frontier:
            for target, _call in graph.callees(info):
                if target.key in parents or excluded_path(target.key.path):
                    continue
                parents[target.key] = info
                reached.append(target)
        frontier = reached
        if max_hops is not None:
            max_hops -= 1
    return parents


def call_chain(parents: dict[FuncKey, FuncInfo | None],
               key: FuncKey) -> list[str]:
    """Qualnames from the root down to ``key`` along :func:`reach`'s
    parent links."""
    chain = [key.qualname]
    cursor = parents[key]
    while cursor is not None:
        chain.append(cursor.label)
        cursor = parents[cursor.key]
    chain.reverse()
    return chain
