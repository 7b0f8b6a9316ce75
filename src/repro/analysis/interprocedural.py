"""Interprocedural rules built on the project call graph.

The per-file checkers see one function at a time, so a blocking call
hidden one hop away — ``with self._lock: self._refresh()`` where
``_refresh`` performs a synchronous RPC — passes silently.  These rules
walk :class:`~repro.analysis.callgraph.CallGraph` edges to catch the
cross-function variants.

Rules
-----
``rpc-under-lock`` (error)
    A lock-held region calls (possibly through several project
    functions) into a blocking rendezvous — ``.rpc(...)``,
    ``.wait(...)``, ``.get_result(...)`` or ``.result_or_timeout(...)``.
    Holding a lock across a network round-trip stalls every contender
    for the lock's full timeout, and a peer that calls back into this
    agent deadlocks (paper Section 5.2 runs one thread per request).

``kernel-block-transitive`` (warning)
    A kernel-process entry point (message handler or spawned function)
    transitively reaches a raw wall-clock ``time.sleep``.  Under the
    virtual kernel that thread stalls for real while simulated time
    stands still; use ``kernel.sleep`` so the scheduler advances.

Modules under ``repro/kernel`` and ``repro/sanitizer`` are excluded from
both region scanning and traversal: the kernel *is* the blocking layer
(its futures' ``wait`` methods are the sinks themselves) and legitimately
issues real sleeps, and the sanitizer instruments it.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
    dotted_name,
    iter_methods,
    self_attr_name,
)
from repro.analysis.blocking import (
    HANDLER_PREFIXES,
    _registered_handler_names,
)
from repro.analysis.callgraph import CallGraph, FuncInfo, direct_calls
from repro.analysis.lock_discipline import (
    _collect_lock_attrs as _threading_lock_attrs,
)

#: attribute calls that block on a remote party or another process
RPC_SINKS = {"rpc", "wait", "get_result", "result_or_timeout"}
#: raw wall-clock sleeps (kernel.sleep is virtual time and fine)
SLEEP_SINKS = {"time.sleep", "_time.sleep"}

_EXCLUDED_SEGMENTS = {"kernel", "sanitizer"}


def excluded_path(path: str) -> bool:
    """Kernel/sanitizer modules: the blocking layer itself, excluded
    from interprocedural traversal (module docstring) and reused by
    :mod:`repro.analysis.share` for the same reason."""
    return bool(_EXCLUDED_SEGMENTS.intersection(re.split(r"[\\/]", path)))


_excluded = excluded_path


def collect_lock_attrs(klass: ast.ClassDef) -> set[str]:
    """Lock attributes: ``threading.Lock()``-style factories plus
    sanitizer-tracked locks from ``*.make_lock(...)``."""
    locks = set(_threading_lock_attrs(klass))
    for node in ast.walk(klass):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "make_lock"):
            continue
        for target in node.targets:
            attr = self_attr_name(target)
            if attr is not None:
                locks.add(attr)
    return locks


class _GuardedCallScanner(ast.NodeVisitor):
    """Collects the calls a method makes while holding >= 1 lock."""

    def __init__(self, lock_attrs: set[str]) -> None:
        self.lock_attrs = lock_attrs
        self.held: list[str] = []
        self.found: list[tuple[ast.Call, tuple[str, ...]]] = []

    def _is_lock(self, name: str) -> bool:
        return name in self.lock_attrs or "lock" in name.lower()

    def visit_With(self, node: ast.With) -> None:
        acquired = 0
        for item in node.items:
            name = self_attr_name(item.context_expr)
            if name is None and isinstance(item.context_expr, ast.Name):
                name = item.context_expr.id
            if name is not None and self._is_lock(name):
                self.held.append(name)
                acquired += 1
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(acquired):
            self.held.pop()

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            self.found.append((node, tuple(self.held)))
        self.generic_visit(node)

    # Nested defs run later, possibly without the lock held.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _rpc_sink(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in RPC_SINKS:
        return func.attr
    return None


def _sleep_sink(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    return name if name in SLEEP_SINKS else None


def _find_sink(
    graph: CallGraph,
    roots: list[FuncInfo],
    sink_of,
) -> tuple[list[str], str, FuncInfo, ast.Call] | None:
    """BFS through project edges from ``roots`` until some function
    contains a sink call.  Returns (chain of qualnames, sink text,
    function holding the sink, sink call node), or None."""
    queue = list(roots)
    parents: dict[object, tuple[FuncInfo | None, FuncInfo]] = {
        id(info): (None, info) for info in roots
    }
    seen = {info.key for info in roots}
    while queue:
        info = queue.pop(0)
        for call in direct_calls(info.node):
            sink = sink_of(call)
            if sink is not None:
                chain: list[str] = []
                cursor: FuncInfo | None = info
                while cursor is not None:
                    chain.append(cursor.label)
                    cursor = parents[id(cursor)][0]
                chain.reverse()
                return chain, sink, info, call
        for target, _call in graph.callees(info):
            if target.key in seen or _excluded(target.key.path):
                continue
            seen.add(target.key)
            parents[id(target)] = (info, target)
            queue.append(target)
    return None


class InterproceduralChecker(Checker):
    name = "interprocedural"
    rules = {
        "rpc-under-lock": Severity.ERROR,
        "kernel-block-transitive": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        graph = CallGraph(project)
        findings: list[Finding] = []
        for module in project.modules:
            if _excluded(module.path):
                continue
            findings.extend(self._check_locks(graph, module))
            findings.extend(self._check_entries(graph, module))
        return findings

    # -- rpc-under-lock ------------------------------------------------------

    def _check_locks(self, graph: CallGraph, module: Module):
        for klass in ast.walk(module.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            lock_attrs = collect_lock_attrs(klass)
            for method in iter_methods(klass):
                scanner = _GuardedCallScanner(lock_attrs)
                for stmt in method.body:
                    scanner.visit(stmt)
                for call, held in scanner.found:
                    where = f"{klass.name}.{method.name}"
                    finding = self._judge_guarded_call(
                        graph, module, where, call, held
                    )
                    if finding is not None:
                        yield finding

    def _judge_guarded_call(
        self,
        graph: CallGraph,
        module: Module,
        where: str,
        call: ast.Call,
        held: tuple[str, ...],
    ) -> Finding | None:
        locks = ", ".join(f"'{name}'" for name in held)
        sink = _rpc_sink(call)
        if sink is not None:
            return self.finding(
                "rpc-under-lock",
                module.path,
                call,
                f"{where} calls blocking '.{sink}(...)' while holding "
                f"lock(s) {locks}; every contender stalls for the full "
                "round-trip and a peer calling back in deadlocks",
                symbol=where,
            )
        roots = [
            t for t in graph.resolve(self._info_for(graph, module, where),
                                     call)
            if not _excluded(t.key.path)
        ]
        if not roots:
            return None
        hit = _find_sink(graph, roots, _rpc_sink)
        if hit is None:
            return None
        chain, sink, holder, sink_call = hit
        return self.finding(
            "rpc-under-lock",
            module.path,
            call,
            f"{where} holds lock(s) {locks} while calling "
            f"{' -> '.join(chain)}, which blocks on '.{sink}(...)' at "
            f"{holder.key.path}:{getattr(sink_call, 'lineno', '?')}; "
            "release the lock before the rendezvous",
            symbol=where,
        )

    def _info_for(
        self, graph: CallGraph, module: Module, qualname: str
    ) -> FuncInfo:
        from repro.analysis.callgraph import FuncKey

        return graph.functions[FuncKey(module.path, qualname)]

    # -- kernel-block-transitive --------------------------------------------

    def _entry_points(self, graph: CallGraph, module: Module):
        registered = _registered_handler_names(module.tree)
        spawned: set[str] = set()
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("spawn", "_spawn")
                    and node.args):
                continue
            target = node.args[0]
            name = self_attr_name(target)
            if name is None and isinstance(target, ast.Name):
                name = target.id
            if name is not None:
                spawned.add(name)
        for key, info in graph.functions.items():
            if key.path != module.path:
                continue
            if (info.name.startswith(HANDLER_PREFIXES)
                    or info.name in registered
                    or info.name in spawned):
                yield info

    def _check_entries(self, graph: CallGraph, module: Module):
        for entry in self._entry_points(graph, module):
            # Direct sleeps in handlers are blocking-sleep-in-handler's
            # job; this rule owns the >= 1 hop cases.
            for call in direct_calls(entry.node):
                roots = [
                    t for t in graph.resolve(entry, call)
                    if not _excluded(t.key.path)
                ]
                if not roots:
                    continue
                hit = _find_sink(graph, roots, _sleep_sink)
                if hit is None:
                    continue
                chain, sink, holder, sink_call = hit
                yield self.finding(
                    "kernel-block-transitive",
                    module.path,
                    call,
                    f"kernel process entry {entry.label} reaches raw "
                    f"wall-clock '{sink}' via {' -> '.join(chain)} at "
                    f"{holder.key.path}:"
                    f"{getattr(sink_call, 'lineno', '?')}; use "
                    "kernel.sleep so virtual time advances",
                    symbol=entry.label,
                )
                break  # one finding per entry point is enough
