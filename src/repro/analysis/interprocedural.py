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
both region scanning and traversal
(:func:`repro.analysis.index.excluded_path`).
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    Checker,
    Finding,
    Project,
    Severity,
    dotted_name,
)
from repro.analysis.callgraph import (
    CallGraph,
    FuncInfo,
    FuncKey,
    direct_calls,
)
from repro.analysis.index import (
    HeldLocks,
    ModuleFacts,
    call_chain,
    excluded_path,
    reach,
)

#: attribute calls that block on a remote party or another process
RPC_SINKS = {"rpc", "wait", "get_result", "result_or_timeout"}
#: raw wall-clock sleeps (kernel.sleep is virtual time and fine)
SLEEP_SINKS = {"time.sleep", "_time.sleep"}


class _GuardedCallScanner(HeldLocks):
    """Collects the calls a method makes while holding >= 1 lock."""

    def __init__(self, lock_attrs: frozenset[str]) -> None:
        super().__init__(lock_attrs)
        self.found: list[tuple[ast.Call, tuple[str, ...]]] = []

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            self.found.append((node, tuple(self.held)))
        self.generic_visit(node)


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
    caller: FuncInfo,
    call: ast.Call,
    sink_of,
) -> tuple[list[str], str, FuncInfo, ast.Call] | None:
    """The first function that ``call`` (made by ``caller``) reaches,
    breadth-first, which contains a sink call.  Returns (chain of
    qualnames, sink text, function holding the sink, sink call node),
    or None."""
    parents = reach(graph, [
        t for t in graph.resolve(caller, call)
        if not excluded_path(t.key.path)
    ])
    for key in parents:
        info = graph.functions[key]
        for inner in direct_calls(info.node):
            sink = sink_of(inner)
            if sink is not None:
                return call_chain(parents, key), sink, info, inner
    return None


class InterproceduralChecker(Checker):
    name = "interprocedural"
    rules = {
        "rpc-under-lock": Severity.ERROR,
        "kernel-block-transitive": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        graph = project.callgraph
        findings: list[Finding] = []
        for module in project.modules:
            if excluded_path(module.path):
                continue
            facts = project.facts(module)
            findings.extend(self._check_locks(graph, facts))
            findings.extend(self._check_entries(graph, facts))
        return findings

    # -- rpc-under-lock ------------------------------------------------------

    def _check_locks(self, graph: CallGraph, facts: ModuleFacts):
        path = facts.module.path
        for cls in facts.classes:
            for method in cls.methods:
                scanner = _GuardedCallScanner(cls.lock_attrs)
                scanner.scan(method)
                caller = graph.functions[
                    FuncKey(path, f"{cls.name}.{method.name}")
                ]
                for call, held in scanner.found:
                    finding = self._judge_guarded_call(
                        graph, caller, call, held
                    )
                    if finding is not None:
                        yield finding

    def _judge_guarded_call(
        self,
        graph: CallGraph,
        caller: FuncInfo,
        call: ast.Call,
        held: tuple[str, ...],
    ) -> Finding | None:
        where = caller.label
        locks = ", ".join(f"'{name}'" for name in held)
        sink = _rpc_sink(call)
        if sink is not None:
            return self.finding(
                "rpc-under-lock",
                caller.key.path,
                call,
                f"{where} calls blocking '.{sink}(...)' while holding "
                f"lock(s) {locks}; every contender stalls for the full "
                "round-trip and a peer calling back in deadlocks",
                symbol=where,
            )
        hit = _find_sink(graph, caller, call, _rpc_sink)
        if hit is None:
            return None
        chain, sink, holder, sink_call = hit
        return self.finding(
            "rpc-under-lock",
            caller.key.path,
            call,
            f"{where} holds lock(s) {locks} while calling "
            f"{' -> '.join(chain)}, which blocks on '.{sink}(...)' at "
            f"{holder.key.path}:{getattr(sink_call, 'lineno', '?')}; "
            "release the lock before the rendezvous",
            symbol=where,
        )

    # -- kernel-block-transitive --------------------------------------------

    def _check_entries(self, graph: CallGraph, facts: ModuleFacts):
        for entry in facts.entry_points(spawned=True):
            # Direct sleeps in handlers are blocking-sleep-in-handler's
            # job; this rule owns the >= 1 hop cases.
            for call in direct_calls(entry.node):
                hit = _find_sink(graph, entry, call, _sleep_sink)
                if hit is None:
                    continue
                chain, sink, holder, sink_call = hit
                yield self.finding(
                    "kernel-block-transitive",
                    facts.module.path,
                    call,
                    f"kernel process entry {entry.label} reaches raw "
                    f"wall-clock '{sink}' via {' -> '.join(chain)} at "
                    f"{holder.key.path}:"
                    f"{getattr(sink_call, 'lineno', '?')}; use "
                    "kernel.sleep so virtual time advances",
                    symbol=entry.label,
                )
                break  # one finding per entry point is enough
