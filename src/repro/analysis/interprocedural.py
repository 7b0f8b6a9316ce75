"""Interprocedural rules built on the project call graph.

The per-file checkers see one function at a time, so a blocking call
hidden one hop away passes silently.  This rule walks
:class:`~repro.analysis.callgraph.CallGraph` edges to catch the
cross-function variant.

Rules
-----
``kernel-block-transitive`` (warning)
    A kernel-process entry point (message handler or spawned function)
    transitively reaches a raw wall-clock ``time.sleep``.  Under the
    virtual kernel that thread stalls for real while simulated time
    stands still; use ``kernel.sleep`` so the scheduler advances.

Modules under ``repro/kernel`` and ``repro/sanitizer`` are excluded from
both scanning and traversal (:func:`repro.analysis.index.excluded_path`).
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
    direct_calls,
)
from repro.analysis.index import (
    ModuleFacts,
    call_chain,
    excluded_path,
    reach,
)

#: raw wall-clock sleeps (kernel.sleep is virtual time and fine)
SLEEP_SINKS = {"time.sleep", "_time.sleep"}


def _sleep_sink(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    return name if name in SLEEP_SINKS else None


def _find_sink(
    graph: CallGraph,
    caller: FuncInfo,
    call: ast.Call,
) -> tuple[list[str], str, FuncInfo, ast.Call] | None:
    """The first function that ``call`` (made by ``caller``) reaches,
    breadth-first, which contains a raw sleep.  Returns (chain of
    qualnames, sink text, function holding the sink, sink call node),
    or None."""
    parents = reach(graph, [
        t for t in graph.resolve(caller, call)
        if not excluded_path(t.key.path)
    ])
    for key in parents:
        info = graph.functions[key]
        for inner in direct_calls(info.node):
            sink = _sleep_sink(inner)
            if sink is not None:
                return call_chain(parents, key), sink, info, inner
    return None


class InterproceduralChecker(Checker):
    name = "interprocedural"
    rules = {
        "kernel-block-transitive": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        graph = project.callgraph
        findings: list[Finding] = []
        for module in project.modules:
            if excluded_path(module.path):
                continue
            findings.extend(self._check_entries(graph, project.facts(module)))
        return findings

    # -- kernel-block-transitive --------------------------------------------

    def _check_entries(self, graph: CallGraph, facts: ModuleFacts):
        for entry in facts.entry_points(spawned=True):
            # Direct sleeps in handlers are blocking-sleep-in-handler's
            # job; this rule owns the >= 1 hop cases.
            for call in direct_calls(entry.node):
                hit = _find_sink(graph, entry, call)
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
