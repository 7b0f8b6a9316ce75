"""Retry-discipline analysis.

The reliability layer (``repro.rmi.reliability``) retries with a
*bounded* loop: ``RetryPolicy`` caps attempts and can carry a deadline.
Hand-rolled retry loops tend to lose that property — a constant-true
``while`` that swallows the transport error and tries again will spin
forever when the peer stays down, and when such a loop is reachable
from a message handler it pins the request process (and the per-object
executing flag) for the rest of the run.

Rules
-----
``unbounded-retry`` (error)
    A ``while True``-style loop whose failure path has no exit: the body
    wraps a call in a ``try`` whose handler swallows the exception, and
    no ``break``/``return``/``raise`` outside the try's success path
    (its body/``else``) can stop the loop — so persistent failure loops
    forever.  Reported only when the loop is reachable from a message
    handler (``_h_*`` / ``_on_*`` / ``endpoint.register`` targets)
    through project call-graph edges, where it blocks a request slot.
    Bound the loop (``for attempt in range(n)``) or re-raise once a
    deadline passes.

Loops whose only escapes sit in the try's success path are still
flagged — success terminates, failure never does, which is exactly the
bug.  Kernel/sanitizer modules are excluded as in the other
interprocedural passes.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, Finding, Project, Severity
from repro.analysis.index import call_chain, excluded_path, reach


def _const_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _walk_stmts(stmts):
    """Statements reachable in this function, skipping nested defs."""
    todo = list(stmts)
    while todo:
        stmt = todo.pop(0)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield stmt
        todo.extend(
            child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.stmt)
        )


def _escapes(stmts) -> list[ast.stmt]:
    return [
        stmt for stmt in _walk_stmts(stmts)
        if isinstance(stmt, (ast.Break, ast.Return, ast.Raise))
    ]


def _has_call(stmts) -> bool:
    for stmt in _walk_stmts(stmts):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                return True
    return False


def _unbounded_retry_loop(func: ast.FunctionDef) -> ast.While | None:
    """The first retry loop in ``func`` whose failure path never exits.

    A loop qualifies when some ``try`` in its body attempts a call and
    every ``break``/``return``/``raise`` in the loop sits inside that
    try's success path (body/``else``) — the except/finally/rest of the
    body offer no way out, so a persistently failing call loops forever.
    """
    for stmt in _walk_stmts(func.body):
        if not (isinstance(stmt, ast.While) and _const_true(stmt.test)):
            continue
        loop_escapes = len(_escapes(stmt.body)) + len(_escapes(stmt.orelse))
        for inner in _walk_stmts(stmt.body):
            if not (isinstance(inner, ast.Try) and inner.handlers):
                continue
            if not _has_call(inner.body):
                continue
            success_escapes = (
                len(_escapes(inner.body)) + len(_escapes(inner.orelse))
            )
            if loop_escapes == success_escapes:
                return stmt
    return None


class RetryDisciplineChecker(Checker):
    name = "retry-discipline"
    rules = {"unbounded-retry": Severity.ERROR}

    def check(self, project: Project) -> list[Finding]:
        graph = project.callgraph
        flagged: dict = {}  # FuncKey -> (FuncInfo, ast.While)
        for key, info in graph.functions.items():
            if excluded_path(key.path):
                continue
            loop = _unbounded_retry_loop(info.node)
            if loop is not None:
                flagged[key] = (info, loop)
        if not flagged:
            return []
        # everything a message handler transitively calls
        parents = reach(graph, [
            entry
            for module in project.modules
            if not excluded_path(module.path)
            for entry in project.facts(module).entry_points()
        ])
        findings: list[Finding] = []
        for key in sorted(flagged, key=lambda k: (k.path, k.qualname)):
            if key not in parents:
                continue
            info, loop = flagged[key]
            chain = call_chain(parents, key)
            via = (
                f" (via {' -> '.join(chain)})" if len(chain) > 1 else ""
            )
            findings.append(self.finding(
                "unbounded-retry",
                key.path,
                loop,
                f"{info.label} retries forever: the loop swallows the "
                "failure and has no attempt or deadline bound, and it is "
                f"reachable from message handler {chain[0]}{via} — a peer "
                "that stays down pins the request process for the rest "
                "of the run. Bound it (for attempt in range(n)) or "
                "re-raise past a deadline",
                symbol=info.label,
            ))
        return findings
