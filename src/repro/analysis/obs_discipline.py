"""Tracer-under-lock analysis.

The obs tracer is designed to be safe from anywhere *except* inside a
lock-held region: ``tracer.count``/``observe`` take the metrics registry
lock, so calling them while holding a runtime lock (``_holder_lock``,
the kernel's ``_lock``, ...) adds a lock-order edge between runtime and
observability — and even the lock-free ``emit`` path pays its cost
inside the critical section, stretching every contender's wait.  The
hook-point convention is: leave the ``with`` block first, then trace.

Rules
-----
``tracer-call-under-lock`` (warning)
    ``*.emit(...)`` / ``*.count(...)`` / ``*.observe(...)`` /
    ``*.emit_span(...)`` / ``*.begin_span(...)`` / ``*.end_span(...)``
    on anything named ``tracer`` lexically inside a ``with <lock>:``
    block.  The span calls are covered too: ``begin_span`` mutates the
    open-span registry and installs thread-local context, and
    ``end_span`` re-enters ``emit`` — none of that belongs inside a
    runtime critical section.

``registry-call-under-lock`` (warning)
    The same discipline for the rest of the telemetry plane:
    ``count`` / ``observe`` / ``merge`` / ``merge_snapshot`` /
    ``ingest`` / ``record`` on a receiver whose attribute chain
    mentions ``metrics``, ``recorder``, ``flight`` or ``telemetry``,
    inside a ``with <lock>:`` block.  Registry mutation takes the
    registry mutex and ``FlightRecorder.record`` snapshots the whole
    ring — both stretch the caller's critical section and add a
    runtime→obs lock-order edge.  When the receiver also mentions
    ``tracer`` the tracer rule wins (one finding, not two).

Which ``with`` blocks hold a lock is :mod:`repro.analysis.index`'s
decision, as for every lock rule: the enclosing class assigned the
attribute a lock, or the context expression's name mentions "lock".
Nested function definitions are skipped — they do not run under the
enclosing ``with``.
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
from repro.analysis.index import HeldLocks, ModuleFacts

TRACER_METHODS = {
    "emit", "count", "observe", "emit_span", "begin_span", "end_span",
}

REGISTRY_METHODS = {
    "count", "observe", "merge", "merge_snapshot", "ingest", "record",
}

REGISTRY_WORDS = ("metrics", "recorder", "flight", "telemetry")


def _attr_chain(expr: ast.AST) -> list[str]:
    """["self", "world", "tracer", "emit"] for self.world.tracer.emit."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _is_tracer_call(call: ast.Call) -> bool:
    chain = _attr_chain(call.func)
    if len(chain) < 2 or chain[-1] not in TRACER_METHODS:
        return False
    return any("tracer" in part.lower() for part in chain[:-1])


def _is_registry_call(call: ast.Call) -> bool:
    chain = _attr_chain(call.func)
    if len(chain) < 2 or chain[-1] not in REGISTRY_METHODS:
        return False
    receiver = [part.lower() for part in chain[:-1]]
    if any("tracer" in part for part in receiver):
        return False  # the tracer rule owns this call
    return any(word in part for part in receiver for word in REGISTRY_WORDS)


class _FunctionScanner(HeldLocks):
    """Records the telemetry calls one function makes under a lock."""

    def __init__(self, lock_attrs: frozenset[str]) -> None:
        super().__init__(lock_attrs)
        self.hits: list[tuple[str, ast.Call, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            lock = dotted_name(self.sites[-1])
            if _is_tracer_call(node):
                self.hits.append(("tracer-call-under-lock", node, lock))
            elif _is_registry_call(node):
                self.hits.append(("registry-call-under-lock", node, lock))
        self.generic_visit(node)


class ObsDisciplineChecker(Checker):
    name = "obs-discipline"
    rules = {
        "tracer-call-under-lock": Severity.WARNING,
        "registry-call-under-lock": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            findings.extend(self._check_module(project.facts(module)))
        return findings

    def _check_module(self, facts: ModuleFacts):
        for func in facts.functions:
            scanner = _FunctionScanner(func.lock_attrs)
            scanner.scan(func.node)
            for rule, call, lock in scanner.hits:
                method = call.func.attr if isinstance(
                    call.func, ast.Attribute
                ) else "?"
                what = ("tracer" if rule == "tracer-call-under-lock"
                        else "telemetry registry")
                yield self.finding(
                    rule,
                    facts.module.path,
                    call,
                    f"{what} .{method}() inside 'with {lock}': move the "
                    "call after the lock is released — it takes the "
                    "metrics lock and stretches the critical section",
                    symbol=func.node.name,
                )
