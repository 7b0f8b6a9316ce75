"""Lock-discipline analysis.

Per class, builds the map of ``self.*`` attributes touched under a
``with self._lock:`` block versus outside one.  Which ``with`` blocks
hold a lock is :mod:`repro.analysis.index`'s decision, shared with every
lock rule.

Rules
-----
``unguarded-write`` (error)
    An attribute is read or written under a lock somewhere in the class
    but written *outside* any lock elsewhere — the classic
    check-then-act race (paper Section 5.2 runs one thread per request,
    so holder tables are genuinely shared).

``unlocked-mutation`` (warning)
    A class that owns a lock (:attr:`repro.analysis.index.ClassFacts.lock_attrs`:
    a ``threading.Lock``/``RLock`` or a ``make_lock`` result) mutates a
    container attribute (append/pop/subscript-store/...) outside any
    lock.  Plain rebinding assignments are not flagged — only mutations
    that are non-atomic read-modify-write sequences.

Constructor-like methods (``__init__``, ``init_*``) are exempt: the
object is not yet shared while they run.  Locks taken in conflicting
orders are symsan's to find (``san-lock-deadlock``), on the run itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
    is_init_method,
    self_attr_name,
)
from repro.analysis.index import ClassFacts, HeldLocks

#: container mutations that are read-modify-write, not atomic rebinds
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "appendleft", "popleft",
}


@dataclass
class _Access:
    attr: str
    method: str
    node: ast.AST
    kind: str  # "write" | "mutate" | "read"
    guards: frozenset[str]


@dataclass
class _ClassReport:
    lock_attrs: frozenset[str]
    accesses: list[_Access] = field(default_factory=list)


class _MethodScanner(HeldLocks):
    """Records one method's ``self.*`` accesses, each with the locks
    held at it."""

    def __init__(self, report: _ClassReport, method: str) -> None:
        super().__init__(report.lock_attrs)
        self.report = report
        self.method = method

    def _record(self, attr: str, node: ast.AST, kind: str) -> None:
        self.report.accesses.append(
            _Access(attr, self.method, node, kind, frozenset(self.held))
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self_attr_name(node.target)
        if attr is not None:
            # += on an attribute is a read-modify-write: a mutation.
            self._record(attr, node, "mutate")
        else:
            self._record_target(node.target)
        self.visit(node.value)

    def _record_target(self, target: ast.AST) -> None:
        attr = self_attr_name(target)
        if attr is not None:
            self._record(attr, target, "write")
            return
        if isinstance(target, ast.Subscript):
            # self.x[k] = v mutates container self.x
            attr = self_attr_name(target.value)
            if attr is not None:
                self._record(attr, target, "mutate")
            else:
                self.visit(target.value)
            self.visit(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
        ):
            attr = self_attr_name(func.value)
            if attr is not None:
                self._record(attr, node, "mutate")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            attr = self_attr_name(node)
            if attr is not None:
                self._record(attr, node, "read")
        self.generic_visit(node)


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    rules = {
        "unguarded-write": Severity.ERROR,
        "unlocked-mutation": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            for cls in project.facts(module).classes:
                findings.extend(self._check_class(module, cls))
        return findings

    def _check_class(self, module: Module, cls: ClassFacts):
        report = _ClassReport(cls.lock_attrs)
        for method in cls.methods:
            _MethodScanner(report, method.name).scan(method)
        return self._discipline_findings(module, cls.node, report)

    def _discipline_findings(
        self, module: Module, klass: ast.ClassDef, report: _ClassReport
    ):
        guarded_attrs = {
            a.attr for a in report.accesses
            if a.guards and a.attr not in report.lock_attrs
        }
        flagged: set[tuple[str, int]] = set()
        for access in report.accesses:
            if access.kind == "read" or access.guards:
                continue
            if is_init_method(access.method):
                continue
            if access.attr in report.lock_attrs:
                continue
            line = getattr(access.node, "lineno", 0)
            if access.attr in guarded_attrs:
                if (access.attr, line) in flagged:
                    continue
                flagged.add((access.attr, line))
                locks = sorted(
                    lock
                    for a in report.accesses
                    for lock in a.guards
                    if a.attr == access.attr
                )
                yield self.finding(
                    "unguarded-write",
                    module.path,
                    access.node,
                    f"attribute '{access.attr}' is accessed under "
                    f"lock(s) {', '.join(locks)} elsewhere in "
                    f"{klass.name} but written here without holding a "
                    f"lock (method {access.method})",
                    symbol=f"{klass.name}.{access.attr}",
                )
            elif access.kind == "mutate" and report.lock_attrs:
                yield self.finding(
                    "unlocked-mutation",
                    module.path,
                    access.node,
                    f"{klass.name} owns lock(s) "
                    f"{', '.join(sorted(report.lock_attrs))} but mutates "
                    f"container attribute '{access.attr}' outside any "
                    f"lock (method {access.method}); read-modify-write "
                    "is not atomic under the wall-clock kernel",
                    symbol=f"{klass.name}.{access.attr}",
                )
