"""symloc: locality & communication-cost rules on the CFG/liveness engine.

JavaSymphony's premise is that the *programmer* controls locality —
placement, migration, and the three invocation modes (``sinvoke`` /
``ainvoke`` / ``oinvoke``) are the knobs.  These rules statically catch
the communication anti-patterns the paper's evaluation warns against:
chatty fine-grained synchronous RMI, synchronous calls where
asynchrony would overlap, and migration thrash.

Rules
-----
``remote-invoke-in-loop`` (warning; **error** at loop depth >= 2)
    A synchronous remote call inside a loop: a bare ``sinvoke``, an
    ``ainvoke(...).get_result()`` chain, or an ainvoke whose handle is
    awaited immediately in the same iteration.  Each iteration pays a
    full network round-trip; ship the call set as one ``minvoke`` batch
    (or batch the ainvokes and collect the handles after the loop), or
    use ``oinvoke`` when the result is unused.

``sync-invoke-async-opportunity`` (info)
    A ``sinvoke`` whose result is provably not needed for the next
    :data:`OVERLAP_WINDOW` statements (statement-level liveness): the
    round-trip could overlap that work via ``ainvoke`` — or ``oinvoke``
    if the result is never read at all.

``migrate-in-loop`` (warning)
    ``migrate`` inside a loop moves the whole object state per
    iteration; hoist placement before the loop or guard it so it can
    fire at most once.

Receivers created as ``JSObj(cls, "local")`` are exempt everywhere:
invoking a home-node object is a direct call, not communication.
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
    dotted_name,
)
from repro.analysis.cfg import (
    CFG,
    calls_in_stmt,
    function_cfgs,
    stmt_defs,
    stmt_uses,
)
from repro.analysis.dataflow import Liveness

#: a sinvoke result untouched for this many following statements is an
#: overlap opportunity
OVERLAP_WINDOW = 2


def _receiver(call: ast.Call) -> str | None:
    """Dotted receiver of a method call (``a.b`` for ``a.b.m(...)``)."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


def _method_name(call: ast.Call) -> str:
    """The invoked remote method, when passed as a literal."""
    if call.args and isinstance(call.args[0], ast.Constant) and \
            isinstance(call.args[0].value, str):
        return call.args[0].value
    return "?"


def _is_local_ctor(value: ast.AST) -> bool:
    """``JSObj(cls, "local")`` — a home-node object, zero-cost calls."""
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "JSObj"
        and len(value.args) >= 2
        and isinstance(value.args[1], ast.Constant)
        and value.args[1].value == "local"
    )


def _single_name_target(stmt: ast.AST) -> str | None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
            isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


class _LocalityFacts:
    """Everything the rules need about one function, computed once."""

    def __init__(self, cfg: CFG) -> None:
        self.liveness = Liveness(cfg)
        self.local_names: set[str] = set()
        for _block, _idx, stmt in cfg.statements():
            target = _single_name_target(stmt)
            if target is not None and _is_local_ctor(stmt.value):
                self.local_names.add(target)


class LocalityChecker(Checker):
    name = "locality"
    rules = {
        "remote-invoke-in-loop": Severity.WARNING,
        "sync-invoke-async-opportunity": Severity.INFO,
        "migrate-in-loop": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            for _qualname, _func, cfg in function_cfgs(module.tree):
                findings.extend(self._check_function(module, cfg))
        return findings

    def _check_function(self, module: Module, cfg: CFG):
        facts = _LocalityFacts(cfg)
        for block, idx, stmt in cfg.statements():
            for call, comp_depth in calls_in_stmt(stmt):
                if not isinstance(call.func, ast.Attribute):
                    continue
                depth = block.loop_depth + comp_depth
                attr = call.func.attr
                recv = _receiver(call)
                if recv in facts.local_names:
                    continue
                if attr == "sinvoke":
                    yield from self._check_sinvoke(
                        module, facts, block, idx, stmt, call, depth
                    )
                elif attr in ("get_result", "is_ready"):
                    yield from self._check_wait(
                        module, block, idx, call, depth
                    )
                elif attr == "migrate" and depth >= 1:
                    yield self.finding(
                        "migrate-in-loop", module.path, call,
                        f"migrate inside a loop (depth {depth}) moves "
                        "the whole object state every iteration; hoist "
                        "the placement before the loop or guard it to "
                        "fire at most once",
                        symbol=recv or "",
                    )

    def _in_loop_finding(self, module: Module, call: ast.Call,
                         depth: int, message: str, symbol: str) -> Finding:
        severity = Severity.ERROR if depth >= 2 else Severity.WARNING
        return Finding(
            rule="remote-invoke-in-loop",
            severity=severity,
            path=module.path,
            line=call.lineno,
            col=call.col_offset,
            message=message,
            symbol=symbol,
        )

    def _check_sinvoke(self, module, facts, block, idx, stmt, call, depth):
        recv = _receiver(call) or "?"
        method = _method_name(call)
        symbol = f"{recv}.{method}"
        if depth >= 1:
            yield self._in_loop_finding(
                module, call, depth,
                f"synchronous sinvoke({method!r}) inside a loop "
                f"(depth {depth}): every iteration blocks for a full "
                "network round-trip; ship the whole call set as one "
                "minvoke batch (or batch with ainvoke and collect the "
                "handles after the loop), or oinvoke if the result is "
                "unused",
                symbol,
            )
            return
        # Overlap opportunities only make sense at statement level —
        # skip sinvokes buried in larger expressions (their result is
        # consumed immediately by construction).
        if isinstance(stmt, ast.Expr) and stmt.value is call:
            trailing = block.stmts[idx + 1:idx + 1 + OVERLAP_WINDOW]
            if len(block.stmts) - (idx + 1) >= OVERLAP_WINDOW and not any(
                self._invokes_receiver(s, recv) for s in trailing
            ):
                yield self.finding(
                    "sync-invoke-async-opportunity", module.path, call,
                    f"result of sinvoke({method!r}) is discarded but "
                    "the call still blocks for the reply; oinvoke is "
                    "one-sided, or ainvoke to overlap the round-trip "
                    "with the following statements",
                    symbol=symbol,
                )
            return
        target = _single_name_target(stmt)
        if target is None or stmt.value is not call:
            return
        distance = None
        for offset, later in enumerate(block.stmts[idx + 1:], start=1):
            if target in stmt_uses(later):
                distance = offset
                break
            if target in stmt_defs(later):
                distance = None  # rebound before any use: dead result
                break
        if distance is not None and distance > OVERLAP_WINDOW:
            yield self.finding(
                "sync-invoke-async-opportunity", module.path, call,
                f"{target!r} is not read for the next {distance - 1} "
                f"statement(s); ainvoke here and get_result() at first "
                "use would overlap the round-trip with that work",
                symbol=symbol,
            )
        elif distance is None and \
                target not in facts.liveness.live_after(block, idx):
            yield self.finding(
                "sync-invoke-async-opportunity", module.path, call,
                f"{target!r} is never read after this sinvoke"
                f"({method!r}); the call blocks for a result nothing "
                "uses — oinvoke would not",
                symbol=symbol,
            )

    def _check_wait(self, module, block, idx, call, depth):
        if depth < 1:
            return
        waited = call.func.value
        attr = call.func.attr
        # obj.ainvoke(...).get_result(): a sync call in disguise.
        if isinstance(waited, ast.Call) and \
                isinstance(waited.func, ast.Attribute) and \
                waited.func.attr == "ainvoke":
            recv = _receiver(waited) or "?"
            method = _method_name(waited)
            yield self._in_loop_finding(
                module, call, depth,
                f"ainvoke({method!r}).{attr}() chained inside a loop "
                "is a synchronous call in disguise — nothing overlaps. "
                "Ship the call set as one minvoke batch, or issue the "
                "ainvokes across iterations first and collect the "
                "handles",
                f"{recv}.{method}",
            )
            return
        # h = obj.ainvoke(...) immediately followed by h.get_result()
        # in the same iteration: no overlap either.
        if not isinstance(waited, ast.Name) or idx == 0:
            return
        prev = block.stmts[idx - 1]
        if _single_name_target(prev) == waited.id and \
                isinstance(prev.value, ast.Call) and \
                isinstance(prev.value.func, ast.Attribute) and \
                prev.value.func.attr == "ainvoke":
            method = _method_name(prev.value)
            yield self._in_loop_finding(
                module, call, depth,
                f"handle {waited.id!r} is awaited immediately after "
                f"its ainvoke({method!r}) in the same loop iteration: "
                "the round-trips serialize. Ship the call set as one "
                "minvoke batch, or collect the handles and await them "
                "after the loop",
                f"{waited.id}.{method}",
            )

    @staticmethod
    def _invokes_receiver(stmt: ast.AST, recv: str) -> bool:
        """Does ``stmt`` invoke a method on ``recv``?  Back-to-back
        calls on one object are ordered state updates, not an overlap
        opportunity."""
        for call, _ in calls_in_stmt(stmt):
            if isinstance(call.func, ast.Attribute) and \
                    _receiver(call) == recv:
                return True
        return False


__all__ = ["LocalityChecker", "OVERLAP_WINDOW"]
