"""symloc: locality & communication-cost rules on the CFG/dataflow engine.

JavaSymphony's premise is that the *programmer* controls locality —
placement, migration, and the three invocation modes (``sinvoke`` /
``ainvoke`` / ``oinvoke``) are the knobs.  These rules statically catch
the communication anti-patterns the paper's evaluation warns against:
chatty fine-grained synchronous RMI, synchronous calls where
asynchrony would overlap, dropped result handles, migration thrash,
and re-serializing a large argument per call instead of installing it
once (the matmul ``oinvoke("init", B)`` idiom).

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

``dropped-result-handle`` (warning)
    An ``ainvoke`` handle that dies without ``get_result()`` /
    ``is_ready()``: remote exceptions are silently lost.  Use
    ``oinvoke`` for genuine fire-and-forget (it never materializes a
    result) or collect the handle.

``migrate-in-loop`` (warning)
    ``migrate`` inside a loop moves the whole object state per
    iteration; hoist placement before the loop or guard it so it can
    fire at most once.

``repeated-remote-no-migration`` (info)
    The same loop-invariant object is invoked at several sites per
    iteration and the function never migrates or explicitly places it;
    co-locating it (``obj.migrate(...)``, creation constraints) would
    turn every call local.

``large-arg-resend`` (warning)
    An invocation inside a loop re-sends a large-looking argument (a
    name bound to a ``Payload(...)``) that is loop-invariant, to a
    loop-invariant receiver: the same bytes are re-serialized every
    iteration.  Install the data once on the object instead (matmul's
    replicated-B ``oinvoke("init", paramB)``).

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
    FunctionNode,
    calls_in_stmt,
    stmt_defs,
    stmt_uses,
)
from repro.analysis.dataflow import Definition, Liveness
from repro.analysis.index import FunctionFacts

#: a sinvoke result untouched for this many following statements is an
#: overlap opportunity
OVERLAP_WINDOW = 2

_INVOKES = ("sinvoke", "ainvoke", "oinvoke")


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


def _def_depth(cfg: CFG, definition: Definition) -> int:
    """Loop depth at which a definition takes effect.  A ``for`` target
    rebinds per iteration even though its header block sits at the
    outer depth."""
    block = cfg.block(definition.block)
    stmt = block.stmts[definition.index]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return block.loop_depth + 1
    return block.loop_depth


class _LocalityFacts:
    """Everything the rules need about one function, computed once."""

    def __init__(self, func: FunctionFacts) -> None:
        self.func = func
        self.cfg = cfg = func.cfg
        self.liveness = Liveness(cfg)
        self.local_names: set[str] = set()
        self.payload_names: set[str] = set()
        self.migrated: set[str] = set()
        for block in cfg.blocks:
            for idx, stmt in enumerate(block.stmts):
                target = _single_name_target(stmt)
                if target is not None and _is_local_ctor(stmt.value):
                    self.local_names.add(target)
                if target is not None and self._is_payload(stmt.value):
                    self.payload_names.add(target)
                for call, _ in calls_in_stmt(stmt):
                    if isinstance(call.func, ast.Attribute) and \
                            call.func.attr == "migrate":
                        recv = _receiver(call)
                        if recv:
                            self.migrated.add(recv)

    @staticmethod
    def _is_payload(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name = dotted_name(value.func)
        return bool(name) and name.rsplit(".", 1)[-1] == "Payload"

    def is_payload_def(self, definition: Definition) -> bool:
        stmt = self.cfg.block(definition.block).stmts[definition.index]
        return (
            _single_name_target(stmt) == definition.name
            and self._is_payload(stmt.value)
        )


class LocalityChecker(Checker):
    name = "locality"
    rules = {
        "remote-invoke-in-loop": Severity.WARNING,
        "sync-invoke-async-opportunity": Severity.INFO,
        "dropped-result-handle": Severity.WARNING,
        "migrate-in-loop": Severity.WARNING,
        "repeated-remote-no-migration": Severity.INFO,
        "large-arg-resend": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            for func in project.facts(module).functions:
                findings.extend(self._check_function(module, func))
        return findings

    # -- CFG/dataflow-backed rules ------------------------------------------

    def _check_function(self, module: Module, func: FunctionFacts):
        facts = _LocalityFacts(func)
        for block, idx, stmt in func.cfg.statements():
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
                elif attr == "ainvoke":
                    yield from self._check_ainvoke(
                        module, facts, block, idx, stmt, call
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
                if attr in _INVOKES and depth >= 1:
                    yield from self._check_large_arg(
                        module, facts, block, idx, call, depth
                    )
        yield from self._check_repeated_remote(module, func, facts)

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

    def _check_ainvoke(self, module, facts, block, idx, stmt, call):
        recv = _receiver(call) or "?"
        method = _method_name(call)
        symbol = f"{recv}.{method}"
        if isinstance(stmt, ast.Expr) and stmt.value is call:
            yield self.finding(
                "dropped-result-handle", module.path, call,
                f"handle from ainvoke({method!r}) is discarded at the "
                "call site: a remote exception would be silently lost. "
                "Keep the handle and get_result() it, or use oinvoke "
                "for genuine fire-and-forget",
                symbol=symbol,
            )
            return
        target = _single_name_target(stmt)
        if target is None or stmt.value is not call:
            return
        if target not in facts.liveness.live_after(block, idx):
            yield self.finding(
                "dropped-result-handle", module.path, call,
                f"handle {target!r} dies without get_result(): remote "
                f"errors from {method!r} are silently lost. Await the "
                "handle or use oinvoke for fire-and-forget",
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

    def _check_large_arg(self, module, facts, block, idx, call, depth):
        recv = _receiver(call)
        if recv is None or "." in recv:
            return
        reaching = None
        arg_names = self._argument_names(call)
        for name in arg_names:
            if name not in facts.payload_names:
                continue
            if reaching is None:
                reaching = facts.func.reaching.reaching_before(block, idx)
            payload_defs = [
                d for d in reaching
                if d.name == name and facts.is_payload_def(d)
            ]
            if not payload_defs or any(
                _def_depth(facts.cfg, d) >= depth for d in payload_defs
            ):
                continue  # (re)built inside the loop: not a resend
            recv_defs = [d for d in reaching if d.name == recv]
            if any(_def_depth(facts.cfg, d) >= depth for d in recv_defs):
                continue  # a different receiver each iteration
            yield self.finding(
                "large-arg-resend", module.path, call,
                f"large argument {name!r} (a Payload built outside the "
                f"loop) is re-serialized to {recv!r} every iteration; "
                "install it once on the object instead (the matmul "
                "oinvoke('init', B) idiom) and send only the small "
                "per-call data",
                symbol=f"{recv}.{_method_name(call)}",
            )

    @staticmethod
    def _argument_names(call: ast.Call) -> set[str]:
        names: set[str] = set()
        for arg in call.args:
            if isinstance(arg, ast.Name):
                names.add(arg.id)
            elif isinstance(arg, (ast.List, ast.Tuple)):
                names.update(
                    e.id for e in arg.elts if isinstance(e, ast.Name)
                )
        return names

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

    # -- AST loop rule (needs loop identity, not just depth) ----------------

    def _check_repeated_remote(self, module, func, facts):
        """Same loop-invariant receiver invoked at >= 2 sites per
        iteration, never migrated/placed in the function."""
        for loop in self._own_loops(func.node):
            yield from self._check_one_loop(
                module, func.qualname, loop, facts.migrated,
                facts.local_names,
            )

    @staticmethod
    def _own_statements(func: FunctionNode):
        """Statement nodes belonging to ``func`` (nested defs opaque)."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(node, ast.stmt):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _own_loops(cls, func: FunctionNode):
        for node in cls._own_statements(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                yield node

    def _check_one_loop(self, module, qualname, loop, migrated, local):
        # Attribute each call to its *innermost* loop (the stack walk
        # stops at nested loops) so nested loops do not double-report.
        body_stmts: list[ast.AST] = []
        stack: list[ast.AST] = list(loop.body) + list(
            getattr(loop, "orelse", [])
        )
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            if isinstance(node, ast.stmt):
                body_stmts.append(node)
            stack.extend(ast.iter_child_nodes(node))
        bound: set[str] = set()
        for stmt in body_stmts:
            bound |= stmt_defs(stmt)
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            bound |= {
                n.id for n in ast.walk(loop.target)
                if isinstance(n, ast.Name)
            }
        sites: dict[str, list[ast.Call]] = {}
        for stmt in body_stmts:
            for call, _ in calls_in_stmt(stmt):
                if not isinstance(call.func, ast.Attribute):
                    continue
                if call.func.attr not in _INVOKES:
                    continue
                recv = _receiver(call)
                if not recv or recv in bound or recv in local or \
                        recv in migrated:
                    continue
                if recv.split(".", 1)[0] in bound:
                    continue
                sites.setdefault(recv, []).append(call)
        for recv, calls in sorted(sites.items()):
            if len(calls) < 2:
                continue
            first = min(calls, key=lambda c: (c.lineno, c.col_offset))
            yield self.finding(
                "repeated-remote-no-migration", module.path, first,
                f"{recv!r} is invoked at {len(calls)} sites every "
                f"iteration of the loop at line {loop.lineno} but "
                f"{qualname} never migrates or re-places it; "
                "co-locating it first (obj.migrate(...) or creation "
                "constraints) would make these calls local",
                symbol=recv,
            )


__all__ = ["LocalityChecker", "OVERLAP_WINDOW"]
