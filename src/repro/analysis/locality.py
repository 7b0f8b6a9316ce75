"""symloc: locality & communication-cost rules on one walk over each
function's AST.

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
    :data:`OVERLAP_WINDOW` statements of its straight-line run: the
    round-trip could overlap that work via ``ainvoke`` — or ``oinvoke``
    if the result is never read at all.

``migrate-in-loop`` (warning)
    ``migrate`` inside a loop moves the whole object state per
    iteration; hoist placement before the loop or guard it so it can
    fire at most once.

Receivers created as ``JSObj(cls, "local")`` are exempt everywhere:
invoking a home-node object is a direct call, not communication.

:func:`_runs` reads each function as straight-line runs with their loop
depth; :func:`_read_later` answers "is this name read later?" when a
rule asks.
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

#: a sinvoke result untouched for this many following statements is an
#: overlap opportunity
OVERLAP_WINDOW = 2

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_OPAQUE = (*_FUNCTIONS, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_TRIES = (ast.Try, getattr(ast, "TryStar", ast.Try))
_WITHS = (ast.With, ast.AsyncWith)
_JUMPS = (ast.Return, ast.Raise, ast.Break, ast.Continue)
#: statements that end the straight-line run they are in
_BOUNDARIES = (ast.If, ast.Match, *_LOOPS, *_TRIES, *_JUMPS)


# ---------------------------------------------------------------------------
# what one statement reads, binds and calls (its header only)
# ---------------------------------------------------------------------------


def _header(stmt: ast.AST) -> list[ast.expr]:
    """The expressions that execute *with* ``stmt`` in its run — a
    control statement's bodies excluded."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, _WITHS):
        return [expr for item in stmt.items
                for expr in (item.context_expr, item.optional_vars)
                if expr is not None]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, _FUNCTIONS):
        return stmt.decorator_list + [
            d for d in stmt.args.defaults + stmt.args.kw_defaults
            if d is not None
        ]
    if isinstance(stmt, ast.ClassDef):
        return stmt.decorator_list + stmt.bases + [
            kw.value for kw in stmt.keywords
        ]
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


def _names(expr: ast.AST, ctx: type, *, through_opaque: bool):
    """Name nodes of the given context class under ``expr``; nested
    function/lambda bodies are descended only when ``through_opaque``."""
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if not through_opaque and isinstance(node, _OPAQUE):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ctx):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _defs(stmt: ast.AST) -> set[str]:
    """Names this statement binds in the enclosing function's scope."""
    if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.ExceptHandler):
        return {stmt.name} if stmt.name else set()
    if isinstance(stmt, ast.Import):
        return {(a.asname or a.name.split(".", 1)[0]) for a in stmt.names}
    if isinstance(stmt, ast.ImportFrom):
        return {(a.asname or a.name) for a in stmt.names}
    return {n.id for expr in _header(stmt)
            for n in _names(expr, ast.Store, through_opaque=False)}


def _uses(stmt: ast.AST) -> set[str]:
    """Names this statement reads.  Reads inside nested def/lambda
    bodies count (a captured name stays live), and so does the base of
    a store through a subscript or attribute (``xs[i] = ...``): the
    parser marks it a load."""
    return {n.id for expr in _header(stmt)
            for n in _names(expr, ast.Load, through_opaque=True)}


def _calls(stmt: ast.AST):
    """``(call, comprehension depth)`` for every call executing with
    ``stmt``.  A call in a comprehension's element or conditions runs
    once per item, one level deeper; the first generator's iterable
    runs once and stays at +0."""
    for expr in _header(stmt):
        yield from _calls_in(expr, 0)


def _calls_in(expr: ast.AST, depth: int):
    if isinstance(expr, _OPAQUE):
        return
    if isinstance(expr, _COMPREHENSIONS):
        parts = [expr.key, expr.value] if isinstance(expr, ast.DictComp) \
            else [expr.elt]
        for part in parts:
            yield from _calls_in(part, depth + 1)
        for i, gen in enumerate(expr.generators):
            yield from _calls_in(gen.iter, depth if i == 0 else depth + 1)
            for cond in gen.ifs:
                yield from _calls_in(cond, depth + 1)
        return
    if isinstance(expr, ast.Call):
        yield expr, depth
    for child in ast.iter_child_nodes(expr):
        yield from _calls_in(child, depth)


# ---------------------------------------------------------------------------
# the walk: straight-line runs, and whether a name is read later
# ---------------------------------------------------------------------------


def _runs(func: ast.AST) -> list[tuple[int, list[ast.AST]]]:
    """``func``'s body as ``(loop depth, statements)`` straight-line runs.

    ``if`` and ``match`` headers end a run; a ``with`` body continues
    it; ``while``, ``for`` and ``try`` start a new one, and so does the
    code after them; ``return``, ``raise``, ``break`` and ``continue``
    end one; an ``except`` handler opens its own; a ``try``'s ``else``
    continues the run its body ended in.  A loop header is a run of its
    own."""
    runs: list[tuple[int, list[ast.AST]]] = []

    def new(depth: int, *stmts: ast.AST) -> list[ast.AST]:
        runs.append((depth, list(stmts)))
        return runs[-1][1]

    def body(stmts: list[ast.stmt], run: list[ast.AST], depth: int):
        for stmt in stmts:
            run = visit(stmt, run, depth)
        return run

    def visit(stmt: ast.stmt, run: list[ast.AST], depth: int):
        if isinstance(stmt, _WITHS):
            run.append(stmt)
            return body(stmt.body, run, depth)
        if isinstance(stmt, (ast.If, ast.Match)):
            run.append(stmt)
            for branch in _branches(stmt):
                body(branch, new(depth), depth)
            return new(depth)
        if isinstance(stmt, _LOOPS):
            inner = depth + 1
            new(inner if isinstance(stmt, ast.While) else depth, stmt)
            body(stmt.body, new(inner), inner)
            body(stmt.orelse, new(depth), depth)
            return new(depth)
        if isinstance(stmt, _TRIES):
            body(stmt.orelse, body(stmt.body, new(depth), depth), depth)
            for handler in stmt.handlers:
                body(handler.body, new(depth, handler), depth)
            body(stmt.finalbody, new(depth), depth)
            return new(depth)
        run.append(stmt)
        return new(depth) if isinstance(stmt, _JUMPS) else run

    body(func.body, new(0), 0)
    return runs


def _branches(stmt: ast.If | ast.Match) -> list[list[ast.stmt]]:
    if isinstance(stmt, ast.If):
        return [stmt.body, stmt.orelse]
    return [case.body for case in stmt.cases]


def _read_later(func: ast.AST, name: str, query: ast.stmt) -> bool:
    """Is ``name`` read on some path after the statement ``query``?

    One backward pass over ``func``'s bodies, on the runs of
    :func:`_runs`.  A loop carries reads around to its header, and
    every run inside a ``try`` body may raise into the handlers and
    the ``finally``: what those read counts at the end of the run, then
    flows back through it.  ``query`` must not be inside a loop."""
    after_query = False

    def flat(stmts: list[ast.AST]):
        for stmt in stmts:
            yield stmt
            if isinstance(stmt, _WITHS):
                yield from flat(stmt.body)

    def step(stmt: ast.AST, live: bool) -> bool:
        return name in _uses(stmt) or (live and name not in _defs(stmt))

    def body(stmts, live, exc_open, exc_new, loop, ends_run=True) -> bool:
        """Liveness at the start of ``stmts`` from ``live`` at its end.
        ``exc_open`` is what the handlers read for the run open at the
        start, ``exc_new`` for runs started here; ``loop`` is the
        liveness at the innermost loop's (exit, header)."""
        nonlocal after_query
        items = list(flat(stmts))
        first = next((k for k, stmt in enumerate(items)
                      if isinstance(stmt, _BOUNDARIES)), len(items))

        def exc(k: int) -> bool:
            """What the handlers read, for the run ending at ``k``."""
            return exc_open if k <= first else exc_new

        if ends_run:
            live = live or exc(len(items))
        for k in range(len(items) - 1, -1, -1):
            stmt = items[k]
            if stmt is query:
                after_query = live
            if isinstance(stmt, (ast.If, ast.Match)):
                ins = [body(branch, live, exc_new, exc_new, loop)
                       for branch in _branches(stmt)]
                out = any(ins) or isinstance(stmt, ast.Match) and live
                live = step(stmt, out or exc(k))
            elif isinstance(stmt, _LOOPS):
                rest = body(stmt.orelse, live, exc_new, exc_new, loop)
                # one pass from "not live at the header" is the fixpoint
                # of a single name's liveness
                inner = body(stmt.body, False, exc_new, exc_new,
                             (live, False))
                live = step(stmt, inner or rest) or exc(k)
            elif isinstance(stmt, _TRIES):
                drain = body(stmt.finalbody, live, exc_new, exc_new, loop)
                raised = any([
                    body([handler, *handler.body], drain, exc_new,
                         exc_new, loop)
                    for handler in stmt.handlers
                ]) or bool(stmt.finalbody) and drain or exc_new
                rest = body(stmt.orelse, drain, raised, exc_new, loop)
                live = body(stmt.body, rest, raised, raised, loop,
                            ends_run=False) or exc(k)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                live = step(stmt, exc(k))
            elif isinstance(stmt, (ast.Break, ast.Continue)):
                target = loop[isinstance(stmt, ast.Continue)] if loop \
                    else False
                live = target or exc(k)
            else:
                live = step(stmt, live)
        return live

    body(func.body, False, False, False, None)
    return after_query


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------


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
            for node in ast.walk(module.tree):
                if isinstance(node, _FUNCTIONS):
                    findings.extend(self._check_function(module, node))
        return findings

    def _check_function(self, module: Module, func: ast.AST):
        runs = _runs(func)
        local_names = {
            _single_name_target(stmt) for _depth, run in runs
            for stmt in run if _single_name_target(stmt) is not None
            and _is_local_ctor(stmt.value)
        }
        for run_depth, run in runs:
            for idx, stmt in enumerate(run):
                for call, comp_depth in _calls(stmt):
                    if not isinstance(call.func, ast.Attribute):
                        continue
                    depth = run_depth + comp_depth
                    attr = call.func.attr
                    recv = _receiver(call)
                    if recv in local_names:
                        continue
                    if attr == "sinvoke":
                        yield from self._check_sinvoke(
                            module, func, run, idx, call, depth
                        )
                    elif attr in ("get_result", "is_ready"):
                        yield from self._check_wait(
                            module, run, idx, call, depth
                        )
                    elif attr == "migrate" and depth >= 1:
                        yield self.finding(
                            "migrate-in-loop", module.path, call,
                            f"migrate inside a loop (depth {depth}) "
                            "moves the whole object state every "
                            "iteration; hoist the placement before the "
                            "loop or guard it to fire at most once",
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

    def _check_sinvoke(self, module, func, run, idx, call, depth):
        stmt = run[idx]
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
            trailing = run[idx + 1:idx + 1 + OVERLAP_WINDOW]
            if len(run) - (idx + 1) >= OVERLAP_WINDOW and not any(
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
        for offset, later in enumerate(run[idx + 1:], start=1):
            if target in _uses(later):
                distance = offset
                break
            if target in _defs(later):
                break  # rebound before any use: dead result
        if distance is not None and distance > OVERLAP_WINDOW:
            yield self.finding(
                "sync-invoke-async-opportunity", module.path, call,
                f"{target!r} is not read for the next {distance - 1} "
                f"statement(s); ainvoke here and get_result() at first "
                "use would overlap the round-trip with that work",
                symbol=symbol,
            )
        elif distance is None and not _read_later(func, target, stmt):
            yield self.finding(
                "sync-invoke-async-opportunity", module.path, call,
                f"{target!r} is never read after this sinvoke"
                f"({method!r}); the call blocks for a result nothing "
                "uses — oinvoke would not",
                symbol=symbol,
            )

    def _check_wait(self, module, run, idx, call, depth):
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
        prev = run[idx - 1]
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
        for call, _ in _calls(stmt):
            if isinstance(call.func, ast.Attribute) and \
                    _receiver(call) == recv:
                return True
        return False


__all__ = ["LocalityChecker", "OVERLAP_WINDOW"]
