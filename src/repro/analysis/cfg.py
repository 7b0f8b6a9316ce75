"""Intraprocedural control-flow graphs over the Python AST.

The reusable half of symloc: :func:`build_cfg` turns one function body
into basic blocks connected by explicit edges, with the loop-nesting
depth recorded per block so consumers can scale severities ("a sync RMI
three loops deep is worse than one").  Dataflow instances live in
:mod:`repro.analysis.dataflow`; rule logic in
:mod:`repro.analysis.locality`.

Block contents
--------------
A block's ``stmts`` list holds *statement-granular* AST nodes.  Simple
statements appear verbatim.  Control statements (``if``/``while``/
``for``/``with``/``match``/``except``) appear **as themselves** in the
block that evaluates their header expression, and only their *own*
expressions (the test, the iterable, the context managers, the subject)
count as executing there — bodies become separate blocks.  Use
:func:`own_expressions` / :func:`stmt_defs` / :func:`stmt_uses` /
:func:`calls_in_stmt` rather than ``ast.walk`` so a body is never
attributed to its header's block.

Nested ``def``/``lambda`` bodies are opaque: they run later (or never),
under a different context.  Their *free-variable reads* still count as uses (see
``stmt_uses``) so liveness never declares a captured name dead.

Edges are conservative where Python is dynamic: every block inside a
``try`` body gets an edge to each handler (an exception can split a
block anywhere), and ``finally`` intercepts all normal and exceptional
region exits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass
class Block:
    """One basic block: a straight run of statement-granular nodes."""

    id: int
    loop_depth: int
    stmts: list[ast.AST] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        kinds = ",".join(type(s).__name__ for s in self.stmts)
        return (f"<Block {self.id} depth={self.loop_depth} "
                f"[{kinds}] -> {self.succs}>")


@dataclass
class CFG:
    """Control-flow graph of one function (or a bare statement list)."""

    blocks: list[Block]
    entry: int
    exit: int
    func: FunctionNode | None = None

    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]

    def statements(self):
        """Every ``(block, index, stmt)`` triple, block order."""
        for block in self.blocks:
            for idx, stmt in enumerate(block.stmts):
                yield block, idx, stmt


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.exit = self._new_block(0).id      # block 0 is the exit
        self.depth = 0
        #: (continue target id, break target id) per enclosing loop
        self.loop_stack: list[tuple[int, int]] = []
        #: entry block ids of the active except handlers / finally blocks
        self.handler_stack: list[list[int]] = []

    # -- plumbing -----------------------------------------------------------

    def _new_block(self, depth: int | None = None) -> Block:
        block = Block(len(self.blocks),
                      self.depth if depth is None else depth)
        self.blocks.append(block)
        return block

    def _edge(self, src: Block | int, dst: Block | int) -> None:
        src_id = src if isinstance(src, int) else src.id
        dst_id = dst if isinstance(dst, int) else dst.id
        if dst_id not in self.blocks[src_id].succs:
            self.blocks[src_id].succs.append(dst_id)
            self.blocks[dst_id].preds.append(src_id)

    def _to_abnormal(self, block: Block, target: int) -> None:
        """Route an abnormal exit (raise/return) through any active
        handlers as well as its target."""
        for handlers in reversed(self.handler_stack):
            for entry in handlers:
                self._edge(block, entry)
        self._edge(block, target)

    # -- statement dispatch -------------------------------------------------

    def build(self, body: list[ast.stmt]) -> tuple[Block, Block]:
        """Build ``body``; returns (entry block, final fallthrough block)."""
        entry = self._new_block()
        current = self._visit_body(body, entry)
        return entry, current

    def _visit_body(self, body: list[ast.stmt], current: Block) -> Block:
        for stmt in body:
            current = self._visit(stmt, current)
        return current

    def _visit(self, stmt: ast.stmt, current: Block) -> Block:
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, current)
        if isinstance(stmt, ast.While):
            return self._visit_while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._visit_for(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, current)
        if hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar):
            return self._visit_try(stmt, current)  # pragma: no cover
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.stmts.append(stmt)
            return self._visit_body(stmt.body, current)
        if isinstance(stmt, ast.Match):
            return self._visit_match(stmt, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            current.stmts.append(stmt)
            self._to_abnormal(current, self.exit)
            return self._new_block()  # unreachable continuation
        if isinstance(stmt, ast.Break):
            current.stmts.append(stmt)
            if self.loop_stack:
                self._edge(current, self.loop_stack[-1][1])
            return self._new_block()
        if isinstance(stmt, ast.Continue):
            current.stmts.append(stmt)
            if self.loop_stack:
                self._edge(current, self.loop_stack[-1][0])
            return self._new_block()
        # Everything else — including nested def/class, whose bodies are
        # opaque — is a simple statement of this block.
        current.stmts.append(stmt)
        return current

    def _visit_if(self, stmt: ast.If, current: Block) -> Block:
        current.stmts.append(stmt)
        join = self._new_block()
        then_entry = self._new_block()
        self._edge(current, then_entry)
        then_exit = self._visit_body(stmt.body, then_entry)
        self._edge(then_exit, join)
        if stmt.orelse:
            else_entry = self._new_block()
            self._edge(current, else_entry)
            else_exit = self._visit_body(stmt.orelse, else_entry)
            self._edge(else_exit, join)
        else:
            self._edge(current, join)
        return join

    def _visit_while(self, stmt: ast.While, current: Block) -> Block:
        # The test re-executes every iteration: the header is *inside*
        # the loop for depth purposes.
        header = self._new_block(self.depth + 1)
        header.stmts.append(stmt)
        self._edge(current, header)
        after = self._new_block()
        self.depth += 1
        self.loop_stack.append((header.id, after.id))
        body_entry = self._new_block()
        self._edge(header, body_entry)
        body_exit = self._visit_body(stmt.body, body_entry)
        self._edge(body_exit, header)
        self.loop_stack.pop()
        self.depth -= 1
        if stmt.orelse:
            # while/else: the else runs on normal loop exit only; a
            # break jumps straight to `after`, skipping it.
            else_entry = self._new_block()
            self._edge(header, else_entry)
            else_exit = self._visit_body(stmt.orelse, else_entry)
            self._edge(else_exit, after)
        else:
            self._edge(header, after)
        return after

    def _visit_for(self, stmt: ast.For | ast.AsyncFor,
                   current: Block) -> Block:
        # The iterable is evaluated once, at the *outer* depth; the
        # header block still re-executes to bind the target, but a call
        # in the iterable expression is not "in the loop".
        header = self._new_block(self.depth)
        header.stmts.append(stmt)
        self._edge(current, header)
        after = self._new_block()
        self.depth += 1
        self.loop_stack.append((header.id, after.id))
        body_entry = self._new_block()
        self._edge(header, body_entry)
        body_exit = self._visit_body(stmt.body, body_entry)
        self._edge(body_exit, header)
        self.loop_stack.pop()
        self.depth -= 1
        if stmt.orelse:
            else_entry = self._new_block()
            self._edge(header, else_entry)
            else_exit = self._visit_body(stmt.orelse, else_entry)
            self._edge(else_exit, after)
        else:
            self._edge(header, after)
        return after

    def _visit_try(self, stmt: ast.Try, current: Block) -> Block:
        after = self._new_block()
        finally_entry: Block | None = None
        if stmt.finalbody:
            finally_entry = self._new_block()
        handler_entries: list[Block] = []
        for handler in stmt.handlers:
            entry = self._new_block()
            entry.stmts.append(handler)
            handler_entries.append(entry)

        # Any statement in the protected region can raise into any
        # handler; a finally additionally intercepts exceptional exits.
        active = [b.id for b in handler_entries]
        if finally_entry is not None:
            active = active + [finally_entry.id]
        self.handler_stack.append(active)
        body_entry = self._new_block()
        self._edge(current, body_entry)
        first = len(self.blocks)  # blocks created past this point are body
        body_exit = self._visit_body(stmt.body, body_entry)
        region = [body_entry] + self.blocks[first:]
        for block in region:
            for entry in handler_entries:
                self._edge(block, entry)
            if finally_entry is not None:
                self._edge(block, finally_entry)
        self.handler_stack.pop()

        exits: list[Block] = []
        if stmt.orelse:
            else_exit = self._visit_body(stmt.orelse, body_exit)
            exits.append(else_exit)
        else:
            exits.append(body_exit)
        for entry in handler_entries:
            exits.append(self._visit_body(
                stmt.handlers[handler_entries.index(entry)].body, entry
            ))
        if finally_entry is not None:
            for block in exits:
                self._edge(block, finally_entry)
            final_exit = self._visit_body(stmt.finalbody, finally_entry)
            self._edge(final_exit, after)
            # Exceptional continuation: the finally may re-raise.
            self._to_abnormal(final_exit, self.exit)
        else:
            for block in exits:
                self._edge(block, after)
        return after

    def _visit_match(self, stmt: ast.Match, current: Block) -> Block:
        current.stmts.append(stmt)
        after = self._new_block()
        for case in stmt.cases:
            entry = self._new_block()
            self._edge(current, entry)
            case_exit = self._visit_body(case.body, entry)
            self._edge(case_exit, after)
        self._edge(current, after)  # no case may match
        return after


def build_cfg(func: FunctionNode | list[ast.stmt]) -> CFG:
    """Build the CFG of one function (or a raw statement list)."""
    builder = _Builder()
    body = func.body if isinstance(func, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)) else func
    entry, last = builder.build(body)
    builder._edge(last, builder.exit)
    return CFG(
        blocks=builder.blocks,
        entry=entry.id,
        exit=builder.exit,
        func=func if isinstance(func, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) else None,
    )


def function_cfgs(tree: ast.Module):
    """Yield ``(qualname, func node, CFG)`` for every function in the
    module, including methods and nested defs (each analyzed alone)."""
    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child, build_cfg(child)
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


# ---------------------------------------------------------------------------
# statement-granular expressions, defs, uses, calls
# ---------------------------------------------------------------------------


def own_expressions(stmt: ast.AST) -> list[ast.expr]:
    """The expressions that execute *with* ``stmt`` in its block —
    control-statement bodies excluded (they are separate blocks)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs: list[ast.expr] = []
        for item in stmt.items:
            exprs.append(item.context_expr)
            if item.optional_vars is not None:
                exprs.append(item.optional_vars)
        return exprs
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return list(stmt.decorator_list) + [
            d for d in stmt.args.defaults + stmt.args.kw_defaults
            if d is not None
        ]
    if isinstance(stmt, ast.ClassDef):
        return list(stmt.decorator_list) + list(stmt.bases) + [
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


def stmt_defs(stmt: ast.AST) -> set[str]:
    """Names this statement binds in the enclosing function's scope."""
    defs: set[str] = set()
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.ExceptHandler):
        return {stmt.name} if stmt.name else set()
    if isinstance(stmt, ast.Import):
        return {(a.asname or a.name.split(".", 1)[0]) for a in stmt.names}
    if isinstance(stmt, ast.ImportFrom):
        return {(a.asname or a.name) for a in stmt.names}
    for expr in own_expressions(stmt):
        defs.update(n.id for n in _names(expr, ast.Store,
                                         through_opaque=False))
    return defs


def stmt_uses(stmt: ast.AST) -> set[str]:
    """Names this statement reads.  Reads inside nested def/lambda
    bodies count (free variables stay live); a Store through a
    subscript or attribute (``xs[i] = ...``) counts as a *use* of the
    base name (the container must exist)."""
    uses: set[str] = set()
    for expr in own_expressions(stmt):
        uses.update(n.id for n in _names(expr, ast.Load,
                                         through_opaque=True))
        # base names of non-Name store targets
        for node in ast.walk(expr):
            if isinstance(node, (ast.Subscript, ast.Attribute)) and \
                    isinstance(node.ctx, ast.Store):
                for name in _names(node.value, ast.Load,
                                   through_opaque=True):
                    uses.add(name.id)
    return uses


def calls_in_stmt(stmt: ast.AST):
    """``(call node, comprehension depth)`` for every call executing
    with this statement.  Nested def/lambda bodies are skipped; a call
    inside a comprehension's element or conditions runs once per
    produced item, so it carries an extra loop depth (the first
    generator's iterable runs once and stays at +0)."""
    for expr in own_expressions(stmt):
        yield from _calls_in_expr(expr, 0)


def _calls_in_expr(expr: ast.AST, depth: int):
    if isinstance(expr, _OPAQUE):
        return
    if isinstance(expr, _COMPREHENSIONS):
        parts: list[tuple[ast.AST, int]] = []
        if isinstance(expr, ast.DictComp):
            parts.append((expr.key, depth + 1))
            parts.append((expr.value, depth + 1))
        else:
            parts.append((expr.elt, depth + 1))
        for i, gen in enumerate(expr.generators):
            parts.append((gen.iter, depth if i == 0 else depth + 1))
            for cond in gen.ifs:
                parts.append((cond, depth + 1))
        for part, d in parts:
            yield from _calls_in_expr(part, d)
        return
    if isinstance(expr, ast.Call):
        yield expr, depth
    for child in ast.iter_child_nodes(expr):
        yield from _calls_in_expr(child, depth)
