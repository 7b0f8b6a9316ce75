"""The reusable CFG/dataflow engine behind symloc.

Structural tests build small functions from source and assert block
shapes, edge targets and loop depths; dataflow tests check the
liveness fixpoint at statement granularity.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import (
    build_cfg,
    calls_in_stmt,
    function_cfgs,
    stmt_defs,
    stmt_uses,
)
from repro.analysis.dataflow import Liveness


def cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def block_with(cfg, kind, pred=lambda s: True):
    """The unique block holding a statement of ``kind`` matching ``pred``."""
    hits = [
        b for b in cfg.blocks
        if any(isinstance(s, kind) and pred(s) for s in b.stmts)
    ]
    assert len(hits) == 1, f"expected one block with {kind}, got {hits}"
    return hits[0]


def reachable(cfg, src, dst) -> bool:
    seen, work = set(), [src]
    while work:
        bid = work.pop()
        if bid == dst:
            return True
        if bid in seen:
            continue
        seen.add(bid)
        work.extend(cfg.block(bid).succs)
    return False


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_linear_function_is_one_block():
    cfg = cfg_of("""
        def f(x):
            y = x + 1
            z = y * 2
            return z
    """)
    entry = cfg.block(cfg.entry)
    assert [type(s).__name__ for s in entry.stmts] == \
        ["Assign", "Assign", "Return"]
    assert cfg.exit in entry.succs


def test_if_else_meets_at_join():
    cfg = cfg_of("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
    """)
    header = block_with(cfg, ast.If)
    ret = block_with(cfg, ast.Return)
    assert len(header.succs) == 2
    then_b, else_b = (cfg.block(s) for s in header.succs)
    # both arms flow into the block holding the return
    for arm in (then_b, else_b):
        assert reachable(cfg, arm.id, ret.id)
    assert ret.id not in header.succs  # no fallthrough without an arm


def test_if_without_else_falls_through():
    cfg = cfg_of("""
        def f(x):
            if x:
                a = 1
            return x
    """)
    header = block_with(cfg, ast.If)
    ret = block_with(cfg, ast.Return)
    # one successor is the then-arm, the other the join holding return
    assert ret.id in [
        s for s in header.succs
    ] or any(reachable(cfg, s, ret.id) for s in header.succs)
    assert any(cfg.block(s) is ret for s in header.succs)


def test_while_header_is_inside_the_loop():
    cfg = cfg_of("""
        def f(x):
            while x > 0:
                x -= 1
            return x
    """)
    header = block_with(cfg, ast.While)
    body = block_with(cfg, ast.AugAssign)
    assert header.loop_depth == 1  # the test re-executes per iteration
    assert body.loop_depth == 1
    assert body.id in header.succs
    assert header.id in body.succs  # back edge


def test_for_header_stays_at_outer_depth():
    cfg = cfg_of("""
        def f(items):
            for item in items:
                use(item)
            return None
    """)
    header = block_with(cfg, ast.For)
    body = block_with(cfg, ast.Expr)
    assert header.loop_depth == 0  # the iterable evaluates once
    assert body.loop_depth == 1
    assert header.id in body.succs


def test_nested_loops_stack_depth():
    cfg = cfg_of("""
        def f(grid):
            for row in grid:
                for cell in row:
                    touch(cell)
    """)
    inner_body = block_with(cfg, ast.Expr)
    assert inner_body.loop_depth == 2


def test_break_skips_while_else():
    cfg = cfg_of("""
        def f(xs):
            while xs:
                if bad(xs):
                    break
                xs = shrink(xs)
            else:
                finish()
            return xs
    """)
    header = block_with(cfg, ast.While)
    brk = block_with(cfg, ast.Break)
    els = block_with(
        cfg, ast.Expr,
        lambda s: isinstance(s.value, ast.Call)
        and s.value.func.id == "finish",
    )
    ret = block_with(cfg, ast.Return)
    # normal exit runs the else; break jumps straight past it
    assert els.id in header.succs
    after = brk.succs[0]
    assert after != els.id
    assert ret.id == after or reachable(cfg, after, ret.id)
    assert not reachable(cfg, brk.succs[0], els.id)


def test_continue_edges_back_to_header():
    cfg = cfg_of("""
        def f(xs):
            for x in xs:
                if skip(x):
                    continue
                handle(x)
    """)
    header = block_with(cfg, ast.For)
    cont = block_with(cfg, ast.Continue)
    assert header.id in cont.succs


def test_for_else_runs_on_normal_exit():
    cfg = cfg_of("""
        def f(xs):
            for x in xs:
                probe(x)
            else:
                wrapup()
            return None
    """)
    header = block_with(cfg, ast.For)
    els = block_with(
        cfg, ast.Expr,
        lambda s: isinstance(s.value, ast.Call)
        and s.value.func.id == "wrapup",
    )
    assert els.id in header.succs


def test_try_body_edges_into_handler_and_finally():
    cfg = cfg_of("""
        def f(x):
            try:
                risky(x)
                more(x)
            except ValueError:
                recover(x)
            finally:
                cleanup(x)
            return x
    """)
    handler = block_with(cfg, ast.ExceptHandler)
    fin = block_with(
        cfg, ast.Expr,
        lambda s: isinstance(s.value, ast.Call)
        and s.value.func.id == "cleanup",
    )
    body = block_with(
        cfg, ast.Expr,
        lambda s: isinstance(s.value, ast.Call)
        and s.value.func.id == "risky",
    )
    # an exception can split the body anywhere
    assert handler.id in body.succs
    assert fin.id in body.succs
    # the handler also drains through the finally
    assert reachable(cfg, handler.id, fin.id)
    # and the finally reaches both the fallthrough and the exit
    ret = block_with(cfg, ast.Return)
    assert reachable(cfg, fin.id, ret.id)
    assert reachable(cfg, fin.id, cfg.exit)


def test_return_routes_through_enclosing_finally():
    cfg = cfg_of("""
        def f(x):
            try:
                return x
            finally:
                cleanup()
    """)
    ret = block_with(cfg, ast.Return)
    fin = block_with(cfg, ast.Expr)
    assert fin.id in ret.succs


def test_statements_enumerates_every_stmt():
    cfg = cfg_of("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            for i in range(a):
                x += i
            return x
    """)
    kinds = sorted(
        type(s).__name__ for _b, _i, s in cfg.statements()
    )
    assert kinds == ["Assign", "Assign", "AugAssign", "For", "If", "Return"]


def test_function_cfgs_covers_methods_and_nested_defs():
    tree = ast.parse(textwrap.dedent("""
        def top():
            def inner():
                pass

        class K:
            def m(self):
                pass
    """))
    names = [qualname for qualname, _f, _c in function_cfgs(tree)]
    assert names == ["top", "top.inner", "K.m"]


# ---------------------------------------------------------------------------
# defs / uses / calls at statement granularity
# ---------------------------------------------------------------------------


def stmt(source: str) -> ast.stmt:
    return ast.parse(textwrap.dedent(source)).body[0]


def test_for_header_defines_target_uses_iterable():
    node = stmt("for a, b in pairs():\n    body()")
    assert stmt_defs(node) == {"a", "b"}
    assert "pairs" in stmt_uses(node)
    assert "body" not in stmt_uses(node)  # the body is another block


def test_subscript_store_counts_base_as_use():
    node = stmt("xs[i] = compute()")
    assert stmt_defs(node) == set()
    assert {"xs", "i", "compute"} <= stmt_uses(node)


def test_lambda_free_variables_stay_live():
    node = stmt("cb = lambda: shared + 1")
    assert stmt_defs(node) == {"cb"}
    assert "shared" in stmt_uses(node)


def test_calls_in_comprehension_carry_loop_depth():
    node = stmt("out = [fetch(x) for x in source() if keep(x)]")
    depths = {
        c.func.id: d for c, d in calls_in_stmt(node)
    }
    assert depths["fetch"] == 1     # once per produced element
    assert depths["keep"] == 1      # the filter too
    assert depths["source"] == 0    # first iterable evaluates once


def test_calls_inside_nested_def_are_opaque():
    node = stmt("def g():\n    hidden()")
    assert list(calls_in_stmt(node)) == []


# ---------------------------------------------------------------------------
# dataflow
# ---------------------------------------------------------------------------


def test_liveness_at_statement_granularity():
    cfg = cfg_of("""
        def f(a):
            b = a + 1
            c = b * 2
            return c
    """)
    live = Liveness(cfg)
    entry = cfg.block(cfg.entry)
    assert "b" in live.live_after(entry, 0)   # read by the next stmt
    assert "b" not in live.live_after(entry, 1)
    assert "c" in live.live_after(entry, 1)


def test_liveness_carries_around_loop_back_edge():
    cfg = cfg_of("""
        def f(n):
            total = 0
            for i in range(n):
                total = total + i
            return total
    """)
    live = Liveness(cfg)
    body = block_with(cfg, ast.Assign,
                      lambda s: isinstance(s.value, ast.BinOp))
    # after the body's last stmt, total is still live: the next
    # iteration (and the return) read it
    assert "total" in live.live_after(body, len(body.stmts) - 1)


def test_dead_result_is_not_live():
    cfg = cfg_of("""
        def f(obj):
            unused = obj.poke()
            return 1
    """)
    live = Liveness(cfg)
    entry = cfg.block(cfg.entry)
    assert "unused" not in live.live_after(entry, 0)
