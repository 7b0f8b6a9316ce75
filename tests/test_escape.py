"""Escape summaries: per-function facts, interprocedural propagation
through SCC order, and monotonicity under adding call edges.

The monotonicity property is the contract the symshare rules lean on:
a summary may over-approximate but never loses an escape when the
program grows a call path, so adding code can only surface *more*
findings, never silently hide one.
"""

from __future__ import annotations

import random
import textwrap

from repro.analysis.base import Module, Project
from repro.analysis.callgraph import FuncKey
from repro.analysis.escape import EscapeAnalysis

PATH = "mod.py"


def analyze(source: str) -> EscapeAnalysis:
    module = Module.parse(PATH, textwrap.dedent(source))
    return EscapeAnalysis(Project([module]))


def summary(analysis: EscapeAnalysis, qualname: str):
    return analysis.summary(FuncKey(PATH, qualname))


# ---------------------------------------------------------------------------
# per-function facts
# ---------------------------------------------------------------------------


def test_remote_sink_marks_arguments_not_receiver():
    analysis = analyze(
        """
        def send(sock, data):
            sock.sinvoke("put", data)
        """
    )
    summ = summary(analysis, "send")
    assert summ.escape_kinds("data") == {"remote"}
    assert summ.escape_kinds("sock") == frozenset()


def test_return_field_closure_and_mutation():
    analysis = analyze(
        """
        def ident(x):
            return x

        def stash(box, value):
            box.slot = value

        def capture(item):
            return lambda: item.use()

        def bump(xs):
            xs.append(1)
        """
    )
    assert analysis.summary(
        FuncKey(PATH, "ident")
    ).escape_kinds("x") == {"return"}
    stash = summary(analysis, "stash")
    assert stash.escape_kinds("value") == {"field"}
    assert "box" in stash.mutates
    assert "item" in summary(analysis, "capture").escapes
    assert "closure" in summary(analysis, "capture").escape_kinds("item")
    bump = summary(analysis, "bump")
    assert bump.mutates == {"xs"}
    assert bump.escapes == {}


def test_copies_join_escape_groups():
    analysis = analyze(
        """
        def relay(sock, data):
            payload = data
            sock.oinvoke("put", payload)
        """
    )
    assert summary(analysis, "relay").escape_kinds("data") == {"remote"}


def test_returns_handle_propagates_through_wrappers():
    analysis = analyze(
        """
        def kick(obj):
            return obj.ainvoke("work")

        def wrap(obj):
            return kick(obj)

        def plain(obj):
            return obj.sinvoke("work")
        """
    )
    assert summary(analysis, "kick").returns_handle
    assert summary(analysis, "wrap").returns_handle
    assert not summary(analysis, "plain").returns_handle


def test_interprocedural_remote_escape_and_mutation():
    analysis = analyze(
        """
        def forward(target, payload):
            target.oinvoke("accept", payload)

        def grow(xs):
            xs.append(0)

        def caller(sock, resource, counts):
            forward(sock, resource)
            grow(counts)
        """
    )
    caller = summary(analysis, "caller")
    assert "remote" in caller.escape_kinds("resource")
    assert "counts" in caller.mutates


def test_mutual_recursion_converges():
    analysis = analyze(
        """
        def ping(sock, x, n):
            if n > 0:
                pong(sock, x, n - 1)

        def pong(sock, x, n):
            if n > 1:
                ping(sock, x, n - 1)
            else:
                sock.sinvoke("put", x)
        """
    )
    assert "remote" in summary(analysis, "ping").escape_kinds("x")
    assert "remote" in summary(analysis, "pong").escape_kinds("x")


# ---------------------------------------------------------------------------
# monotonicity under adding call edges
# ---------------------------------------------------------------------------

_BASE = """
def send_out(sock, data):
    sock.sinvoke("put", data)

def keep(box, value):
    box.slot = value

def grow(xs):
    xs.append(1)

def kick(obj):
    return obj.ainvoke("work")

def driver(sock, a, b, c, obj):
{body}
"""

#: candidate call edges driver may grow, in a fixed order
_CANDIDATES = [
    "send_out(sock, a)",
    "keep(b, a)",
    "grow(c)",
    "kick(obj)",
    "send_out(sock, c)",
    "keep(c, b)",
]


def _driver_source(edges: list[str]) -> str:
    body = "\n".join(f"    {line}" for line in edges) or "    pass"
    return _BASE.format(body=body)


def _assert_summary_subset(small, big) -> None:
    for param, kinds in small.escapes.items():
        assert kinds <= big.escape_kinds(param)
    assert small.mutates <= big.mutates
    assert big.returns_handle or not small.returns_handle


def test_summaries_grow_with_call_edges_deterministic():
    before = analyze(_driver_source([]))
    after = analyze(_driver_source(_CANDIDATES))
    driver_after = summary(after, "driver")
    assert summary(before, "driver").escapes == {}
    assert "remote" in driver_after.escape_kinds("a")
    assert "remote" in driver_after.escape_kinds("c")
    assert "field" in driver_after.escape_kinds("a")
    assert {"b", "c"} <= set(driver_after.mutates)
    _assert_summary_subset(summary(before, "driver"), driver_after)


def test_summaries_monotone_under_random_edge_growth():
    """For random chains E1 <= E2 <= ... of call-edge sets, every
    function's summary only ever gains facts along the chain."""
    for seed in range(15):
        rng = random.Random(seed)
        order = list(_CANDIDATES)
        rng.shuffle(order)
        cut_a = rng.randint(0, len(order))
        cut_b = rng.randint(cut_a, len(order))
        chain = [order[:cut_a], order[:cut_b], order]
        analyses = [analyze(_driver_source(edges)) for edges in chain]
        for small, big in zip(analyses, analyses[1:]):
            for key, small_summary in small.summaries.items():
                _assert_summary_subset(
                    small_summary, big.summaries[key]
                )


def test_edge_order_does_not_change_the_summary():
    """Summaries are a property of the call graph, not of statement
    order inside the caller."""
    base = analyze(_driver_source(_CANDIDATES))
    for seed in range(5):
        rng = random.Random(seed)
        shuffled = list(_CANDIDATES)
        rng.shuffle(shuffled)
        other = analyze(_driver_source(shuffled))
        assert summary(base, "driver") == summary(other, "driver")
