"""Generic worklist dataflow over :mod:`repro.analysis.cfg` graphs.

One solver, two directions.  An analysis provides per-block ``gen`` /
``kill`` sets (the classic bitvector form — both reaching definitions
and liveness fit it) and the solver iterates to the least fixpoint
under union.  Statement-level refinements (``live_after``,
``reaching_before``) re-walk a single block from its boundary, so rules
can ask questions at call-site granularity without the solver tracking
every statement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import CFG, Block, stmt_defs, stmt_uses


@dataclass
class Solution:
    """Fixpoint ``in``/``out`` sets per block id."""

    in_: dict[int, frozenset]
    out: dict[int, frozenset]


class DataflowAnalysis:
    """Union (may) analysis in gen/kill form.

    Subclasses set ``forward`` and implement :meth:`gen` and
    :meth:`kill`; facts are hashable (names, definition sites, ...).
    """

    forward: bool = True

    def gen(self, block: Block) -> frozenset:  # pragma: no cover
        raise NotImplementedError

    def kill(self, block: Block) -> frozenset:  # pragma: no cover
        raise NotImplementedError

    def transfer(self, block: Block, inputs: frozenset) -> frozenset:
        return self.gen(block) | (inputs - self.kill(block))

    def solve(self, cfg: CFG) -> Solution:
        preds = {b.id: b.preds for b in cfg.blocks}
        succs = {b.id: b.succs for b in cfg.blocks}
        sources = preds if self.forward else succs
        drains = succs if self.forward else preds
        in_: dict[int, frozenset] = {b.id: frozenset() for b in cfg.blocks}
        out: dict[int, frozenset] = {b.id: frozenset() for b in cfg.blocks}
        work = [b.id for b in cfg.blocks]
        blocks = {b.id: b for b in cfg.blocks}
        while work:
            bid = work.pop()
            merged = frozenset().union(
                *(out[p] for p in sources[bid])
            ) if sources[bid] else frozenset()
            in_[bid] = merged
            new_out = self.transfer(blocks[bid], merged)
            if new_out != out[bid]:
                out[bid] = new_out
                work.extend(drains[bid])
        if self.forward:
            return Solution(in_=in_, out=out)
        # For a backward analysis, report in program direction: ``in_``
        # holds facts at block entry, ``out`` at block exit.
        return Solution(in_=out, out=in_)


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


class Liveness(DataflowAnalysis):
    """Backward may-analysis: which names are read later."""

    forward = False

    def __init__(self, cfg: CFG) -> None:
        self._gen: dict[int, frozenset] = {}
        self._kill: dict[int, frozenset] = {}
        for block in cfg.blocks:
            upward: set[str] = set()
            defined: set[str] = set()
            for stmt in block.stmts:
                upward |= stmt_uses(stmt) - defined
                defined |= stmt_defs(stmt)
            self._gen[block.id] = frozenset(upward)
            self._kill[block.id] = frozenset(defined)
        self.cfg = cfg
        self.solution = self.solve(cfg)

    def gen(self, block: Block) -> frozenset:
        return self._gen[block.id]

    def kill(self, block: Block) -> frozenset:
        return self._kill[block.id]

    def live_after(self, block: Block, idx: int) -> frozenset:
        """Names live immediately *after* ``block.stmts[idx]``."""
        live = set(self.solution.out[block.id])
        for stmt in reversed(block.stmts[idx + 1:]):
            live -= stmt_defs(stmt)
            live |= stmt_uses(stmt)
        return frozenset(live)


# ---------------------------------------------------------------------------
# reaching definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """One binding site: name + (block, statement index) coordinates."""

    name: str
    block: int
    index: int
    line: int


def _block_defs(block: Block) -> list[Definition]:
    defs = []
    for idx, stmt in enumerate(block.stmts):
        for name in stmt_defs(stmt):
            defs.append(Definition(
                name, block.id, idx, getattr(stmt, "lineno", 0)
            ))
    return defs


class ReachingDefinitions(DataflowAnalysis):
    """Forward may-analysis: which bindings may reach a point."""

    forward = True

    def __init__(self, cfg: CFG) -> None:
        self._all: dict[str, set[Definition]] = {}
        per_block: dict[int, list[Definition]] = {}
        for block in cfg.blocks:
            block_defs = _block_defs(block)
            per_block[block.id] = block_defs
            for d in block_defs:
                self._all.setdefault(d.name, set()).add(d)
        self._gen: dict[int, frozenset] = {}
        self._kill: dict[int, frozenset] = {}
        for block in cfg.blocks:
            downward: dict[str, Definition] = {}
            for d in per_block[block.id]:
                downward[d.name] = d  # later defs shadow earlier ones
            self._gen[block.id] = frozenset(downward.values())
            killed: set[Definition] = set()
            for name in downward:
                killed |= self._all[name] - {downward[name]}
            self._kill[block.id] = frozenset(killed)
        self.cfg = cfg
        self.solution = self.solve(cfg)

    def gen(self, block: Block) -> frozenset:
        return self._gen[block.id]

    def kill(self, block: Block) -> frozenset:
        return self._kill[block.id]

    def reaching_before(self, block: Block, idx: int) -> frozenset:
        """Definitions reaching the point just before
        ``block.stmts[idx]``."""
        reaching = set(self.solution.in_[block.id])
        for i, stmt in enumerate(block.stmts[:idx]):
            defined = stmt_defs(stmt)
            if not defined:
                continue
            reaching = {d for d in reaching if d.name not in defined}
            line = getattr(stmt, "lineno", 0)
            for name in defined:
                reaching.add(Definition(name, block.id, i, line))
        return frozenset(reaching)
