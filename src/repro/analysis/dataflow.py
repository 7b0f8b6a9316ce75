"""Generic worklist dataflow over :mod:`repro.analysis.cfg` graphs.

One solver, either direction.  An analysis provides per-block ``gen`` /
``kill`` sets (the classic bitvector form, which liveness fits) and the
solver iterates to the least fixpoint under union.  The statement-level
refinement ``live_after`` re-walks a single block from its boundary, so
rules can ask questions at call-site granularity without the solver
tracking every statement.
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

