"""``JSConstraints``: conjunctions of relational constraints over system
parameters (paper Section 4.2).

The paper's canonical example::

    JSConstraints constr = new JSConstraints();
    constr.setConstraints(JSConstants.NODE_NAME, "!=", "milena");
    constr.setConstraints(JSConstants.CPU_SYS_LOAD, "<=", 10);
    constr.setConstraints(JSConstants.IDLE, ">=", 50);
    constr.setConstraints(JSConstants.AVAIL_MEM, ">=", 50);
    constr.setConstraints(JSConstants.SWAP_SPACE_RATIO, ">=", 0.3);

maps one-to-one onto::

    constr = JSConstraints()
    constr.set_constraint(SysParam.NODE_NAME, "!=", "milena")
    ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.constraints.ops import apply_op, normalize_op
from repro.errors import ConstraintError
from repro.sysmon.params import SysParam
from repro.sysmon.sampler import Snapshot


@dataclass(frozen=True)
class Constraint:
    param: SysParam
    op: str
    value: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", normalize_op(self.op))
        if self.param.is_numeric:
            # Validate coercibility eagerly so bad constraints fail at
            # definition time, not deep inside the allocator.
            from repro.constraints.ops import coerce_number

            coerce_number(self.value)

    def holds(self, snapshot: Snapshot) -> bool:
        if self.param not in snapshot:
            raise ConstraintError(
                f"snapshot lacks parameter {self.param.name}"
            )
        return apply_op(
            self.op,
            snapshot[self.param],
            self.value,
            numeric=self.param.is_numeric,
        )

    def __str__(self) -> str:
        return f"{self.param.name} {self.op} {self.value}"


def _resolve_param(param: SysParam | str) -> SysParam:
    if isinstance(param, SysParam):
        return param
    try:
        return SysParam.by_key(param)
    except KeyError as err:
        raise ConstraintError(str(err)) from None


class JSConstraints:
    """An AND-combined set of constraints.

    Mirrors the paper's class of the same name; also accepts an initial
    list of ``(param, op, value)`` triples for brevity.
    """

    def __init__(
        self, triples: list[tuple[SysParam | str, str, Any]] | None = None
    ) -> None:
        self._constraints: list[Constraint] = []
        for param, op, value in triples or []:
            self.set_constraint(param, op, value)

    # Paper-style camelCase alias.
    def setConstraints(
        self, param: SysParam | str, op: str, value: Any
    ) -> "JSConstraints":
        return self.set_constraint(param, op, value)

    def set_constraint(
        self, param: SysParam | str, op: str, value: Any
    ) -> "JSConstraints":
        self._constraints.append(
            Constraint(_resolve_param(param), op, value)
        )
        return self

    def holds(self, snapshot: Snapshot) -> bool:
        """True iff every constraint holds for the snapshot."""
        return all(c.holds(snapshot) for c in self._constraints)

    def failing(self, snapshot: Snapshot) -> list[Constraint]:
        """The subset of constraints the snapshot violates."""
        return [c for c in self._constraints if not c.holds(snapshot)]

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __str__(self) -> str:
        return " AND ".join(str(c) for c in self._constraints) or "<empty>"
