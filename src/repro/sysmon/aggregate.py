"""Aggregation of parameter snapshots up the manager hierarchy.

The paper: "System parameters for clusters, sites, and domains are
averaged across the contained nodes" — cluster managers average their
nodes' samples, site managers average cluster averages weighted by node
count, and so on up to the domain manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.sysmon.params import SysParam
from repro.sysmon.sampler import Snapshot

#: marker for string parameters whose values differ across averaged nodes
MIXED = "<mixed>"


@dataclass(frozen=True)
class WeightedSnapshot:
    """A snapshot that stands for ``weight`` nodes (for re-averaging)."""

    params: Snapshot
    weight: int = 1


#: the parameters that average; the others collapse to a common value
_NUMERIC = frozenset(param for param in SysParam if param.is_numeric)


def average_snapshots(
    snapshots: Iterable[Snapshot | WeightedSnapshot],
) -> WeightedSnapshot:
    """Weighted average of snapshots; numeric params average, string
    params collapse to the common value or :data:`MIXED`.

    The result holds the parameters in the order they are first seen
    across the snapshots, and each numeric parameter sums its values in
    snapshot order, whatever parameters each snapshot holds."""
    weighted: list[WeightedSnapshot] = [
        s if isinstance(s, WeightedSnapshot) else WeightedSnapshot(s)
        for s in snapshots
    ]
    if not weighted:
        raise ValueError("cannot average zero snapshots")
    total_weight = sum(w.weight for w in weighted)
    result: Snapshot = {}
    seen: Snapshot = {}
    for w in weighted:
        seen.update(w.params)
    for param in seen:
        present = [w for w in weighted if param in w.params]
        if param in _NUMERIC:
            weight = sum(w.weight for w in present)
            total = sum([float(w.params[param]) * w.weight for w in present])
            result[param] = total / weight
        else:
            values = {w.params[param] for w in present}
            result[param] = values.pop() if len(values) == 1 else MIXED
    return WeightedSnapshot(params=result, weight=total_weight)


def get_param(snapshot: Snapshot, param: SysParam | str) -> Any:
    """Fetch a parameter by enum or paper-style name string."""
    if isinstance(param, str):
        param = SysParam.by_key(param)
    return snapshot[param]
