"""Base classes for virtual-architecture components.

Every component — node, cluster, site, domain — supports the Section 4.6
introspection API: ``getSysParam`` (averaged across contained nodes for
aggregates) and ``constrHold``.

The architecture is one recursive structure, Node ⊂ Cluster ⊂ Site ⊂
Domain (Section 4.2), and each level above the node is one
:class:`Aggregate` of the level below.  The rules are the same at every
level:

* a component has at most one parent, so every node keeps a unique
  (cluster, site, domain) triple;
* asking a free-standing component for its parent creates an implicit
  singleton of the level above;
* ``add`` moves only a member of an implicit singleton (the singleton
  is dissolved), and checks for overlapping hosts first: a refused add
  changes nothing;
* freeing a component frees its members and takes it out of its parent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence, TypeVar

from repro import context
from repro.constraints import JSConstraints
from repro.errors import ArchitectureError
from repro.sysmon import SysParam, average_snapshots
from repro.sysmon.sampler import Snapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.varch.node import Node

_Level = TypeVar("_Level", bound="Aggregate")


class VAComponent:
    _kind = "component"
    _parent: "Aggregate | None" = None

    def __init__(self, pool: Any = None) -> None:
        self._pool = pool if pool is not None else context.require_pool()
        self._freed = False

    @classmethod
    def _adopt(cls, tree: Any, pool: Any) -> "VAComponent":
        """Internal: the component over already-acquired hosts ``tree`` —
        a host name for a node, a host list for a cluster, a list of
        those for a site, and so on."""
        component = cls.__new__(cls)
        VAComponent.__init__(component, pool)
        component._take(tree)
        return component

    def _take(self, tree: Any) -> None:
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------

    @property
    def freed(self) -> bool:
        return self._freed

    def _check_active(self) -> None:
        if self._freed:
            raise ArchitectureError(
                f"this {self._kind} has been freed"
            )

    def _free(self) -> None:
        """Free this component and take it out of its parent."""
        self._check_active()
        self._freed = True
        if self._parent is not None:
            self._parent._members.remove(self)

    # -- structure -------------------------------------------------------------

    def _up(self, level: type[_Level]) -> _Level:
        """My parent, or an implicit singleton of the level above."""
        self._check_active()
        if self._parent is None:
            singleton = level(pool=self._pool)
            singleton._implicit = True
            singleton._attach(self)
        assert self._parent is not None
        return self._parent  # type: ignore[return-value]

    def nodes(self) -> "list[Node]":
        raise NotImplementedError

    def hostnames(self) -> list[str]:
        return [n.hostname for n in self.nodes()]

    # -- monitoring (Section 4.6) -------------------------------------------

    def snapshot(self) -> Snapshot:
        """This component's parameter snapshot; aggregates average across
        their nodes (as the paper's managers do)."""
        self._check_active()
        nodes = self.nodes()
        if not nodes:
            raise ArchitectureError(
                f"{self._kind} has no nodes to sample"
            )
        snaps = [self._pool.snapshot(n.hostname) for n in nodes]
        if len(snaps) == 1:
            return snaps[0]
        return average_snapshots(snaps).params

    def get_sys_param(self, param: SysParam | str) -> Any:
        if isinstance(param, str):
            param = SysParam.by_key(param)
        return self.snapshot()[param]

    def constr_hold(self, constraints: JSConstraints) -> bool:
        """True iff the constraints hold for **every** node of the
        component — the same per-node semantics used at allocation time."""
        self._check_active()
        return all(
            constraints.holds(self._pool.snapshot(n.hostname))
            for n in self.nodes()
        )

    # Paper-style camelCase aliases.
    getSysParam = get_sys_param
    constrHold = constr_hold


class Aggregate(VAComponent):
    """One level above the node: an ordered list of members of the level
    below (``_member_type``).  Indices run from 0 to the member count
    minus one; freeing a member renumbers the ones after it, like the
    paper's mutable clusters."""

    _member_type: type[VAComponent] = VAComponent
    _implicit = False

    def __init__(self, pool: Any = None) -> None:
        super().__init__(pool)
        self._members: list[Any] = []

    def _take(self, tree: Sequence[Any]) -> None:
        self._members = []
        for subtree in tree:
            self._attach(self._member_type._adopt(subtree, self._pool))

    def _attach(self, member: VAComponent) -> None:
        member._parent = self
        self._members.append(member)

    # -- structure ---------------------------------------------------------------

    def _list(self) -> list[Any]:
        self._check_active()
        return list(self._members)

    def _count(self) -> int:
        return len(self._list())

    def _get(self, index: int) -> Any:
        self._check_active()
        if not 0 <= index < len(self._members):
            raise ArchitectureError(
                f"{self._member_type._kind} index {index} out of range "
                f"[0, {len(self._members) - 1}]"
            )
        return self._members[index]

    def nodes(self) -> "list[Node]":
        return [n for member in self._list() for n in member.nodes()]

    def nr_nodes(self) -> int:
        return len(self.nodes())

    def _add(self, member: VAComponent) -> None:
        """Add a member.  Only a member of an implicit singleton may move
        (the singleton is dissolved); the host check comes first, so a
        refused add changes nothing."""
        self._check_active()
        member._check_active()
        old = member._parent
        if old is not None and not (old._implicit and len(old._members) == 1):
            raise ArchitectureError(
                f"{member._kind} already belongs to a {self._kind}"
            )
        overlap = set(self.hostnames()) & set(member.hostnames())
        if overlap:
            raise ArchitectureError(
                f"hosts {sorted(overlap)} already present in this "
                f"{self._kind}"
            )
        if old is not None:
            old._members.remove(member)
            old._free()
        self._attach(member)

    # -- lifecycle ---------------------------------------------------------------

    def _free_member(self, which: "VAComponent | int") -> None:
        """Release one member, by object or index."""
        self._check_active()
        member = self._get(which) if isinstance(which, int) else which
        if member not in self._members:
            raise ArchitectureError(
                f"{member._kind} is not part of this {self._kind}"
            )
        member._free()

    def _free(self) -> None:
        """Release every member, then this aggregate itself."""
        self._check_active()
        for member in list(self._members):
            member._free()
        super()._free()

    def __repr__(self) -> str:
        state = "freed" if self._freed else (
            f"{len(self._members)} {self._member_type._kind}s"
        )
        return f"<{type(self).__name__} {state}>"
