"""``Node``: the leaf of a virtual architecture (one physical machine).

Paper Section 4.2::

    Node n1 = new Node();          // any node, JRS picks
    Node n2 = new Node("rachel");  // that specific machine
    Node n3 = new Node(constr);    // any node satisfying the constraints
    Cluster c1 = n1.getCluster();  // every node has a unique
    Site s1 = n1.getSite();        //   (cluster, site, domain) triple
    Domain d1 = n1.getDomain();
    n1.freeNode();

A free-standing node's cluster/site/domain are implicit singletons,
created lazily, preserving the unique-triple invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.constraints import JSConstraints
from repro.errors import ArchitectureError
from repro.varch.component import VAComponent

if TYPE_CHECKING:  # pragma: no cover
    from repro.varch.cluster import Cluster
    from repro.varch.domain import Domain
    from repro.varch.site import Site


class Node(VAComponent):
    _kind = "node"

    def __init__(
        self,
        arg: "str | JSConstraints | None" = None,
        pool: Any = None,
    ) -> None:
        super().__init__(pool)
        if arg is None:
            (host,) = self._pool.acquire(1)
        elif isinstance(arg, str):
            (host,) = self._pool.acquire(name=arg)
        elif isinstance(arg, JSConstraints):
            (host,) = self._pool.acquire(1, constraints=arg)
        else:
            raise ArchitectureError(
                f"Node() takes a name, JSConstraints or nothing, "
                f"not {type(arg).__name__}"
            )
        self._host = host

    def _take(self, host: str) -> None:
        self._host = host

    # -- identity --------------------------------------------------------------

    @property
    def hostname(self) -> str:
        return self._host

    def nodes(self) -> "list[Node]":
        self._check_active()
        return [self]

    def __repr__(self) -> str:
        state = "freed" if self._freed else "active"
        return f"<Node {self._host} ({state})>"

    # -- hierarchy --------------------------------------------------------------

    def get_cluster(self) -> "Cluster":
        """The unique cluster this node belongs to (implicit singleton for
        free-standing nodes)."""
        from repro.varch.cluster import Cluster

        return self._up(Cluster)

    def get_site(self) -> "Site":
        return self.get_cluster().get_site()

    def get_domain(self) -> "Domain":
        return self.get_cluster().get_domain()

    # -- lifecycle --------------------------------------------------------------

    def _free(self) -> None:
        super()._free()
        self._pool.release(self._host)

    def free_node(self) -> None:
        """Release this node from the application (paper: ``freeNode``)."""
        self._free()

    free = free_node

    # Paper-style aliases.
    getCluster = get_cluster
    getSite = get_site
    getDomain = get_domain
    freeNode = free_node
