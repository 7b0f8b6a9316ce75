"""``Cluster``: an ordered collection of nodes (paper Section 4.2).

Supports both allocation styles from the paper: ``Cluster(5, constr)``
asks the pool for five fresh nodes; ``Cluster()`` + ``add_node`` builds a
cluster from individually allocated nodes.  Node indices run from 0 to
``nr_nodes() - 1``; freeing a node renumbers the ones after it, exactly
like the paper's mutable clusters.  The operations are the shared
:class:`~repro.varch.component.Aggregate`'s; this module binds their
Section-4.2 names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.constraints import JSConstraints
from repro.errors import ArchitectureError
from repro.varch.component import Aggregate
from repro.varch.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.varch.domain import Domain
    from repro.varch.site import Site


class Cluster(Aggregate):
    _kind = "cluster"
    _member_type = Node

    def __init__(
        self,
        nr_nodes: int | None = None,
        constraints: JSConstraints | None = None,
        pool: Any = None,
    ) -> None:
        super().__init__(pool)
        if nr_nodes is not None:
            if nr_nodes < 1:
                raise ArchitectureError("a cluster needs at least 1 node")
            # A cluster prefers one physical segment (Section 3: it
            # "usually corresponds to a local PC/workstation cluster").
            (hosts,) = self._pool.acquire_grouped(
                [nr_nodes], constraints=constraints
            )
            self._take(hosts)

    def get_site(self) -> "Site":
        from repro.varch.site import Site

        return self._up(Site)

    def get_domain(self) -> "Domain":
        return self.get_site().get_domain()

    get_node = Aggregate._get
    add_node = Aggregate._add
    free_node = Aggregate._free_member
    free_cluster = Aggregate._free

    # Paper-style aliases.
    nrNodes = Aggregate.nr_nodes
    getNode = get_node
    addNode = add_node
    getSite = get_site
    getDomain = get_domain
    freeNode = free_node
    freeCluster = free_cluster
