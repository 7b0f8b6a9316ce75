"""``Site``: a collection of clusters (paper Section 4.2).

``Site([2, 4, 5], constr)`` allocates three clusters of 2, 4 and 5 fresh
nodes; ``Site()`` + ``add_cluster`` composes existing clusters.  The
operations are the shared :class:`~repro.varch.component.Aggregate`'s;
the two-index ``get_node``/``free_node`` forward to the cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.constraints import JSConstraints
from repro.errors import ArchitectureError
from repro.varch.cluster import Cluster
from repro.varch.component import Aggregate
from repro.varch.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.varch.domain import Domain


class Site(Aggregate):
    _kind = "site"
    _member_type = Cluster

    def __init__(
        self,
        nodes_per_cluster: Sequence[int] | None = None,
        constraints: JSConstraints | None = None,
        pool: Any = None,
    ) -> None:
        super().__init__(pool)
        if nodes_per_cluster is not None:
            counts = list(nodes_per_cluster)
            if not counts or any(c < 1 for c in counts):
                raise ArchitectureError(
                    f"bad cluster sizes {counts}: each cluster needs >= 1 node"
                )
            # One grouped acquire keeps hosts distinct across clusters
            # and confines each cluster to one physical segment when
            # the pool allows it.
            self._take(
                self._pool.acquire_grouped(counts, constraints=constraints)
            )

    def get_node(self, cluster_id: int, node_id: int) -> Node:
        """``site.get_node(c, n)`` == ``site.get_cluster(c).get_node(n)``."""
        return self.get_cluster(cluster_id).get_node(node_id)

    def get_domain(self) -> "Domain":
        from repro.varch.domain import Domain

        return self._up(Domain)

    def free_node(self, cluster_id: int, node_id: int) -> None:
        self.get_cluster(cluster_id).free_node(node_id)

    clusters = Aggregate._list
    nr_clusters = Aggregate._count
    get_cluster = Aggregate._get
    add_cluster = Aggregate._add
    free_cluster = Aggregate._free_member
    free_site = Aggregate._free

    # Paper-style aliases.
    nrClusters = nr_clusters
    nrNodes = Aggregate.nr_nodes
    getCluster = get_cluster
    getNode = get_node
    addCluster = add_cluster
    getDomain = get_domain
    freeNode = free_node
    freeCluster = free_cluster
    freeSite = free_site
