"""Dynamic virtual distributed architectures (paper Sections 3 and 4.2)."""

from repro.varch.cluster import Cluster
from repro.varch.component import VAComponent
from repro.varch.domain import Domain
from repro.varch.managers import ManagerAssignment, assign_cluster_managers
from repro.varch.node import Node
from repro.varch.pool import MonitoredPool, ResourcePool
from repro.varch.site import Site

__all__ = [
    "Cluster",
    "VAComponent",
    "Domain",
    "ManagerAssignment",
    "assign_cluster_managers",
    "Node",
    "MonitoredPool",
    "ResourcePool",
    "Site",
]
