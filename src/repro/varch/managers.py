"""Cluster manager assignment for virtual-architecture components.

Paper Section 5.1: every component is controlled by a manager node which
is itself a node of the component; *only a cluster manager can be a site
manager and only a site manager can be a domain manager*.  Each manager
has a predefined backup (and a second backup activated when the first
takes over).  This module assigns one cluster's manager and backups; the
Network Agent System applies it, holds the nesting rule
(``NetworkAgentSystem.site_manager``/``domain_manager``) and handles the
takeover protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ArchitectureError


@dataclass
class ManagerAssignment:
    """Managers for one cluster: ``manager`` plus ordered backups."""

    manager: str
    backups: list[str] = field(default_factory=list)

    def successor(self) -> "ManagerAssignment":
        """Assignment after the manager fails: first backup takes over and
        the next backup (if any) is activated."""
        if not self.backups:
            raise ArchitectureError(
                f"manager {self.manager} failed and no backup exists"
            )
        return ManagerAssignment(
            manager=self.backups[0], backups=self.backups[1:]
        )

    def without(self, host: str) -> "ManagerAssignment":
        """Assignment after a *non-manager* member failed."""
        if host == self.manager:
            return self.successor()
        return ManagerAssignment(
            manager=self.manager,
            backups=[b for b in self.backups if b != host],
        )


def assign_cluster_managers(
    hosts: list[str], n_backups: int = 2
) -> ManagerAssignment:
    """First host manages; the next ``n_backups`` are (ordered) backups."""
    if not hosts:
        raise ArchitectureError("cannot assign managers to an empty cluster")
    return ManagerAssignment(
        manager=hosts[0], backups=list(hosts[1:1 + n_backups])
    )
