"""The JavaSymphony Administration Shell (JS-Shell).

Paper Section 5: the JS-Shell configures which nodes run JRS (add/remove
dynamically), controls measurement and collection periods, failure
timeouts, and enables/disables automatic object migration.  An object
mapped without constraints may be placed on any live node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ShellError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import JSRuntime


@dataclass
class ShellConfig:
    #: PubOA VA-watch period driving automatic migration (s)
    watch_period: float = 10.0
    #: automatic object migration on/off ("it is possible to
    #: enable/disable automatic migration under the JS-Shell")
    auto_migration: bool = False
    #: default RPC timeout for OAS traffic; None = block forever
    rpc_timeout: float | None = None
    #: how long migrate_object waits for this app's in-flight async
    #: invocations to drain before migrating anyway (handing stragglers
    #: to the tombstone redirect); None = drain fully
    migrate_drain_timeout: float | None = None
    #: extension (off-path per paper): let the OAS react to NAS failures
    oas_failure_recovery: bool = False
    #: the reliability layer (:mod:`repro.rmi.reliability`): blocking
    #: endpoint RPCs retry transport failures with backoff and carry
    #: idempotency tokens, holders answer a retried token from a replay
    #: cache, and a per-host circuit breaker sheds calls and placements.
    #: False (default) keeps the paper's fire-once semantics.
    reliable: bool = False


class JSShell:
    def __init__(self, runtime: "JSRuntime",
                 config: ShellConfig | None = None) -> None:
        self.runtime = runtime
        self.config = config or ShellConfig()
        self.log: list[tuple[float, str, dict]] = []

    def _note(self, kind: str, **detail) -> None:
        self.log.append((self.runtime.world.now(), kind, detail))

    # -- monitoring periods ----------------------------------------------------

    def set_monitor_period(self, seconds: float) -> None:
        if seconds <= 0:
            raise ShellError("monitor period must be positive")
        self.runtime.nas.config.monitor_period = seconds
        self._note("set-monitor-period", seconds=seconds)

    def set_probe_period(self, seconds: float) -> None:
        if seconds <= 0:
            raise ShellError("probe period must be positive")
        self.runtime.nas.config.probe_period = seconds
        self._note("set-probe-period", seconds=seconds)

    def set_failure_timeout(self, seconds: float) -> None:
        if seconds <= 0:
            raise ShellError("failure timeout must be positive")
        self.runtime.nas.config.failure_timeout = seconds
        self._note("set-failure-timeout", seconds=seconds)

    # -- automatic migration -----------------------------------------------------

    def enable_auto_migration(self, watch_period: float | None = None) -> None:
        if watch_period is not None:
            if watch_period <= 0:
                raise ShellError("watch period must be positive")
            self.config.watch_period = watch_period
        self.config.auto_migration = True
        self._note("auto-migration", enabled=True)

    def disable_auto_migration(self) -> None:
        self.config.auto_migration = False
        self._note("auto-migration", enabled=False)

    # -- node membership -----------------------------------------------------------

    def add_node(self, host: str, cluster: str, site: str) -> None:
        """Register a node with JRS while applications may be running."""
        self.runtime.nas.add_node(host, cluster, site)
        self.runtime.pool.add_host(host)
        self.runtime.ensure_pub_oa(host)
        self._note("add-node", host=host, cluster=cluster, site=site)

    def remove_node(self, host: str) -> None:
        self.runtime.nas.remove_node(host)
        self.runtime.pool.remove_host(host)
        self._note("remove-node", host=host)

    def nodes(self) -> list[str]:
        return self.runtime.nas.known_hosts()

    # -- introspection -----------------------------------------------------------------

    def failure_events(self) -> list:
        return list(self.runtime.nas.events)
