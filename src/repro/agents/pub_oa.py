"""The public object agent (PubOA), one per node.

Shares its "JVM" with the node's network agent (paper Figure 2): it holds
the *remote-objects-table* for objects created on this node by remote
applications, the node's loaded-class set (selective classloading), and
the stored virtual architectures whose creation constraints it
periodically re-checks — the trigger for automatic migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.agents import messages as M
from repro.agents.holder_endpoints import HolderEndpoints
from repro.constraints import JSConstraints
from repro.errors import NodeFailedError, RPCTimeoutError, TransportError
from repro.transport import Addr

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import JSRuntime


@dataclass
class VAWatch:
    """A stored virtual architecture: id, member hosts, the constraints it
    was created under, and the owning application's AppOA address."""

    watch_id: str
    hosts: list[str]
    constraints: JSConstraints
    app_addr: Addr


class PubOA(HolderEndpoints):
    def __init__(self, runtime: "JSRuntime", host: str) -> None:
        self.runtime = runtime
        self.world = runtime.world
        self.host = host
        self.addr = Addr(host, "oa")
        self.endpoint = runtime.transport.create_endpoint(self.addr)
        self.loaded_classes: set[str] = set()
        self._codebase_bytes: dict[str, int] = {}
        self.va_watches: dict[str, VAWatch] = {}
        self.init_holder()
        self.register_holder_handlers()
        self.endpoint.register(M.LOAD_CLASSES, self._h_load_classes)
        self.endpoint.register(M.UNLOAD_CLASSES, self._h_unload_classes)
        self.endpoint.register(M.REGISTER_VA, self._h_register_va)
        self.endpoint.register(M.UNREGISTER_VA, self._h_unregister_va)
        self._watch_proc = None

    # -- classloading (paper Section 4.3) ------------------------------------

    def _h_load_classes(self, msg):
        entries = msg.payload.data  # list[(class_name, nbytes)]
        machine = self.world.machine(self.host)
        san = self.world.kernel.sanitizer
        for class_name, nbytes in entries:
            if class_name not in self.loaded_classes:
                if san.enabled:
                    san.access(f"PubOA[{self.host}]",
                               f"loaded[{class_name}]",
                               scope=self.world.kernel)
                self.loaded_classes.add(class_name)
                self._codebase_bytes[class_name] = nbytes
                machine.codebase_mem_mb += nbytes / 1e6
        return {"loaded": len(entries)}

    def _h_unload_classes(self, msg):
        names = msg.payload
        machine = self.world.machine(self.host)
        san = self.world.kernel.sanitizer
        for class_name in names:
            if class_name in self.loaded_classes:
                if san.enabled:
                    san.access(f"PubOA[{self.host}]",
                               f"loaded[{class_name}]",
                               scope=self.world.kernel)
                self.loaded_classes.discard(class_name)
                nbytes = self._codebase_bytes.pop(class_name, 0)
                machine.codebase_mem_mb = max(
                    0.0, machine.codebase_mem_mb - nbytes / 1e6
                )
        return {"unloaded": len(names)}

    # -- VA watches / automatic migration trigger ------------------------------

    def _h_register_va(self, msg):
        watch_id, hosts, constraints, app_addr = msg.payload
        san = self.world.kernel.sanitizer
        if san.enabled:
            san.access(f"PubOA[{self.host}]", f"va_watches[{watch_id}]",
                       scope=self.world.kernel)
        self.va_watches[watch_id] = VAWatch(
            watch_id, list(hosts), constraints, app_addr
        )
        return watch_id

    def _h_unregister_va(self, msg):
        san = self.world.kernel.sanitizer
        if san.enabled:
            san.access(f"PubOA[{self.host}]",
                       f"va_watches[{msg.payload}]",
                       scope=self.world.kernel)
        self.va_watches.pop(msg.payload, None)
        return "ok"

    def start(self) -> None:
        self._watch_proc = self.world.kernel.spawn(
            self._watch_loop, name=f"puboa-watch@{self.host}"
        )

    def _watch_loop(self) -> None:
        """Periodically re-evaluate stored VAs' creation constraints and
        notify owning AppOAs about violating components (Section 5.2)."""
        kernel = self.world.kernel
        shell = self.runtime.shell
        kernel.sleep(
            float(self.world.rng.stream(f"watch:{self.host}").uniform(
                0, shell.config.watch_period
            ))
        )
        while not self.world.machine(self.host).failed:
            if shell.config.auto_migration:
                try:
                    self._check_watches_once()
                except NodeFailedError:
                    break
            kernel.sleep(shell.config.watch_period)

    def _check_watches_once(self) -> None:
        nas = self.runtime.nas
        for watch in list(self.va_watches.values()):
            violating = []
            for host in watch.hosts:
                if host not in self.world.machines:
                    continue
                if self.world.machine(host).failed:
                    continue
                snap = nas.latest_snapshot(host)
                if not watch.constraints.holds(snap):
                    violating.append(host)
            if violating:
                try:
                    self.endpoint.send_oneway(
                        watch.app_addr,
                        M.CONSTRAINTS_VIOLATED,
                        (watch.watch_id, violating, watch.constraints),
                    )
                except (TransportError, NodeFailedError,
                        RPCTimeoutError):  # pragma: no cover - defensive
                    pass
