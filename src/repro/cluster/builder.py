"""``JSRuntime``: wiring a complete JRS over a simulated world.

One runtime = one JRS installation: transport, Network Agent System,
a PubOA per node, the JS-Shell, the resource pool (backed by monitored
data), the persistent store, and per-application AppOAs.  Applications
run via :meth:`run_app`, which pushes an ambient context so the paper's
bare-constructor API (``JSRegistration()``, ``Node()``, ``JSObj(...)``)
works unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro import context
from repro.agents.app_oa import AppOA
from repro.obs import events as ev
from repro.agents.nas import NASConfig, NetworkAgentSystem
from repro.agents.pub_oa import PubOA
from repro.agents.shell import JSShell, ShellConfig
from repro.constraints import JSConstraints
from repro.core.persistence import PersistentStore
from repro.errors import AllocationError, RegistrationError
from repro.obs.flight import FlightRecorder
from repro.rmi.reliability import CircuitBreaker, Retrier
from repro.simnet.world import SimWorld
from repro.sysmon import SysParam
from repro.transport import Transport
from repro.util.ids import IdGenerator
from repro.varch.pool import MonitoredPool


class JSRuntime:
    def __init__(
        self,
        world: SimWorld,
        layout: dict[str, dict[str, list[str]]],
        nas_config: NASConfig | None = None,
        shell_config: ShellConfig | None = None,
        persistence_dir: str | None = None,
        pool_policy: str = "available-compute",
        incident_dir: str | None = None,
    ) -> None:
        self.world = world
        self.kernel = world.kernel
        self.transport = Transport(world)
        self.nas = NetworkAgentSystem(
            world, self.transport, layout, nas_config
        )
        self.shell = JSShell(self, shell_config)
        self.pool = MonitoredPool(
            world,
            hosts=self.nas.known_hosts(),
            policy=pool_policy,
            snapshot_fn=self.nas.latest_snapshot,
            site_fn=self.nas.site_of,
        )
        self.persistent_store = PersistentStore(persistence_dir)
        self.ids = IdGenerator()
        self.pub_oas: dict[str, PubOA] = {}
        self.apps: dict[str, AppOA] = {}
        #: simulated "URL space" for codebase.add(url)
        self.url_store: dict[str, list[str]] = {}
        self._started = False
        # Reliability layer: off by default, so without the
        # ShellConfig.reliable opt-in the transport keeps the paper's
        # fire-once semantics.  Holders attach their replay caches
        # themselves (HolderEndpoints.register_holder_handlers).
        #: :class:`CircuitBreaker` | None — also consulted for placement
        self.health: CircuitBreaker | None = None
        if self.shell.config.reliable:
            self.health = CircuitBreaker()
            self.health.on_state = self._on_circuit_state
            self.transport.retrier = Retrier(self.transport, self.health)
        # Where each host registered originally, for NAS re-registration
        # after a crash-restart.
        self._host_homes = {
            host: (self.nas.cluster_of(host), self.nas.site_of(host))
            for host in self.nas.known_hosts()
        }
        for host in self.nas.known_hosts():
            self.ensure_pub_oa(host)
        # Keep pool membership in sync when the NAS releases failed nodes.
        self.nas.failure_listeners.append(self._on_node_failure)
        world.restart_listeners.append(self._on_node_restart)
        # The failure flight recorder: trace-event triggers (host.failed,
        # slo.alert, rpc.timeout) via the tracer.  attach() no-ops on a
        # NullTracer, so wiring it is always safe.
        self.flight = FlightRecorder(
            world.tracer,
            nas_provider=self.nas.history_document,
            slo_provider=self._slo_alerts,
            incident_dir=incident_dir,
        )
        self.flight.attach()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "JSRuntime":
        if self._started:
            return self
        self._started = True
        self.nas.start()
        for pub_oa in self.pub_oas.values():
            pub_oa.start()
        return self

    def ensure_pub_oa(self, host: str) -> PubOA:
        pub_oa = self.pub_oas.get(host)
        if pub_oa is None:
            pub_oa = PubOA(self, host)
            self.pub_oas[host] = pub_oa
            if self._started:
                pub_oa.start()
        return pub_oa

    def register_archive(self, path_or_url: str, classes: list) -> None:
        """Declare a "jar file" or codebase URL: a named bundle of classes
        that ``JSCodebase.add(path_or_url)`` can pull in.  Class objects
        are registered globally; strings must already be registered."""
        from repro.agents.objects import ClassRegistry

        names: list[str] = []
        for item in classes:
            if isinstance(item, type):
                ClassRegistry.register(item)
                names.append(item.__name__)
            else:
                ClassRegistry.resolve(str(item))  # validates
                names.append(str(item))
        self.url_store[path_or_url] = names

    def _on_node_failure(self, host: str) -> None:
        # NAS released the node: stop offering it to new allocations.  The
        # OAS deliberately does NOT touch objects that lived there (paper:
        # the object agent system does not yet exploit failure info) —
        # unless the checkpoint-recovery extension is switched on.
        if host in self.pool.hosts:
            self.pool.remove_host(host)
        if self.health is not None:
            # NAS-confirmed death outranks suspicion: trip immediately so
            # reliable RPC sheds traffic instead of burning retry budget.
            self.health.force_open(host, self.world.now())
        if self.shell.config.oas_failure_recovery:
            for app in list(self.apps.values()):
                app.recover_from_failure(host)

    def _on_node_restart(self, host: str) -> None:
        """Crash-restart: the machine came back as a blank slate, so the
        agents layer must too — fresh holder tables (a new PubOA), NAS
        re-registration under the original cluster/site, pool
        membership, and a clean circuit."""
        old = self.pub_oas.pop(host, None)
        if old is not None:
            # The pre-crash endpoint's handlers close over dead holder
            # tables; close it so the fresh PubOA can re-register.
            old.endpoint.close()
        if self.nas.cluster_of(host) is None:
            cluster, site = self._host_homes.get(host, (None, None))
            if cluster is not None:
                self.nas.add_node(host, cluster, site)
        if host not in self.pool.hosts:
            self.pool.add_host(host)
        self.ensure_pub_oa(host)
        if self.health is not None:
            self.health.reset(host)

    def _on_circuit_state(self, host: str, state: str) -> None:
        tracer = self.world.tracer
        tracer.emit(ev.CIRCUIT_STATE, ts=self.world.now(), host=host,
                    state=state)
        tracer.count(f"circuit.{state}", host=host)

    # -- telemetry -----------------------------------------------------------

    def _slo_alerts(self) -> list[dict]:
        return list(self.nas.slo.alerts)

    # -- applications ------------------------------------------------------------

    def register_app(self, home: str | None = None) -> AppOA:
        if home is None:
            home = self.nas.known_hosts()[0]
        if home not in self.nas.known_hosts():
            raise RegistrationError(f"home node {home!r} is not under JRS")
        app_id = self.ids.next("app")
        app = AppOA(self, app_id, home)
        self.apps[app_id] = app
        return app

    def forget_app(self, app_id: str) -> None:
        self.apps.pop(app_id, None)

    def _app_body(
        self,
        fn: Callable[..., Any],
        args: tuple,
        env: "context.Environment",
        home: str,
        name: str,
    ) -> Callable[[], Any]:
        """Build the process body for an application: ambient environment
        plus (when tracing) an ``app`` root span that starts a fresh trace
        and covers the whole run — every invocation/migration the app
        triggers hangs off it, which is what makes the critical-path
        extractor's "main trace" well-defined."""

        def wrapped() -> Any:
            tracer = self.world.tracer
            span = None
            if tracer.enabled:
                span = tracer.begin_span(
                    ev.APP, ts=self.world.now(), host=home, actor=name,
                    parent=None, app=name,
                )
            try:
                with context.scoped(env):
                    return fn(*args)
            finally:
                if span is not None:
                    tracer.end_span(span, ts=self.world.now())

        return wrapped

    def run_app(
        self,
        fn: Callable[..., Any],
        *args: Any,
        node: str | None = None,
        name: str = "jsa",
    ) -> Any:
        """Run ``fn(*args)`` as a JavaSymphony application process and
        return its result.  Agent loops keep running between calls."""
        self.start()
        home = node if node is not None else self.nas.known_hosts()[0]
        env = context.Environment(pool=self.pool, runtime=self)
        env.extras["home"] = home
        wrapped = self._app_body(fn, args, env, home, name)
        proc = self.kernel.spawn(wrapped, name=name, context={"env": env})
        self.kernel.run(main=proc)
        return proc.result()

    def spawn_app(
        self,
        fn: Callable[..., Any],
        *args: Any,
        node: str | None = None,
        name: str = "jsa",
    ):
        """Spawn an application process without driving the kernel; use
        with :meth:`run_apps` (or your own ``kernel.run``) to execute
        several JSAs concurrently against one JRS."""
        self.start()
        home = node if node is not None else self.nas.known_hosts()[0]
        env = context.Environment(pool=self.pool, runtime=self)
        env.extras["home"] = home
        wrapped = self._app_body(fn, args, env, home, name)
        return self.kernel.spawn(wrapped, name=name, context={"env": env})

    def run_apps(
        self, *specs: Callable[..., Any] | tuple
    ) -> list[Any]:
        """Run several applications concurrently; each spec is a callable
        or ``(callable, home_node)``.  Returns their results in order."""
        procs = []
        for index, spec in enumerate(specs):
            if isinstance(spec, tuple):
                fn, node = spec
            else:
                fn, node = spec, None
            procs.append(
                self.spawn_app(fn, node=node, name=f"jsa-{index}")
            )
        for proc in procs:
            self.kernel.run(main=proc)
        return [proc.result() for proc in procs]

    # -- placement decisions -------------------------------------------------------

    def _placement_rank(
        self,
        hosts: Iterable[str],
        constraints: JSConstraints | None,
    ) -> list[str]:
        scored = []
        for host in hosts:
            if host not in self.pool.hosts:
                continue
            if self.world.machine(host).failed:
                continue
            if (
                self.health is not None
                and self.health.suspected(host)
            ):
                # Circuit open or probing: shed new placements until the
                # breaker closes again.
                continue
            snap = self.pool.snapshot(host)
            if constraints is not None and not constraints.holds(snap):
                continue
            available = (
                snap[SysParam.PEAK_MFLOPS] * snap[SysParam.IDLE] / 100.0
            )
            scored.append(
                (snap[SysParam.JS_OBJECTS], -available, host)
            )
        return [host for _, _, host in sorted(scored)]

    def choose_object_host(
        self,
        hosts: Iterable[str] | None = None,
        constraints: JSConstraints | None = None,
    ) -> str:
        """Where JRS puts an object: "a node with the smallest system load
        and reasonable resources available" among the candidates, spread
        by how many objects each node already hosts."""
        pool_hosts = self.pool.hosts if hosts is None else list(hosts)
        ranked = self._placement_rank(pool_hosts, constraints)
        if not ranked:
            raise AllocationError(
                "no node satisfies the object-placement constraints"
            )
        return ranked[0]

    def choose_migration_target(
        self,
        from_host: str,
        constraints: JSConstraints | None = None,
        exclude: Iterable[str] = (),
    ) -> str | None:
        """Target for (auto-)migration off ``from_host``: prefer a node in
        the same physical cluster, then the same site, then anywhere —
        the paper's locality-preserving search order."""
        excluded = set(exclude) | {from_host}
        candidates = [
            h for h in self._placement_rank(self.pool.hosts, constraints)
            if h not in excluded
        ]
        if not candidates:
            return None
        home_cluster = self.nas.cluster_of(from_host)
        home_site = self.nas.site_of(from_host)

        def tier(host: str) -> int:
            if home_cluster and self.nas.cluster_of(host) == home_cluster:
                return 0
            if home_site and self.nas.site_of(host) == home_site:
                return 1
            return 2

        return min(candidates, key=lambda h: (tier(h), candidates.index(h)))
