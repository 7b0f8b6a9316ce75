"""The seven workloads.

A workload builds its inputs from the seed, sets the system up, and
exposes one *window*: the smallest unit of work the single closed-loop
caller blocks on (one ``sinvoke``, one burst of 32 ``ainvoke``, one
``minvoke`` of 32 slots, one Figure-5 point).  The driver issues
``windows`` of them per round and ``rounds`` rounds; every window
verifies its own outputs and returns how many of its ops were correct.

The program under test receives generated inputs only - never a
workload name.  ``repro`` is reached through module attributes at call
time, so the traced run's patched seams are the ones that execute.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from typing import Any

import repro.cluster
import repro.obs
from repro.agents import messages as M
from repro.agents.objects import jsclass
from repro.apps import matmul
from repro.core import JSCodebase, JSObj, JSRegistration

_NAS_KINDS = tuple(
    kind + suffix
    for kind in (M.REPORT_PARAMS, M.REPORT_AGGREGATE, M.PING)
    for suffix in ("", ":reply")
)
_MIGRATE_KINDS = tuple(
    kind + suffix
    for kind in (M.MIGRATE_OUT, M.MIGRATE_IN)
    for suffix in ("", ":reply")
)


@jsclass
class BenchTarget:
    """The remote object every RMI workload talks to."""

    def __init__(self, state: bytes = b"") -> None:
        self.state = state
        self.count = 0

    def ping(self) -> str:
        return "pong"

    def echo(self, value: Any) -> Any:
        return value

    def bump(self) -> int:
        self.count += 1
        return self.count


def runtime_totals(runtime: Any) -> dict[str, float]:
    """Cumulative counters one JRS exposes without any wrapper.
    ``sim_s`` is the simulated time the ops took, ``sim_all_s`` every
    simulated second that elapsed (the same thing, for one runtime)."""
    stats = runtime.transport.stats
    kinds = stats.by_kind
    tracer = runtime.world.tracer
    return {
        "sim_s": runtime.kernel.now(),
        "sim_all_s": runtime.kernel.now(),
        "messages": stats.messages,
        "bytes": stats.bytes_total,
        "dropped": stats.dropped,
        "nas_messages": sum(kinds.get(k, 0) for k in _NAS_KINDS),
        "migrate_messages": sum(kinds.get(k, 0) for k in _MIGRATE_KINDS),
        "obs_events": (len(tracer.events) + tracer.dropped_events
                       if tracer.enabled else 0),
        "processes": len(runtime.kernel.processes),
        "crashes": len(runtime.kernel.crashes),
    }


class Workload:
    """Sizing (class attributes) plus the four hooks the driver calls."""

    name = ""
    #: ops verified by one window / windows per round / planned rounds
    window_ops = 1
    windows = 1
    rounds = 1
    warmup_ops = 50
    #: take a calibration sample between windows (long windows only)
    calibrate_windows = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    @property
    def measured(self) -> int:
        """Leading windows of a round that are measured; the rest are
        issued and verified only."""
        return self.windows

    def run(self, driver: Any) -> None:
        """Set up, then hand the caller's thread to ``driver.go(self)``."""
        raise NotImplementedError

    def window(self, w: int) -> int:
        """Issue window ``w`` of a round; return how many of its ops
        verified."""
        raise NotImplementedError

    def totals(self) -> dict[str, float]:
        """Cumulative counters, keyed like :func:`runtime_totals`."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class _Rmi(Workload):
    """One application on milena, one ``BenchTarget`` on rachel, the
    ``dedicated`` (zero background load) profile."""

    hosts: tuple[str, ...] = ("rachel",)
    with_tracer = False

    def run(self, driver: Any) -> None:
        if self.with_tracer:
            # ambient, the way benchmarks/harness.py::fresh_testbed does
            # it under REPRO_BENCH_METRICS=1: the world adopts it
            repro.obs.set_tracer(repro.obs.Tracer())
        try:
            self.runtime = repro.cluster.vienna_testbed(
                repro.cluster.TestbedConfig(
                    load_profile="dedicated", seed=self.seed
                )
            )
        finally:
            repro.obs.set_tracer(None)
        self.runtime.run_app(self._app, driver, node="milena")

    def _app(self, driver: Any) -> None:
        registration = JSRegistration()
        codebase = JSCodebase()
        codebase.add(BenchTarget)
        codebase.load(list(self.hosts))
        self.obj = JSObj("BenchTarget", self.hosts[0],
                         args=self.constructor_args())
        self.prepare()
        driver.go(self)
        registration.unregister()

    def constructor_args(self) -> list:
        return []

    def prepare(self) -> None:
        pass

    def totals(self) -> dict[str, float]:
        return runtime_totals(self.runtime)

    def close(self) -> None:
        runtime = getattr(self, "runtime", None)
        if runtime is not None:  # None: set-up itself failed
            runtime.kernel.shutdown()


class RmiSync(_Rmi):
    name = "rmi_sync"
    windows = 96
    rounds = 300

    def window(self, w: int) -> int:
        return self.obj.sinvoke("ping") == "pong"


class RmiSyncObs(RmiSync):
    name = "rmi_sync_obs"
    rounds = 150
    with_tracer = True


class RmiAsync(_Rmi):
    name = "rmi_async"
    window_ops = 32
    windows = 3
    rounds = 200

    def window(self, w: int) -> int:
        handles = [self.obj.ainvoke("ping") for _ in range(self.window_ops)]
        return sum(h.get_result() == "pong" for h in handles)


class RmiBatch(_Rmi):
    name = "rmi_batch"
    window_ops = 32
    windows = 16
    rounds = 300

    def window(self, w: int) -> int:
        results = self.obj.minvoke(
            "ping", [None] * self.window_ops
        ).get_results()
        return sum(r == "pong" for r in results)


class RmiPayload(_Rmi):
    name = "rmi_payload"
    windows = 8
    rounds = 250

    def prepare(self) -> None:
        rng = self.rng
        self.payloads = [
            [[rng.random() for _ in range(4096)], rng.randbytes(64 * 1024)]
            for _ in range(self.windows)
        ]

    def window(self, w: int) -> int:
        payload = self.payloads[w]
        return self.obj.sinvoke("echo", [payload]) == payload


class MigrateChurn(_Rmi):
    name = "migrate_churn"
    windows = 32
    rounds = 250
    hosts = ("rachel", "ida", "johanna")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # the seed picks where the rotation starts and which way it turns
        route = list(self.hosts)
        self.rng.shuffle(route)
        self.hosts = tuple(route)

    def constructor_args(self) -> list:
        return [self.rng.randbytes(16 * 1024)]

    def prepare(self) -> None:
        # A second application holding the same handle: its cached
        # location goes stale on every migration (the idiom of
        # tests/test_jrs_migration.py::TestRedirection).
        other = self.runtime.register_app("theresa")
        self.stale = JSObj._from_ref(self.obj.ref, other)
        self._moves = 0
        self._count = 0

    def window(self, w: int) -> int:
        self._moves += 1
        target = self.hosts[self._moves % len(self.hosts)]
        self.obj.migrate(target)
        first = self.obj.sinvoke("bump")
        second = self.stale.sinvoke("bump")
        self._count += 2
        return (
            (first, second) == (self._count - 1, self._count)
            and self.obj.get_node() == target
            and self.stale.get_node() == target
        )


class Fig5Sweep(Workload):
    name = "fig5_sweep"
    windows = 6
    rounds = 8
    warmup_ops = 1
    calibrate_windows = True
    points = tuple(
        (profile, nodes) for profile in ("night", "day")
        for nodes in (4, 8, 13)
    )
    tasks = 250
    #: Only the night half is measured.  A day point's cost, in both
    #: clocks, follows the random background-load trace drawn from the
    #: seed (+-15 % simulated, +-20 % host between seeds); a night point's
    #: repeats to about 1 %.  The day half completes the figure: it is
    #: run and its shape verified.
    measured = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._sweeps = 0
        self._elapsed: dict[tuple[str, int], float] = {}
        self._totals: Counter = Counter()  # summed over the points' runtimes

    def run(self, driver: Any) -> None:
        driver.go(self)

    def window(self, w: int) -> int:
        profile, nodes = point = self.points[w]
        if w == 0:
            self._sweeps += 1
        # Every sweep gets a testbed seed of its own, drawn from the run's:
        # a run samples several "nights", so its medians say less about
        # which seed it was given.
        runtime = repro.cluster.vienna_testbed(
            repro.cluster.TestbedConfig(
                load_profile=profile, seed=self.seed * 64 + self._sweeps)
        )
        try:
            result = runtime.run_app(
                matmul.run_matmul,
                matmul.MatmulConfig(n=1000, nr_nodes=nodes,
                                    real_compute=False),
            )
        finally:
            # Tear-down belongs to the op that made the garbage: parked
            # threads joined, the kernel's reference cycles collected.
            # What survives that is leaked for good (every JSRuntime stays
            # reachable from NULL_SANITIZER.failure_hooks; it shows in
            # peak_rss_mb), so it is frozen: later collections skip it and
            # a point costs the same whether it is the 3rd or the 30th.
            runtime.kernel.shutdown()
            gc.collect()
            gc.freeze()
        self._totals.update(runtime_totals(runtime))
        # what Figure 5 plots is the makespan, not the runtime's whole life
        self._totals["sim_s"] += result.elapsed - runtime.kernel.now()
        self._elapsed[point] = result.elapsed
        merged = (result.nr_tasks == self.tasks
                  and sum(result.tasks_per_host.values()) == self.tasks)
        if point == self.points[-1]:
            return merged and self._figure5_shape()
        return merged

    def _figure5_shape(self) -> bool:
        """Night beats day where compute dominates (4 and 8 nodes); past
        ~10 nodes the per-RMI cost takes over, so 13 nodes are slower
        than 8 and background load stops mattering much."""
        t = self._elapsed
        return (
            len(t) == len(self.points)
            and all(t["night", n] < t["day", n] for n in (4, 8))
            and t["night", 13] > t["night", 8]
            and t["day", 13] > t["night", 8]
        )

    def totals(self) -> dict[str, float]:
        return dict(self._totals)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (RmiSync, RmiAsync, RmiBatch, RmiPayload, RmiSyncObs,
                Fig5Sweep, MigrateChurn)
}
