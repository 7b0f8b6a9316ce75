"""The paper's testbed: 13 non-dedicated Sun workstations in Vienna.

Section 6: Sparcstations 4/110, 10/40, 5/70 and Sun Ultras 1/170, 10/300,
10/440; all Ultras on 100 Mbit/s, everything else on 10 Mbit/s; Solaris 7,
JDK 1.2.1 with JIT.  The exact per-model counts are not given, so we pick
a split that yields 13 machines (7 Ultras + 6 Sparcstations) and document
it here; the benchmark conclusions depend on "a few fast switched Ultras +
several slow shared-Ethernet Sparcs", not on the precise split.

Host names follow the paper's examples ("milena", "rachel") with further
Austrian first names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.agents.nas import NASConfig
from repro.agents.shell import ShellConfig
from repro.cluster.builder import JSRuntime
from repro.kernel import VirtualKernel
from repro.simnet import (
    HostSpec,
    LoadModel,
    SimWorld,
    StochasticLoad,
    build_lan,
    make_host,
)

#: (name, model) for the 13 workstations; Ultras first.
VIENNA_HOSTS: list[tuple[str, str]] = [
    ("milena", "Ultra10/440"),
    ("rachel", "Ultra10/440"),
    ("johanna", "Ultra10/300"),
    ("theresa", "Ultra10/300"),
    ("anton", "Ultra1/170"),
    ("bruno", "Ultra1/170"),
    ("clemens", "Ultra1/170"),
    ("dora", "SS5/70"),
    ("erika", "SS5/70"),
    ("franz", "SS4/110"),
    ("greta", "SS4/110"),
    ("hugo", "SS10/40"),
    ("ida", "SS10/40"),
]

ULTRA_NAMES = [n for n, m in VIENNA_HOSTS if m.startswith("Ultra")]
SPARC_NAMES = [n for n, m in VIENNA_HOSTS if m.startswith("SS")]

#: physical JRS layout: two clusters (by network segment), one site/domain
VIENNA_LAYOUT: dict[str, dict[str, list[str]]] = {
    "vienna": {
        "ultras": list(ULTRA_NAMES),
        "sparcs": list(SPARC_NAMES),
    }
}


@dataclass
class TestbedConfig:
    __test__ = False  # not a pytest class, whatever the name suggests

    #: "day" (machines in interactive use) or "night" (nearly idle) or
    #: "dedicated" (zero external load)
    load_profile: str = "night"
    seed: int = 0
    nas: NASConfig = field(default_factory=NASConfig)
    shell: ShellConfig = field(default_factory=ShellConfig)
    #: extra per-host load overrides
    load_models: dict[str, LoadModel] = field(default_factory=dict)
    pool_policy: str = "available-compute"
    #: when set, the flight recorder writes incident bundles here
    incident_dir: str | None = None


def _load_model_for(
    config: TestbedConfig, world: SimWorld, host: str
) -> LoadModel | None:
    if host in config.load_models:
        return config.load_models[host]
    rng = world.rng.stream(f"load:{host}")
    if config.load_profile == "day":
        return StochasticLoad.day(rng)
    if config.load_profile == "night":
        return StochasticLoad.night(rng)
    if config.load_profile == "dedicated":
        return None
    raise ValueError(f"unknown load profile {config.load_profile!r}")


def vienna_world(
    config: TestbedConfig | None = None, kernel: VirtualKernel | None = None
) -> SimWorld:
    """Build the 13-host simulated world (no JRS yet)."""
    config = config or TestbedConfig()
    world = SimWorld(
        kernel if kernel is not None else VirtualKernel(),
        seed=config.seed,
    )
    fast: list[HostSpec] = []
    slow: list[HostSpec] = []
    loads: dict[str, LoadModel] = {}
    for index, (name, model) in enumerate(VIENNA_HOSTS):
        spec = make_host(name, model, ip_suffix=10 + index)
        (fast if model.startswith("Ultra") else slow).append(spec)
        model_load = _load_model_for(config, world, name)
        if model_load is not None:
            loads[name] = model_load
    build_lan(world, fast_hosts=fast, slow_hosts=slow, load_models=loads)
    return world


def vienna_testbed(
    config: TestbedConfig | None = None,
    kernel: VirtualKernel | None = None,
    mutate_world: Callable[[SimWorld], None] | None = None,
) -> JSRuntime:
    """The full paper testbed: simulated hosts + a started JRS."""
    config = config or TestbedConfig()
    world = vienna_world(config, kernel)
    if mutate_world is not None:
        mutate_world(world)
    runtime = JSRuntime(
        world,
        layout={
            site: {cl: list(hosts) for cl, hosts in clusters.items()}
            for site, clusters in VIENNA_LAYOUT.items()
        },
        nas_config=config.nas,
        shell_config=config.shell,
        pool_policy=config.pool_policy,
        incident_dir=config.incident_dir,
    )
    return runtime.start()
