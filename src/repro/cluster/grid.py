"""A wide-area testbed: three sites joined by WAN links.

The paper positions virtual architectures for everything "from
small-scale cluster computing to large scale wide-area metacomputing"; a
domain "may define a large computational grid that can be distributed
across several continents".  The Vienna testbed exercises one site; this
grid exercises the full hierarchy: 3 sites (vienna, linz, budapest), 5
physical clusters, 24 hosts, WAN latencies in the tens of milliseconds
and ~2 Mbit/s of long-haul bandwidth (year-2000 academic links).
"""

from __future__ import annotations

from repro.agents.nas import NASConfig
from repro.agents.shell import ShellConfig
from repro.cluster.builder import JSRuntime
from repro.kernel import VirtualKernel
from repro.simnet import (
    LoadModel,
    Segment,
    SimWorld,
    StochasticLoad,
    make_host,
)

#: {site: {cluster: [(host, model), ...]}}
GRID_HOSTS: dict[str, dict[str, list[tuple[str, str]]]] = {
    "vienna": {
        "vie-ultras": [
            ("milena", "Ultra10/440"), ("rachel", "Ultra10/440"),
            ("johanna", "Ultra10/300"), ("theresa", "Ultra10/300"),
        ],
        "vie-sparcs": [
            ("franz", "SS4/110"), ("greta", "SS4/110"),
            ("dora", "SS5/70"), ("erika", "SS5/70"),
        ],
    },
    "linz": {
        "linz-lab": [
            ("alois", "Ultra10/300"), ("berta", "Ultra10/300"),
            ("carl", "Ultra1/170"), ("dagmar", "Ultra1/170"),
            ("edmund", "Ultra1/170"), ("frieda", "SS5/70"),
        ],
    },
    "budapest": {
        "bud-fast": [
            ("adel", "Ultra10/440"), ("bela", "Ultra10/300"),
            ("csilla", "Ultra1/170"), ("denes", "Ultra1/170"),
        ],
        "bud-slow": [
            ("elek", "SS4/110"), ("flora", "SS4/110"),
            ("gyula", "SS10/40"), ("hanna", "SS10/40"),
            ("imre", "SS5/70"), ("julia", "SS5/70"),
        ],
    },
}

#: WAN link latencies between sites (one way, seconds) and shared
#: long-haul bandwidth in Mbit/s.
WAN_LATENCY = {
    ("vienna", "linz"): 0.012,
    ("vienna", "budapest"): 0.018,
    ("linz", "budapest"): 0.025,
}
WAN_MBITS = 2.0


def grid_layout() -> dict[str, dict[str, list[str]]]:
    return {
        site: {cl: [h for h, _ in hosts] for cl, hosts in clusters.items()}
        for site, clusters in GRID_HOSTS.items()
    }


def grid_world(
    seed: int = 0,
    load_profile: str = "night",
    kernel: VirtualKernel | None = None,
    load_models: dict[str, LoadModel] | None = None,
) -> SimWorld:
    world = SimWorld(
        kernel if kernel is not None else VirtualKernel(), seed=seed
    )
    load_models = load_models or {}
    # One LAN segment per physical cluster; fast clusters switched,
    # "slow"/"sparc" clusters on shared 10 Mbit.
    for site, clusters in GRID_HOSTS.items():
        for cluster in clusters:
            shared = "sparc" in cluster or "slow" in cluster
            world.add_segment(Segment(
                f"lan:{cluster}",
                bandwidth_mbits=10.0 if shared else 100.0,
                latency_s=0.001 if shared else 0.0005,
                shared=shared,
            ))
    # A WAN segment per site pair, plus a site backbone joining each
    # site's LANs.
    for site in GRID_HOSTS:
        world.add_segment(Segment(
            f"bb:{site}", bandwidth_mbits=100.0, latency_s=0.0005,
        ))
        for cluster in GRID_HOSTS[site]:
            world.topology.connect_segments(
                f"lan:{cluster}", f"bb:{site}", latency_s=0.0004
            )
    for (a, b), latency in WAN_LATENCY.items():
        world.add_segment(Segment(
            f"wan:{a}-{b}", bandwidth_mbits=WAN_MBITS,
            latency_s=latency, shared=True,
        ))
        world.topology.connect_segments(f"bb:{a}", f"wan:{a}-{b}",
                                        latency_s=0.0)
        world.topology.connect_segments(f"wan:{a}-{b}", f"bb:{b}",
                                        latency_s=0.0)

    ip = 1
    for site, clusters in GRID_HOSTS.items():
        for cluster, hosts in clusters.items():
            for name, model in hosts:
                load: LoadModel | None = load_models.get(name)
                if load is None and load_profile != "dedicated":
                    rng = world.rng.stream(f"load:{name}")
                    load = (
                        StochasticLoad.day(rng)
                        if load_profile == "day"
                        else StochasticLoad.night(rng)
                    )
                world.add_machine(
                    make_host(name, model, ip), f"lan:{cluster}", load
                )
                ip += 1
    return world


def grid_testbed(
    seed: int = 0,
    load_profile: str = "night",
    kernel: VirtualKernel | None = None,
    nas_config: NASConfig | None = None,
    shell_config: ShellConfig | None = None,
) -> JSRuntime:
    """The full wide-area JRS: 24 hosts, 5 clusters, 3 sites, 1 domain."""
    world = grid_world(seed, load_profile, kernel)
    runtime = JSRuntime(
        world,
        layout=grid_layout(),
        nas_config=nas_config,
        shell_config=shell_config,
    )
    return runtime.start()
