"""Tests for the wide-area grid testbed: full Site/Domain hierarchy,
WAN cost structure, cross-site aggregation and locality-tiered
migration."""

import pytest

from repro.agents.nas import NASConfig
from repro.cluster import (
    TestbedConfig,
    grid_testbed,
    grid_world,
    vienna_world,
)
from repro.constraints import JSConstraints
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.simnet import ConstantLoad, StochasticLoad
from repro.sysmon import SysParam
from repro.varch import Domain
from tests.conftest import Echo


@pytest.fixture()
def grid():
    return grid_testbed(
        seed=23,
        load_profile="dedicated",
        nas_config=NASConfig(monitor_period=2.0, probe_period=2.0,
                             failure_timeout=1.0),
    )


class TestGridStructure:
    def test_topology_counts(self, grid):
        assert len(grid.nas.known_hosts()) == 24
        assert set(grid.nas.layout) == {"vienna", "linz", "budapest"}
        assert grid.nas.cluster_of("milena") == "vie-ultras"
        assert grid.nas.site_of("gyula") == "budapest"

    def test_manager_nesting_across_sites(self, grid):
        for site in grid.nas.layout:
            site_mgr = grid.nas.site_manager(site)
            # A site manager manages its site's first cluster.
            cluster = grid.nas.clusters_of_site(site)[0]
            assert grid.nas.cluster_manager(cluster) == site_mgr
        domain_mgr = grid.nas.domain_manager()
        assert domain_mgr == grid.nas.site_manager("vienna")
        # Only a cluster manager is a site or domain manager.
        for site in grid.nas.layout:
            assert grid.nas.is_manager(grid.nas.site_manager(site))
            for cluster in grid.nas.clusters_of_site(site):
                backup = grid.nas.managers[cluster].backups[0]
                assert not grid.nas.is_manager(backup)
        assert grid.nas.is_manager(domain_mgr)

    def test_wan_latency_dominates_cross_site(self, grid):
        topo = grid.world.topology
        local = topo.transfer_time("milena", "rachel", 1000)
        cross = topo.transfer_time("milena", "adel", 1000)
        assert cross > 10 * local  # ~18 ms WAN vs sub-ms LAN

    def test_wan_bandwidth_is_the_bottleneck(self, grid):
        topo = grid.world.topology
        big = topo.transfer_time("milena", "adel", 1_000_000)
        # 1 MB over ~2 Mbit/s x 0.7 efficiency ~ 5.7 s.
        assert big > 4.0


class TestGridMonitoring:
    def test_domain_average_spans_sites(self, grid):
        grid.world.kernel.run(until=12.0)
        domain_avg = grid.nas.domain_average()
        assert domain_avg is not None
        site_avgs = [
            grid.nas.site_average(site)[SysParam.PEAK_MFLOPS]
            for site in grid.nas.layout
        ]
        assert all(v is not None for v in site_avgs)
        # Domain average lies within the span of site averages.
        assert (
            min(site_avgs)
            <= domain_avg[SysParam.PEAK_MFLOPS]
            <= max(site_avgs)
        )

    def test_aggregates_weighted_by_node_count(self, grid):
        grid.world.kernel.run(until=12.0)
        expected = sum(
            grid.world.machine(h).spec.mflops
            for h in grid.nas.known_hosts()
        ) / 24
        measured = grid.nas.domain_average()[SysParam.PEAK_MFLOPS]
        assert measured == pytest.approx(expected, rel=0.01)


class TestGridApplications:
    def test_paper_domain_shape_allocates(self, grid):
        def app():
            reg = JSRegistration()
            domain = Domain([[1, 3, 5], [6, 4]])  # the paper's example
            assert domain.nr_nodes() == 19
            domain.free_domain()
            reg.unregister()

        grid.run_app(app)

    def test_cross_site_invocation_pays_wan(self, grid):
        def app():
            from repro import context

            kernel = context.require().runtime.world.kernel
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Echo); cb.load(["rachel", "adel"])
            local_obj = JSObj("Echo", "rachel")    # same site as home
            remote_obj = JSObj("Echo", "adel")     # budapest

            t0 = kernel.now()
            assert local_obj.sinvoke("echo", ["x"]) == "x"
            local_time = kernel.now() - t0
            t0 = kernel.now()
            assert remote_obj.sinvoke("echo", ["x"]) == "x"
            remote_time = kernel.now() - t0
            reg.unregister()
            return local_time, remote_time

        local_time, remote_time = grid.run_app(app, node="milena")
        assert remote_time > 5 * local_time

    def test_migration_prefers_same_cluster_then_site(self, grid):
        # From johanna (vie-ultras): targets in the same physical
        # cluster rank first, then the same site, then other sites.
        target = grid.choose_migration_target("johanna")
        assert grid.nas.cluster_of(target) == "vie-ultras"
        # Exclude the whole cluster: next tier is the same site.
        vie_ultras = grid.nas.cluster_members("vie-ultras")
        target = grid.choose_migration_target(
            "johanna", exclude=vie_ultras
        )
        assert grid.nas.site_of(target) == "vienna"
        # Exclude all of vienna: ends up on another site.
        vienna_hosts = [
            h for cl in grid.nas.clusters_of_site("vienna")
            for h in grid.nas.cluster_members(cl)
        ]
        target = grid.choose_migration_target(
            "johanna", exclude=vienna_hosts
        )
        assert grid.nas.site_of(target) in ("linz", "budapest")

    def test_constraint_allocation_site_scoped(self, grid):
        def app():
            reg = JSRegistration()
            # Only budapest's bud-fast has Ultra10/440 outside vienna...
            constr = JSConstraints([
                (SysParam.PEAK_MFLOPS, ">=", 55),
                (SysParam.NODE_NAME, "!=", "milena"),
                (SysParam.NODE_NAME, "!=", "rachel"),
            ])
            from repro.varch import Node

            node = Node(constr)
            assert node.hostname == "adel"
            reg.unregister()

        grid.run_app(app)

    def test_site_failure_detection_works_remotely(self, grid):
        grid.world.kernel.run(until=5.0)
        grid.world.fail_host("gyula")
        grid.world.kernel.run(until=grid.world.now() + 15.0)
        assert "gyula" not in grid.nas.cluster_members("bud-slow")


class TestLoadProfiles:
    """Both testbeds read ``load_profile`` by one rule."""

    @pytest.mark.parametrize("build", [
        lambda profile: grid_world(load_profile=profile),
        lambda profile: vienna_world(TestbedConfig(load_profile=profile)),
    ], ids=["grid", "vienna"])
    def test_an_unknown_profile_is_refused(self, build):
        with pytest.raises(ValueError, match="'nite'"):
            build("nite")

    def test_profiles_pick_the_same_kind_of_load_on_both(self):
        for profile, kind in [("night", StochasticLoad),
                              ("day", StochasticLoad),
                              ("dedicated", ConstantLoad)]:
            grid = grid_world(seed=4, load_profile=profile)
            vienna = vienna_world(TestbedConfig(load_profile=profile, seed=4))
            for world in (grid, vienna):
                loads = [m.load_model for m in world.machines.values()]
                assert all(type(load) is kind for load in loads), profile
            # A host both testbeds share draws the same load from its
            # own stream.
            times = (0.0, 15.0, 95.0)
            assert ([grid.machine("rachel").load_model.load_at(t)
                     for t in times]
                    == [vienna.machine("rachel").load_model.load_at(t)
                        for t in times])
