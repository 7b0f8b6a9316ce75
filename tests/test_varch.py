"""Tests for virtual architectures: pool, node/cluster/site/domain,
manager assignment."""

import pytest

from repro.constraints import JSConstraints
from repro.errors import AllocationError, ArchitectureError
from repro.kernel import VirtualKernel
from repro.simnet import ConstantLoad, SimWorld, build_lan, make_host
from repro.sysmon import SysParam
from repro.varch import (
    Cluster,
    Domain,
    ManagerAssignment,
    MonitoredPool,
    Node,
    Site,
    assign_cluster_managers,
)


def make_world(n_fast=10, n_slow=10, fast_load=0.0, slow_load=0.0):
    world = SimWorld(VirtualKernel(strict=True), seed=42)
    build_lan(
        world,
        fast_hosts=[make_host(f"ultra{i}", "Ultra10/440", i)
                    for i in range(n_fast)],
        slow_hosts=[make_host(f"sparc{i}", "SS4/110", 100 + i)
                    for i in range(n_slow)],
        load_models={
            **{f"ultra{i}": ConstantLoad(fast_load) for i in range(n_fast)},
            **{f"sparc{i}": ConstantLoad(slow_load) for i in range(n_slow)},
        },
    )
    return world


@pytest.fixture()
def pool():
    return MonitoredPool(make_world())


class TestMonitoredPool:
    def test_acquire_prefers_fast_idle_hosts(self, pool):
        hosts = pool.acquire(3)
        assert all(h.startswith("ultra") for h in hosts)

    def test_acquire_named(self, pool):
        assert pool.acquire(name="sparc3") == ["sparc3"]

    def test_acquire_named_unknown(self, pool):
        with pytest.raises(AllocationError):
            pool.acquire(name="cray1")

    def test_acquire_with_constraints(self, pool):
        constr = JSConstraints([(SysParam.PEAK_MFLOPS, "<", 10)])
        hosts = pool.acquire(2, constraints=constr)
        assert all(h.startswith("sparc") for h in hosts)

    def test_unsatisfiable_constraints(self, pool):
        constr = JSConstraints([(SysParam.PEAK_MFLOPS, ">", 10_000)])
        with pytest.raises(AllocationError):
            pool.acquire(1, constraints=constr)

    def test_loaded_hosts_deprioritized(self):
        # Fast hosts fully loaded -> pool should prefer idle slow hosts.
        world = make_world(fast_load=0.95, slow_load=0.0)
        pool = MonitoredPool(world)
        hosts = pool.acquire(3)
        assert all(h.startswith("sparc") for h in hosts)

    def test_failed_host_not_allocated(self, pool):
        pool.world.fail_host("ultra0")
        hosts = pool.acquire(9)
        assert "ultra0" not in hosts

    def test_refcounted_sharing(self, pool):
        pool.acquire(name="ultra1")
        pool.acquire(name="ultra1")
        assert pool.allocations["ultra1"] == 2
        pool.release("ultra1")
        assert pool.allocations["ultra1"] == 1
        pool.release("ultra1")
        assert "ultra1" not in pool.allocations

    def test_release_unallocated_rejected(self, pool):
        with pytest.raises(AllocationError):
            pool.release("ultra1")

    def test_exclude(self, pool):
        hosts = pool.acquire(3, exclude=["ultra0", "ultra1"])
        assert not {"ultra0", "ultra1"} & set(hosts)

    def test_shell_membership(self, pool):
        pool.remove_host("ultra0")
        assert "ultra0" not in pool.hosts
        with pytest.raises(AllocationError):
            pool.acquire(name="ultra0")
        pool.add_host("ultra0")
        assert pool.acquire(name="ultra0") == ["ultra0"]

    def test_min_load_policy(self):
        world = make_world(fast_load=0.5, slow_load=0.0)
        pool = MonitoredPool(world, policy="min-load")
        assert pool.acquire(1)[0].startswith("sparc")


class TestNode:
    def test_node_any(self, pool):
        node = Node(pool=pool)
        assert node.hostname.startswith("ultra")

    def test_node_named(self, pool):
        node = Node("sparc2", pool=pool)
        assert node.hostname == "sparc2"

    def test_node_constrained(self, pool):
        constr = JSConstraints([(SysParam.NODE_NAME, "==", "sparc5")])
        assert Node(constr, pool=pool).hostname == "sparc5"

    def test_node_bad_arg(self, pool):
        with pytest.raises(ArchitectureError):
            Node(3.14, pool=pool)

    def test_implicit_hierarchy(self, pool):
        node = Node(pool=pool)
        cluster = node.get_cluster()
        assert cluster.nr_nodes() == 1
        site = node.get_site()
        domain = node.get_domain()
        assert site.nr_clusters() == 1
        assert domain.nr_sites() == 1
        # The triple is stable.
        assert node.get_cluster() is cluster
        assert node.get_site() is site
        assert node.get_domain() is domain

    def test_free_node(self, pool):
        node = Node("ultra3", pool=pool)
        node.free_node()
        assert node.freed
        assert "ultra3" not in pool.allocations
        with pytest.raises(ArchitectureError):
            node.get_cluster()

    def test_get_sys_param(self, pool):
        node = Node("sparc1", pool=pool)
        assert node.get_sys_param(SysParam.NODE_NAME) == "sparc1"
        assert node.getSysParam("IDLE") > 90.0

    def test_constr_hold(self, pool):
        node = Node("ultra2", pool=pool)
        ok = JSConstraints([(SysParam.IDLE, ">=", 50)])
        bad = JSConstraints([(SysParam.IDLE, "<", 1)])
        assert node.constrHold(ok)
        assert not node.constr_hold(bad)


class TestCluster:
    def test_bulk_allocation(self, pool):
        cluster = Cluster(5, pool=pool)
        assert cluster.nr_nodes() == 5
        hosts = cluster.hostnames()
        assert len(set(hosts)) == 5  # distinct

    def test_indexing(self, pool):
        cluster = Cluster(3, pool=pool)
        assert cluster.get_node(0).hostname == cluster.hostnames()[0]
        with pytest.raises(ArchitectureError):
            cluster.get_node(3)
        with pytest.raises(ArchitectureError):
            cluster.get_node(-1)

    def test_add_individual_nodes(self, pool):
        n1, n2 = Node("ultra1", pool=pool), Node("sparc1", pool=pool)
        cluster = Cluster(pool=pool)
        cluster.add_node(n1)
        cluster.add_node(n2)
        assert cluster.nr_nodes() == 2
        assert n1.get_cluster() is cluster

    def test_node_in_two_clusters_rejected(self, pool):
        node = Node("ultra1", pool=pool)
        c1, c2 = Cluster(pool=pool), Cluster(pool=pool)
        c1.add_node(node)
        with pytest.raises(ArchitectureError):
            c2.add_node(node)

    def test_duplicate_host_rejected(self, pool):
        cluster = Cluster(pool=pool)
        cluster.add_node(Node("ultra1", pool=pool))
        with pytest.raises(ArchitectureError):
            cluster.add_node(Node("ultra1", pool=pool))

    def test_adding_node_dissolves_implicit_cluster(self, pool):
        node = Node("ultra1", pool=pool)
        implicit = node.get_cluster()
        real = Cluster(pool=pool)
        real.add_node(node)
        assert node.get_cluster() is real
        assert implicit.freed

    def test_free_node_by_index_renumbers(self, pool):
        cluster = Cluster(4, pool=pool)
        survivor = cluster.get_node(2).hostname
        cluster.free_node(1)
        assert cluster.nr_nodes() == 3
        assert cluster.get_node(1).hostname == survivor

    def test_free_node_by_object(self, pool):
        cluster = Cluster(3, pool=pool)
        node = cluster.get_node(0)
        cluster.free_node(node)
        assert node.freed
        assert cluster.nr_nodes() == 2

    def test_free_cluster_releases_everything(self, pool):
        cluster = Cluster(4, pool=pool)
        hosts = cluster.hostnames()
        cluster.free_cluster()
        assert cluster.freed
        for host in hosts:
            assert host not in pool.allocations

    def test_aggregate_sys_param_is_average(self, pool):
        c = Cluster(pool=pool)
        c.add_node(Node("ultra0", pool=pool))   # 60 MFLOPS
        c.add_node(Node("sparc0", pool=pool))   # 5.5 MFLOPS
        assert c.get_sys_param(SysParam.PEAK_MFLOPS) == pytest.approx(
            (60 + 5.5) / 2
        )

    def test_operations_after_free_rejected(self, pool):
        cluster = Cluster(2, pool=pool)
        cluster.free_cluster()
        with pytest.raises(ArchitectureError):
            cluster.nr_nodes()
        with pytest.raises(ArchitectureError):
            cluster.free_cluster()


class TestSite:
    def test_paper_shape(self, pool):
        site = Site([2, 4, 5], pool=pool)
        assert site.nr_clusters() == 3
        assert site.nr_nodes() == 11
        assert [c.nr_nodes() for c in site.clusters()] == [2, 4, 5]
        assert len(set(site.hostnames())) == 11

    def test_get_node_two_ways(self, pool):
        site = Site([2, 3], pool=pool)
        assert site.get_node(1, 2) is site.get_cluster(1).get_node(2)

    def test_add_cluster(self, pool):
        c1, c2 = Cluster(2, pool=pool), Cluster(3, pool=pool)
        site = Site(pool=pool)
        site.add_cluster(c1)
        site.add_cluster(c2)
        assert site.nr_clusters() == 2
        assert c1.get_site() is site

    def test_cluster_in_two_sites_rejected(self, pool):
        cluster = Cluster(2, pool=pool)
        s1, s2 = Site(pool=pool), Site(pool=pool)
        s1.add_cluster(cluster)
        with pytest.raises(ArchitectureError):
            s2.add_cluster(cluster)

    def test_free_cluster_by_object_and_index(self, pool):
        site = Site([2, 2, 2], pool=pool)
        c0 = site.get_cluster(0)
        site.free_cluster(c0)
        assert site.nr_clusters() == 2
        site.free_cluster(0)
        assert site.nr_clusters() == 1

    def test_free_site(self, pool):
        site = Site([2, 2], pool=pool)
        hosts = site.hostnames()
        site.free_site()
        assert site.freed
        for host in hosts:
            assert host not in pool.allocations

    def test_bad_shape(self, pool):
        with pytest.raises(ArchitectureError):
            Site([2, 0], pool=pool)
        with pytest.raises(ArchitectureError):
            Site([], pool=pool)


class TestDomain:
    def test_paper_shape(self, pool):
        # The paper's example: {{1,3,5},{6,4}}.
        domain = Domain([[1, 3, 5], [6, 4]], pool=pool)
        assert domain.nr_sites() == 2
        assert domain.nr_clusters() == 5
        assert domain.nr_nodes() == 19
        assert domain.get_site(0).nr_nodes() == 9
        assert domain.get_site(1).nr_nodes() == 10
        assert len(set(domain.hostnames())) == 19

    def test_get_node_three_ways(self, pool):
        domain = Domain([[2, 2], [2]], pool=pool)
        via_chain = domain.get_site(0).get_cluster(1).get_node(0)
        assert domain.get_node(0, 1, 0) is via_chain

    def test_add_site(self, pool):
        s1 = Site([2], pool=pool)
        domain = Domain(pool=pool)
        domain.add_site(s1)
        assert domain.nr_sites() == 1
        assert s1.get_domain() is domain

    def test_free_parts(self, pool):
        domain = Domain([[2, 2], [2]], pool=pool)
        domain.free_node(0, 0, 0)
        assert domain.nr_nodes() == 5
        domain.free_cluster(0, 1)
        assert domain.nr_clusters() == 2
        domain.free_site(1)
        assert domain.nr_sites() == 1

    def test_free_domain(self, pool):
        domain = Domain([[2], [2]], pool=pool)
        domain.free_domain()
        assert domain.freed
        assert not pool.allocations

    def test_not_enough_hosts(self, pool):
        with pytest.raises(AllocationError):
            Domain([[10, 10], [10]], pool=pool)  # pool has 20 hosts


#: (member class, its parent getter, the parent class, the parent's add)
LEVELS = [
    pytest.param(Node, "get_cluster", Cluster, "add_node", id="node-cluster"),
    pytest.param(Cluster, "get_site", Site, "add_cluster", id="cluster-site"),
    pytest.param(Site, "get_domain", Domain, "add_site", id="site-domain"),
]


def holding(level, host, pool):
    """A component of class ``level`` whose one node is ``host``, built
    bottom-up with the levels' ``add`` methods."""
    component = Node(host, pool=pool)
    for outer, add in ((Cluster, "add_node"), (Site, "add_cluster")):
        if isinstance(component, level):
            break
        parent = outer(pool=pool)
        getattr(parent, add)(component)
        component = parent
    return component


class TestOneLevelRules:
    @pytest.mark.parametrize("level, getter, parent_level, add", LEVELS)
    def test_member_leaves_its_implicit_singleton(
        self, pool, level, getter, parent_level, add
    ):
        member = holding(level, "ultra1", pool)
        singleton = getattr(member, getter)()
        target = parent_level(pool=pool)
        getattr(target, add)(member)
        assert getattr(member, getter)() is target
        assert singleton.freed

    @pytest.mark.parametrize("level, getter, parent_level, add", LEVELS)
    def test_refused_add_changes_nothing(
        self, pool, level, getter, parent_level, add
    ):
        # A named host can be acquired twice, so the target can already
        # hold the member's host.
        target = parent_level(pool=pool)
        getattr(target, add)(holding(level, "ultra1", pool))
        member = holding(level, "ultra1", pool)
        singleton = getattr(member, getter)()
        with pytest.raises(ArchitectureError):
            getattr(target, add)(member)
        assert getattr(member, getter)() is singleton
        assert not singleton.freed


class TestManagers:
    def test_cluster_assignment(self):
        a = assign_cluster_managers(["a", "b", "c", "d"])
        assert a.manager == "a"
        assert a.backups == ["b", "c"]

    def test_successor_on_manager_failure(self):
        a = ManagerAssignment("a", ["b", "c"])
        b = a.successor()
        assert b.manager == "b"
        assert b.backups == ["c"]

    def test_no_backup_left(self):
        with pytest.raises(ArchitectureError):
            ManagerAssignment("a", []).successor()

    def test_without_non_manager(self):
        a = ManagerAssignment("a", ["b", "c"])
        assert a.without("b").backups == ["c"]
        assert a.without("b").manager == "a"

    def test_without_manager_is_takeover(self):
        a = ManagerAssignment("a", ["b"])
        assert a.without("a").manager == "b"

    def test_empty_cluster_rejected(self):
        with pytest.raises(ArchitectureError):
            assign_cluster_managers([])
