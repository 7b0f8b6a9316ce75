"""Property-based tests on system invariants (hypothesis).

Three invariant families:

1. virtual-architecture structure under random build/free sequences;
2. the migration protocol's "origin always knows the location" invariant
   under random interleavings of migrate/invoke/store;
3. virtual-kernel clock monotonicity and event-count conservation under
   random workloads of sleepers.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ArchitectureError
from repro.kernel import VirtualKernel
from repro.simnet import SimWorld, build_lan, make_host
from repro.varch import Cluster, MonitoredPool, Node

settings.register_profile(
    "invariants",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("invariants")


def make_pool(n_hosts=12):
    world = SimWorld(VirtualKernel(), seed=7)
    build_lan(
        world,
        fast_hosts=[make_host(f"f{i}", "Ultra10/440", i)
                    for i in range(n_hosts // 2)],
        slow_hosts=[make_host(f"s{i}", "SS5/70", 50 + i)
                    for i in range(n_hosts - n_hosts // 2)],
    )
    return MonitoredPool(world)


# ---------------------------------------------------------------------------
# 1. virtual-architecture structure
# ---------------------------------------------------------------------------

va_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 11)),
        st.tuples(st.just("free_idx"), st.integers(0, 11)),
        st.tuples(st.just("free_last"), st.just(0)),
    ),
    max_size=20,
)


class TestArchitectureInvariants:
    @given(ops=va_ops)
    def test_cluster_under_random_ops(self, ops):
        pool = make_pool()
        all_hosts = pool.hosts
        cluster = Cluster(pool=pool)
        alive = []
        for op, arg in ops:
            if op == "add":
                host = all_hosts[arg % len(all_hosts)]
                if host in {n.hostname for n in alive}:
                    with pytest.raises(ArchitectureError):
                        cluster.add_node(Node(host, pool=pool))
                    # That Node acquired the host; allocation refcount
                    # may exceed cluster membership, which is fine.
                    continue
                node = Node(host, pool=pool)
                cluster.add_node(node)
                alive.append(node)
            elif op == "free_idx" and alive:
                index = arg % len(alive)
                victim = cluster.get_node(index % cluster.nr_nodes())
                cluster.free_node(victim)
                alive.remove(victim)
            elif op == "free_last" and alive:
                cluster.free_node(cluster.nr_nodes() - 1)
                alive.pop(
                    next(
                        i for i, n in enumerate(alive)
                        if n.freed
                    )
                )
            # --- invariants after every operation ---
            assert cluster.nr_nodes() == len(alive)
            hosts = cluster.hostnames()
            assert len(hosts) == len(set(hosts))  # no duplicates
            for i in range(cluster.nr_nodes()):
                node = cluster.get_node(i)
                assert not node.freed
                assert node.get_cluster() is cluster  # unique triple
            for node in alive:
                assert node.get_cluster() is cluster

    @given(
        shape=st.lists(
            st.lists(st.integers(1, 3), min_size=1, max_size=3),
            min_size=1, max_size=3,
        )
    )
    def test_domain_counts_consistent(self, shape):
        from repro.errors import AllocationError
        from repro.varch import Domain

        pool = make_pool(12)
        total = sum(sum(site) for site in shape)
        if total > 12:
            with pytest.raises(AllocationError):
                Domain(shape, pool=pool)
            return
        domain = Domain(shape, pool=pool)
        assert domain.nr_sites() == len(shape)
        assert domain.nr_clusters() == sum(len(s) for s in shape)
        assert domain.nr_nodes() == total
        # Every node reachable by index has a consistent unique triple.
        for si in range(domain.nr_sites()):
            site = domain.get_site(si)
            for ci in range(site.nr_clusters()):
                cluster = site.get_cluster(ci)
                for ni in range(cluster.nr_nodes()):
                    node = domain.get_node(si, ci, ni)
                    assert node.get_cluster() is cluster
                    assert node.get_site() is site
                    assert node.get_domain() is domain
        hosts = domain.hostnames()
        assert len(hosts) == len(set(hosts))
        domain.free_domain()
        assert not pool.allocations

    @given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_full_release_returns_all_hosts(self, counts):
        from repro.varch import Site

        pool = make_pool(12)
        if sum(counts) > 12:
            return
        site = Site(counts, pool=pool)
        assert sum(pool.allocations.values()) == sum(counts)
        site.free_site()
        assert not pool.allocations


# ---------------------------------------------------------------------------
# 2. migration-protocol consistency
# ---------------------------------------------------------------------------

migration_ops = st.lists(
    st.one_of(
        st.tuples(st.just("migrate"), st.integers(0, 5)),
        st.tuples(st.just("invoke"), st.integers(0, 100)),
        st.tuples(st.just("store"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


class TestMigrationInvariant:
    @given(ops=migration_ops)
    def test_origin_always_knows_location(self, ops):
        from repro.cluster import TestbedConfig, vienna_testbed
        from repro.core import JSCodebase, JSObj, JSRegistration
        from tests.conftest import Counter  # noqa: F401

        runtime = vienna_testbed(
            TestbedConfig(load_profile="dedicated", seed=11)
        )
        hosts = ["rachel", "johanna", "theresa", "anton", "greta", "ida"]

        def app():
            reg = JSRegistration()
            cb = JSCodebase(); cb.add(Counter); cb.load(hosts)
            obj = JSObj("Counter", hosts[0])
            expected = 0
            # The randomized op sequence deliberately interleaves
            # migrations and synchronous invocations — exercising the
            # worst-case traffic pattern is the property under test.
            for op, arg in ops:
                if op == "migrate":
                    # symlint: disable-next-line=migrate-in-loop
                    obj.migrate(hosts[arg % len(hosts)])
                elif op == "invoke":
                    expected += arg
                    # symlint: disable-next-line=remote-invoke-in-loop
                    obj.sinvoke("incr", [arg])
                else:
                    obj.store()
                # Invariants: the origin's table matches reality; exactly
                # one holder has the instance; state is never lost.
                location = reg.app.refs[obj.obj_id].location
                holder = (
                    reg.app if location == reg.app.addr
                    else runtime.pub_oas[location.host]
                )
                assert obj.obj_id in holder.objects
                holders = [
                    h for h in (
                        [reg.app] + list(runtime.pub_oas.values())
                    )
                    if obj.obj_id in h.objects
                ]
                assert len(holders) == 1
            assert obj.sinvoke("get") == expected
            reg.unregister()

        # Each Hypothesis example builds its own testbed; shut it down so
        # its workers serve the next example instead of staying parked.
        try:
            runtime.run_app(app)
        finally:
            runtime.kernel.shutdown()


# ---------------------------------------------------------------------------
# 3. kernel clock & scheduling
# ---------------------------------------------------------------------------


class TestKernelProperties:
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=20,
        )
    )
    def test_clock_monotone_and_exact(self, durations):
        kernel = VirtualKernel()
        observations = []

        def sleeper(duration):
            kernel.sleep(duration)
            observations.append((duration, kernel.now()))

        for duration in durations:
            kernel.spawn(sleeper, duration)
        kernel.run()
        # Every sleeper woke exactly at its requested time.
        for duration, woke_at in observations:
            assert woke_at == pytest.approx(duration)
        assert kernel.now() == pytest.approx(max(durations))

    @given(
        periods=st.lists(
            st.floats(min_value=0.1, max_value=5.0,
                      allow_nan=False),
            min_size=1, max_size=6,
        ),
        horizon=st.floats(min_value=1.0, max_value=50.0),
    )
    def test_periodic_tick_counts(self, periods, horizon):
        kernel = VirtualKernel()
        counts = [0] * len(periods)

        def ticker(index, period):
            while True:
                kernel.sleep(period)
                counts[index] += 1

        for i, period in enumerate(periods):
            kernel.spawn(ticker, i, period)
        kernel.run(until=horizon)
        for period, count in zip(periods, counts):
            assert count == int(horizon / period) or count == pytest.approx(
                int(horizon / period), abs=1
            )
