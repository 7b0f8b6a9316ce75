"""Property-based tests on infrastructure invariants: topology cost
model, pool accounting, snapshot aggregation."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import AllocationError
from repro.kernel import VirtualKernel
from repro.simnet import Segment, SimWorld, Topology, build_lan, make_host
from repro.sysmon import MIXED, SysParam, WeightedSnapshot, average_snapshots
from repro.varch import MonitoredPool

settings.register_profile(
    "infra",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("infra")


def build_topology():
    topo = Topology()
    topo.add_segment(Segment("a", bandwidth_mbits=100, shared=False))
    topo.add_segment(Segment("b", bandwidth_mbits=10, shared=True))
    topo.add_segment(Segment("c", bandwidth_mbits=2, shared=True,
                             latency_s=0.02))
    topo.connect_segments("a", "b", latency_s=0.0004)
    topo.connect_segments("b", "c", latency_s=0.001)
    for host, seg in [("h1", "a"), ("h2", "a"), ("h3", "b"),
                      ("h4", "b"), ("h5", "c")]:
        topo.attach_host(host, seg)
    return topo


HOSTS = ["h1", "h2", "h3", "h4", "h5"]


class TestTopologyProperties:
    @given(
        src=st.sampled_from(HOSTS),
        dst=st.sampled_from(HOSTS),
        nbytes=st.integers(0, 10**8),
    )
    def test_symmetry(self, src, dst, nbytes):
        topo = build_topology()
        assert topo.transfer_time(src, dst, nbytes) == pytest.approx(
            topo.transfer_time(dst, src, nbytes)
        )

    @given(
        src=st.sampled_from(HOSTS),
        dst=st.sampled_from(HOSTS),
        small=st.integers(0, 10**7),
        extra=st.integers(1, 10**7),
    )
    def test_monotone_in_bytes(self, src, dst, small, extra):
        topo = build_topology()
        assert topo.transfer_time(src, dst, small + extra) > \
            topo.transfer_time(src, dst, small) - 1e-12

    @given(
        src=st.sampled_from(HOSTS),
        dst=st.sampled_from(HOSTS),
        nbytes=st.integers(0, 10**7),
    )
    def test_positive_and_at_least_overhead(self, src, dst, nbytes):
        topo = build_topology()
        assert topo.transfer_time(src, dst, nbytes) >= topo.sw_overhead

    @given(
        src=st.sampled_from(HOSTS),
        dst=st.sampled_from(HOSTS),
    )
    def test_contention_never_speeds_up(self, src, dst):
        topo = build_topology()
        base = topo.transfer_time(src, dst, 1_000_000)
        segs = topo.begin_transfer("h3", "h4")
        contended = topo.transfer_time(src, dst, 1_000_000)
        topo.end_transfer(segs)
        assert contended >= base - 1e-12


def make_pool():
    world = SimWorld(VirtualKernel(), seed=13)
    build_lan(
        world,
        fast_hosts=[make_host(f"f{i}", "Ultra10/440", i)
                    for i in range(5)],
        slow_hosts=[make_host(f"s{i}", "SS5/70", 20 + i)
                    for i in range(5)],
    )
    return MonitoredPool(world)


pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), st.integers(1, 4)),
        st.tuples(st.just("named"), st.integers(0, 9)),
        st.tuples(st.just("release"), st.integers(0, 9)),
    ),
    max_size=25,
)


class TestPoolProperties:
    @given(ops=pool_ops)
    def test_refcount_conservation(self, ops):
        pool = make_pool()
        all_hosts = pool.hosts
        live: dict[str, int] = {}
        for op, arg in ops:
            if op == "acquire":
                try:
                    for host in pool.acquire(arg):
                        live[host] = live.get(host, 0) + 1
                except AllocationError:
                    pass
            elif op == "named":
                host = all_hosts[arg]
                pool.acquire(name=host)
                live[host] = live.get(host, 0) + 1
            else:
                host = all_hosts[arg]
                if live.get(host, 0) > 0:
                    pool.release(host)
                    live[host] -= 1
                    if live[host] == 0:
                        del live[host]
                else:
                    with pytest.raises(AllocationError):
                        pool.release(host)
            assert pool.allocations == live

    @given(count=st.integers(1, 10))
    def test_acquire_returns_distinct_alive_hosts(self, count):
        pool = make_pool()
        hosts = pool.acquire(count)
        assert len(hosts) == len(set(hosts)) == count
        assert set(hosts) <= set(pool.hosts)

    @given(counts=st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_grouped_allocation_disjoint(self, counts):
        pool = make_pool()
        if sum(counts) > 10:
            with pytest.raises(AllocationError):
                pool.acquire_grouped(counts)
            return
        groups = pool.acquire_grouped(counts)
        flat = [h for g in groups for h in g]
        assert len(flat) == len(set(flat)) == sum(counts)
        assert [len(g) for g in groups] == counts


class TestAggregationProperties:
    @given(
        values=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=1, max_size=10
        ),
        weights=st.lists(st.integers(1, 5), min_size=1, max_size=10),
    )
    def test_weighted_average_bounded(self, values, weights):
        n = min(len(values), len(weights))
        snaps = [
            WeightedSnapshot({SysParam.IDLE: values[i]}, weights[i])
            for i in range(n)
        ]
        agg = average_snapshots(snaps)
        assert min(values[:n]) - 1e-9 <= agg.params[SysParam.IDLE] \
            <= max(values[:n]) + 1e-9
        assert agg.weight == sum(weights[:n])

    @given(
        values=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=2, max_size=12
        )
    )
    def test_hierarchical_equals_flat_average(self, values):
        """Averaging in two stages (cluster -> site) must equal one flat
        weighted average — the correctness of the paper's cascade."""
        mid = len(values) // 2
        left = [WeightedSnapshot({SysParam.IDLE: v}) for v in values[:mid]]
        right = [WeightedSnapshot({SysParam.IDLE: v}) for v in values[mid:]]
        stages = [g for g in (left, right) if g]
        two_stage = average_snapshots(
            [average_snapshots(group) for group in stages]
        )
        flat = average_snapshots(
            [WeightedSnapshot({SysParam.IDLE: v}) for v in values]
        )
        assert two_stage.params[SysParam.IDLE] == pytest.approx(
            flat.params[SysParam.IDLE]
        )
        assert two_stage.weight == flat.weight


def _average_snapshots_before(snapshots):
    """``average_snapshots`` as it was when it iterated a ``set`` of
    parameters (verbatim but for the name): the reference the current
    one must match value for value."""
    weighted: list[WeightedSnapshot] = [
        s if isinstance(s, WeightedSnapshot) else WeightedSnapshot(s)
        for s in snapshots
    ]
    if not weighted:
        raise ValueError("cannot average zero snapshots")
    total_weight = sum(w.weight for w in weighted)
    result = {}
    all_params: set[SysParam] = set()
    for w in weighted:
        all_params.update(w.params)
    for param in all_params:
        present = [w for w in weighted if param in w.params]
        if not present:
            continue
        if param.is_numeric:
            weight = sum(w.weight for w in present)
            total = sum(
                float(w.params[param]) * w.weight for w in present
            )
            result[param] = total / weight
        else:
            values = {w.params[param] for w in present}
            result[param] = values.pop() if len(values) == 1 else MIXED
    return WeightedSnapshot(params=result, weight=total_weight)


_AVERAGED = [SysParam.IDLE, SysParam.CPU_LOAD, SysParam.PEAK_MFLOPS,
             SysParam.NET_PACKETS_IN, SysParam.NODE_NAME, SysParam.OS_NAME]


def _values(param):
    if param.is_numeric:
        return st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                         st.integers(0, 10**6))
    return st.sampled_from(["SunOS", "Linux", MIXED])


@st.composite
def snapshot_lists(draw):
    """1-6 snapshots, plain or weighted: either all holding the same
    parameters in one order (full samples, as the NAS sends) or each
    holding its own subset in its own order."""
    count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        orders = [draw(st.permutations(_AVERAGED))] * count
    else:
        orders = [draw(st.lists(st.sampled_from(_AVERAGED), unique=True))
                  for _ in range(count)]
    snapshots = []
    for order in orders:
        params = {param: draw(_values(param)) for param in order}
        weight = draw(st.integers(1, 5))
        if weight == 1 and draw(st.booleans()):
            snapshots.append(params)
        else:
            snapshots.append(WeightedSnapshot(params, weight))
    return snapshots


class TestAverageMatchesReference:
    @given(snapshots=snapshot_lists())
    def test_same_values_in_first_seen_order(self, snapshots):
        got = average_snapshots(snapshots)
        want = _average_snapshots_before(snapshots)
        assert got.weight == want.weight
        assert set(got.params) == set(want.params)
        for param, value in want.params.items():
            assert type(got.params[param]) is type(value)
            assert repr(got.params[param]) == repr(value), param
        held = [s.params if isinstance(s, WeightedSnapshot) else s
                for s in snapshots]
        first_seen = list(dict.fromkeys(p for params in held for p in params))
        assert list(got.params) == first_seen
