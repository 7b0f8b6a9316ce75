"""Tests for system-parameter sampling, aggregation and history."""

import pytest

from repro.simnet import ConstantLoad, Machine, make_host
from repro.sysmon import (
    MIXED,
    SampleHistory,
    SysParam,
    WeightedSnapshot,
    average_snapshots,
    get_param,
    sample_all,
    sample_dynamic,
    sample_static,
)
from repro.sysmon.history import DEPTH
from repro.sysmon.params import ParamKind


def machine(load=0.0, model="Ultra10/440", name="m1"):
    return Machine(spec=make_host(name, model), load_model=ConstantLoad(load))


class TestParamVocabulary:
    def test_at_least_forty_params(self):
        assert len(SysParam) >= 40

    def test_static_dynamic_partition(self):
        statics = set(SysParam.static_params())
        dynamics = set(SysParam.dynamic_params())
        assert statics | dynamics == set(SysParam)
        assert not statics & dynamics

    def test_paper_examples_exist(self):
        # The constraint example from Section 4.2 uses these five.
        for name in ["NODE_NAME", "CPU_SYS_LOAD", "IDLE", "AVAIL_MEM",
                     "SWAP_SPACE_RATIO"]:
            assert SysParam.by_key(name)

    def test_by_key_accepts_both_spellings(self):
        assert SysParam.by_key("IDLE") is SysParam.IDLE
        assert SysParam.by_key("idle") is SysParam.IDLE

    def test_by_key_unknown(self):
        with pytest.raises(KeyError):
            SysParam.by_key("FLUX_CAPACITOR")

    def test_node_name_is_static_string(self):
        assert SysParam.NODE_NAME.kind is ParamKind.STATIC
        assert not SysParam.NODE_NAME.is_numeric


class TestSampler:
    def test_static_snapshot_matches_spec(self):
        m = machine()
        snap = sample_static(m)
        assert snap[SysParam.NODE_NAME] == "m1"
        assert snap[SysParam.PEAK_MFLOPS] == 60.0
        assert snap[SysParam.OS_NAME] == "SunOS"

    def test_all_params_covered(self):
        snap = sample_all(machine(), 100.0)
        assert set(snap) == set(SysParam)

    def test_idle_reflects_load(self):
        idle_snap = sample_dynamic(machine(0.0), 10.0)
        busy_snap = sample_dynamic(machine(0.8), 10.0)
        assert idle_snap[SysParam.IDLE] > 95.0
        assert busy_snap[SysParam.IDLE] < 25.0

    def test_js_tasks_count_as_load(self):
        m = machine(0.0)
        m.begin_task()
        snap = sample_dynamic(m, 10.0)
        assert snap[SysParam.CPU_LOAD] > 90.0
        assert snap[SysParam.JS_ACTIVE_TASKS] == 1.0

    def test_sampling_deterministic(self):
        snap1 = sample_dynamic(machine(0.3), 42.0)
        snap2 = sample_dynamic(machine(0.3), 42.0)
        assert snap1 == snap2

    def test_avail_mem_positive_and_bounded(self):
        snap = sample_dynamic(machine(0.5), 10.0)
        assert 0 <= snap[SysParam.AVAIL_MEM] <= 256.0

    def test_cpu_split_sums_to_load(self):
        snap = sample_dynamic(machine(0.6), 10.0)
        assert snap[SysParam.CPU_USER_LOAD] + snap[
            SysParam.CPU_SYS_LOAD
        ] == pytest.approx(snap[SysParam.CPU_LOAD])


class TestAggregation:
    def test_numeric_average(self):
        snaps = [sample_all(machine(name=f"m{i}"), 10.0) for i in range(3)]
        snaps[0][SysParam.IDLE] = 90.0
        snaps[1][SysParam.IDLE] = 60.0
        snaps[2][SysParam.IDLE] = 30.0
        agg = average_snapshots(snaps)
        assert agg.params[SysParam.IDLE] == pytest.approx(60.0)
        assert agg.weight == 3

    def test_string_collapse(self):
        snaps = [
            sample_all(machine(name="a"), 1.0),
            sample_all(machine(name="b"), 1.0),
        ]
        agg = average_snapshots(snaps)
        assert agg.params[SysParam.NODE_NAME] == MIXED
        assert agg.params[SysParam.OS_NAME] == "SunOS"  # identical values

    def test_weighted_reaveraging(self):
        # A cluster average standing for 3 nodes combined with 1 node.
        cluster = WeightedSnapshot({SysParam.IDLE: 90.0}, weight=3)
        node = WeightedSnapshot({SysParam.IDLE: 10.0}, weight=1)
        agg = average_snapshots([cluster, node])
        assert agg.params[SysParam.IDLE] == pytest.approx(
            (90 * 3 + 10) / 4
        )
        assert agg.weight == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_snapshots([])

    def test_get_param_by_string(self):
        snap = sample_all(machine(), 5.0)
        assert get_param(snap, "IDLE") == snap[SysParam.IDLE]


class TestHistory:
    def test_latest_is_newest_sample(self):
        hist = SampleHistory()
        hist.record(1.0, {SysParam.IDLE: 90.0})
        hist.record(2.0, {SysParam.IDLE: 50.0})
        assert len(hist) == 2
        assert hist.latest.time == 2.0
        assert hist.latest_value(SysParam.IDLE) == 50.0

    def test_deeper_history(self):
        hist = SampleHistory()
        times = [float(t) for t in range(1, DEPTH + 2)]
        for t in times:
            hist.record(t, {SysParam.IDLE: t * 10})
        assert [s.time for s in hist.window()] == times[1:]

    def test_out_of_order_rejected(self):
        hist = SampleHistory()
        hist.record(5.0, {})
        with pytest.raises(ValueError):
            hist.record(4.0, {})

    def test_empty_lookup(self):
        with pytest.raises(LookupError):
            SampleHistory().latest_value(SysParam.IDLE)

    def test_record_copies(self):
        hist = SampleHistory()
        params = {SysParam.IDLE: 1.0}
        hist.record(0.0, params)
        params[SysParam.IDLE] = 99.0
        assert hist.latest_value(SysParam.IDLE) == 1.0
