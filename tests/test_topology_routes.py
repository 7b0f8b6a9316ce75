"""The network cost model, pinned.

Every ordered host pair of the Vienna and grid testbeds: the segments a
transfer crosses and its ``transfer_time`` at three sizes, once idle and
once with one transfer active on every shared segment.  A refactor of
the route lookup must reproduce every delay bit for bit, so the rows are
pinned by their ``repr`` (a sha256 over all of them, plus a readable
prefix), not approximately.
"""

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cluster import TestbedConfig, grid_testbed, vienna_testbed
from repro.errors import TransportError
from repro.simnet import Segment, Topology

SIZES = (0, 1_000, 1_000_000)


def crossed(topo, src, dst):
    """The segments a ``src -> dst`` transfer crosses, in order."""
    segs = topo.begin_transfer(src, dst)
    topo.end_transfer(segs)
    return list(segs)


def _rows(topo, pairs):
    return [
        (src, dst, tuple(seg.name for seg in crossed(topo, src, dst)),
         *(repr(topo.transfer_time(src, dst, n)) for n in SIZES))
        for src, dst in pairs
    ]


def cost_table(world):
    """The idle rows, then the rows with one transfer active on each
    shared segment (every segment is crossed by some host pair)."""
    topo, hosts = world.topology, world.host_names()
    pairs = [(a, b) for a in hosts for b in hosts if a != b]
    idle = _rows(topo, pairs)
    shared = {
        seg.name: seg for src, dst in pairs
        for seg in crossed(topo, src, dst) if seg.shared
    }
    for seg in shared.values():
        seg.active_transfers += 1
    busy = _rows(topo, pairs)
    for seg in shared.values():
        seg.active_transfers -= 1
    return idle, busy


def digest(rows):
    return hashlib.sha256(
        "\n".join(repr(row) for row in rows).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def vienna():
    runtime = vienna_testbed(TestbedConfig(load_profile="dedicated"))
    yield cost_table(runtime.world)
    runtime.world.kernel.shutdown()


@pytest.fixture(scope="module")
def grid():
    runtime = grid_testbed(load_profile="dedicated")
    yield cost_table(runtime.world)
    runtime.world.kernel.shutdown()


def head(rows):
    """The readable part of a pin: the first row, and the first row that
    crosses a different number of segments."""
    hops = len(rows[0][2])
    return [rows[0], next(row for row in rows if len(row[2]) != hops)]


VIENNA_IDLE = "9376563de4dba873a1bcd5c9aff32b74144a3939722260f9b08fb7c7e4566f60"
VIENNA_BUSY = "4ca02e0754a8dd41954a083f2b6a5f31ea100dfe0e5bf48ff8e838c80c7ba7d3"
GRID_IDLE = "63e0fa705cd2f897123ea9dc71ee32b1842f0da739e488a6605dc29e3bf9c6e7"
GRID_BUSY = "155cef0c035a3d914e8cea5d5e8c2098f272c50f5db719fe98cd2392a8dd6e9e"
GRID_ROUTE = ("lan:bud-fast", "bb:budapest", "wan:linz-budapest", "bb:linz",
              "lan:linz-lab")


class TestCostTablePin:
    def test_vienna_idle(self, vienna):
        idle, _ = vienna
        assert len(idle) == 13 * 12
        assert head(idle) == [
            ("anton", "bruno", ("switch-100",),
             "0.0017", "0.0018142857142857142", "0.11598571428571428"),
            ("anton", "dora", ("switch-100", "hub-10"),
             "0.0026", "0.003742857142857143", "1.1454571428571427"),
        ]
        assert digest(idle) == VIENNA_IDLE

    def test_vienna_busy(self, vienna):
        _, busy = vienna
        assert head(busy) == [
            ("anton", "bruno", ("switch-100",),
             "0.0017", "0.0018142857142857142", "0.11598571428571428"),
            ("anton", "dora", ("switch-100", "hub-10"),
             "0.0026", "0.004885714285714286", "2.2883142857142857"),
        ]
        assert digest(busy) == VIENNA_BUSY

    def test_grid_idle(self, grid):
        idle, _ = grid
        assert len(idle) == 24 * 23
        assert head(idle) == [
            ("adel", "alois", GRID_ROUTE, "0.029000000000000005",
             "0.03471428571428572", "5.743285714285714"),
            ("adel", "bela", ("lan:bud-fast",),
             "0.0017", "0.0018142857142857142", "0.11598571428571428"),
        ]
        assert digest(idle) == GRID_IDLE

    def test_grid_busy(self, grid):
        _, busy = grid
        assert head(busy) == [
            ("adel", "alois", GRID_ROUTE, "0.029000000000000005",
             "0.04042857142857143", "11.457571428571429"),
            ("adel", "bela", ("lan:bud-fast",),
             "0.0017", "0.0018142857142857142", "0.11598571428571428"),
        ]
        assert digest(busy) == GRID_BUSY


def islands():
    """Two segments with no link between them, one host on each."""
    topo = Topology()
    topo.add_segment(Segment("east", bandwidth_mbits=100))
    topo.add_segment(Segment("west", bandwidth_mbits=10, shared=True))
    topo.attach_host("e1", "east")
    topo.attach_host("w1", "west")
    return topo


class TestErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda t: t.transfer_time("e1", "w1", 10),
         "no route between segments 'east' and 'west'"),
        (lambda t: t.begin_transfer("w1", "e1"),
         "no route between segments 'west' and 'east'"),
        (lambda t: t.connect_segments("east", "north"),
         "unknown segment 'north'"),
        (lambda t: t.transfer_time("e1", "nowhere", 10),
         "host 'nowhere' not attached"),
    ], ids=["no-route", "no-route-begin", "unknown-segment", "unattached"])
    def test_message(self, call, message):
        with pytest.raises(TransportError) as info:
            call(islands())
        assert str(info.value) == message


class TestGraphEdits:
    def test_segment_connected_after_a_transfer_is_used(self):
        topo = islands()
        with pytest.raises(TransportError):
            topo.transfer_time("e1", "w1", 1_000)
        topo.add_segment(Segment("bridge", bandwidth_mbits=100))
        topo.connect_segments("east", "bridge")
        topo.connect_segments("bridge", "west")
        assert [s.name for s in crossed(topo, "e1", "w1")] == [
            "east", "bridge", "west"]
        assert repr(topo.transfer_time("e1", "w1", 1_000)) == \
            "0.0048428571428571435"
        # A direct link, connected after that transfer, is the next
        # transfer's route.
        topo.connect_segments("east", "west", latency_s=0.002)
        assert [s.name for s in crossed(topo, "e1", "w1")] == [
            "east", "west"]
        assert repr(topo.transfer_time("e1", "w1", 1_000)) == \
            "0.005342857142857142"
        # A host attached later rides the same route.
        topo.attach_host("w2", "west")
        assert [s.name for s in crossed(topo, "e1", "w2")] == [
            "east", "west"]


def test_runtime_does_not_load_networkx():
    """numpy is the runtime's only dependency: importing the package,
    building both testbeds and making a call leaves networkx unloaded."""
    script = textwrap.dedent("""
        import sys

        from repro import jsclass
        from repro.cluster import TestbedConfig, grid_testbed, vienna_testbed
        from repro.core import JSCodebase, JSObj, JSRegistration

        @jsclass
        class Echo:
            def echo(self, value):
                return value

        def app():
            reg = JSRegistration()
            codebase = JSCodebase()
            codebase.add(Echo)
            codebase.load(["adel"])
            answer = JSObj("Echo", "adel").sinvoke("echo", ["x"])
            reg.unregister()
            return answer

        vienna_testbed(TestbedConfig(load_profile="dedicated"))
        grid = grid_testbed(load_profile="dedicated")
        assert grid.run_app(app, node="milena") == "x"
        print(sorted(name for name in sys.modules if "networkx" in name))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
