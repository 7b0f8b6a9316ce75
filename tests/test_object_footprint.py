"""An object's footprint is measured when its host's memory is read.

A call does not pickle its object to keep ``Machine.js_mem_mb`` current:
it marks the entry's footprint stale, and the host re-measures it at the
next read of its object memory (a NAS sample, a free, a migration).
These tests pin what that saves and that nobody can tell:

* a held remote object's calls pickle only their wire legs: two
  ``dumps`` per ``sinvoke``, two per 32-slot ``minvoke``;
* every NAS sample's memory readings, and the final ``js_mem_mb``, equal
  those of a per-call reference that settles right after every call,
  ``==`` and not approximately, across growth at
  different times, a migration, a free, and sampling periods shorter
  than a call and longer than several;
* a crash-restart forgets a stale footprint along with the object.
"""

from __future__ import annotations

import sys

import pytest

from repro.agents import network_agent
from repro.agents.nas import NASConfig
from repro.agents.objects import ObjectHolder, js_compute, jsclass
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.sysmon import SysParam
from repro.util import serialization
from tests.conftest import Counter

HOST = "johanna"
OTHER = "rachel"
#: NAS periods that stay out of a measured window
QUIET = NASConfig(monitor_period=1000.0, probe_period=1000.0)


@jsclass
class Blob:
    """An object whose pickled size grows when asked; each call takes
    about 0.05-0.15 simulated seconds on the testbed's hosts."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    @js_compute(3e6)
    def grow(self, nbytes: int) -> int:
        self.chunks.append(bytes(nbytes))
        return len(self.chunks)

    @js_compute(3e6)
    def size(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)


def _in_turn(calls) -> list:
    """Run ``(obj, method, args)`` calls one after another, each a
    blocking ``sinvoke``: the programs below are about what happens
    between calls, so each call must end before the next starts."""
    results = []
    for obj, method, args in calls:
        # symlint: disable-next-line=remote-invoke-in-loop
        results.append(obj.sinvoke(method, args))
    return results


def _count_dumps(monkeypatch) -> list:
    """Count calls of ``repro.util.serialization.dumps`` wherever a repro
    module holds it (``from ... import dumps`` made copies), as the
    perfbench ledger does; returns the list each call appends to."""
    raw = serialization.dumps
    calls: list = []

    def counted(value):
        calls.append(type(value).__name__)
        return raw(value)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and module.__dict__.get("dumps") is raw):
            monkeypatch.setattr(module, "dumps", counted)
    return calls


class TestACallPicklesOnlyItsWireLegs:
    def _run(self, monkeypatch, calls_in_window):
        rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3,
                                          nas=QUIET))
        calls = _count_dumps(monkeypatch)
        seen = {}

        def app():
            reg = JSRegistration()
            cb = JSCodebase()
            cb.add(Counter)
            cb.load([HOST])
            obj = JSObj("Counter", HOST)
            assert obj.sinvoke("incr") == 1  # warm-up
            before = len(calls)
            seen["result"] = calls_in_window(obj)
            seen["dumps"] = calls[before:]
            reg.unregister()

        rt.run_app(app)
        return seen

    def test_sinvoke_makes_two_dumps(self, monkeypatch):
        n = 10

        def window(obj):
            return _in_turn([(obj, "incr", None)] * n)

        seen = self._run(monkeypatch, window)
        assert seen["result"] == list(range(2, n + 2))
        # a request and a reply per call, and no measure of the Counter
        assert len(seen["dumps"]) == 2 * n, seen["dumps"]
        assert "Counter" not in seen["dumps"]

    def test_minvoke_of_32_slots_makes_two_dumps(self, monkeypatch):
        def window(obj):
            return obj.minvoke("incr", [[1]] * 32).get_results()

        seen = self._run(monkeypatch, window)
        assert seen["result"] == list(range(2, 34))
        assert len(seen["dumps"]) == 2, seen["dumps"]


# -- the differential against per-call accounting ---------------------------


def _settle_after_every_call(monkeypatch) -> None:
    """The reference, per-call accounting: re-measure right after each
    call.  Reading the host's ``js_mem_mb`` settles the entry the call
    just marked."""
    dispatch = ObjectHolder.dispatch_invoke

    def dispatch_then_settle(self, *args, **kwargs):
        result = dispatch(self, *args, **kwargs)
        self.world.machine(self.addr.host).js_mem_mb
        return result

    monkeypatch.setattr(ObjectHolder, "dispatch_invoke", dispatch_then_settle)


def _record_samples(monkeypatch) -> list:
    """Every NAS sample's memory readings, in sampling order."""
    sample_all = network_agent.sample_all
    samples: list = []

    def recording(machine, t, topology=None):
        snapshot = sample_all(machine, t, topology)
        samples.append((machine.name, t,
                        snapshot[SysParam.AVAIL_MEM],
                        snapshot[SysParam.USED_MEM],
                        snapshot[SysParam.MEM_RATIO]))
        return snapshot

    monkeypatch.setattr(network_agent, "sample_all", recording)
    return samples


def _grow_migrate_free(monitor_period: float, per_call: bool):
    """Two objects on one host grow at different times; one migrates and
    grows on, the other is freed grown.  Returns every NAS sample's
    memory readings, both hosts' final ``js_mem_mb`` and how many
    footprints were measured."""
    with pytest.MonkeyPatch.context() as mp:
        if per_call:
            _settle_after_every_call(mp)
        samples = _record_samples(mp)
        calls = _count_dumps(mp)
        rt = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=3,
            nas=NASConfig(monitor_period=monitor_period)))

        def app():
            reg = JSRegistration()
            cb = JSCodebase()
            cb.add(Blob)
            cb.load([HOST, OTHER])
            a = JSObj("Blob", HOST)
            b = JSObj("Blob", HOST)
            steps = []
            for step in range(12):
                steps.append((a, "grow", [1000 * (step + 1)]))
                if step % 3 == 1:
                    steps.append((b, "grow", [7777]))
                steps.append((b, "size", None))
            _in_turn(steps)
            a.migrate(OTHER)
            _in_turn([(obj, "grow", [size]) for step in range(4)
                      for obj, size in ((a, 3333), (b, 555 * step + 1))])
            b.free()
            assert _in_turn([(a, "grow", [12345]), (a, "size", None)]) == [
                17, 78_000 + 4 * 3333 + 12345]
            reg.unregister()

        rt.run_app(app)
        mem = (rt.world.machine(HOST).js_mem_mb,
               rt.world.machine(OTHER).js_mem_mb)
        return samples, mem, calls.count("Blob")


@pytest.mark.parametrize("monitor_period", [0.02, 2.0])
def test_samples_equal_per_call_accounting(monitor_period):
    samples, mem, measured = _grow_migrate_free(monitor_period, False)
    ref_samples, ref_mem, ref_measured = _grow_migrate_free(
        monitor_period, True)
    assert len(samples) == len(ref_samples) > 10
    hosts = {host for host, *_ in samples}
    assert {HOST, OTHER} <= hosts
    assert samples == ref_samples
    # the reference measured every call
    assert ref_measured >= measured
    if monitor_period < 0.05:
        assert mem == ref_mem == (0.0, 0.0)
    else:
        # Several calls ran between two reads, and one measure stood for
        # them.  The one difference allowed: one ``now - last`` per read
        # instead of a delta per call rounds differently, and the host
        # keeps ~7e-18 MB of it after both objects are gone.
        assert 2 * measured < ref_measured
        assert mem == pytest.approx(ref_mem, rel=0.0, abs=1e-15)


def test_restart_forgets_a_stale_footprint():
    rt = vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3,
                                      nas=QUIET))
    world = rt.world
    seen = {}

    def app():
        JSRegistration()
        cb = JSCodebase()
        cb.add(Blob)
        cb.load([HOST])
        obj = JSObj("Blob", HOST)
        obj.sinvoke("grow", [50_000])
        seen["entry"] = rt.pub_oas[HOST].objects[obj.obj_id]

    rt.run_app(app)
    assert seen["entry"].mem_stale  # grown, not measured since
    world.fail_host(HOST)
    world.restart_host(HOST)
    assert world.machine(HOST).js_mem_mb == 0.0
