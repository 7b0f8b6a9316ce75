"""Every single message fault against one migrating program.

The program (ROADMAP item 12's program (i)) creates a ``Counter`` on
rachel, calls ``incr``, migrates it to johanna and calls ``incr`` three
more times.  Then it waits 20 simulated seconds, so that every delayed
or duplicated message has landed, unregisters, and the world runs 30
more seconds.  The setup is the vienna testbed, dedicated load, seed 3,
``rpc_timeout=3.0``, under both ``reliable`` settings.

A fault is one clause, ``<fault>:p=1,kinds=<kind>,stage=<stage>,max=1``:
the first message of that kind and leg is dropped, delivered twice (the
copy up to 2 s late) or delayed past the timeout (2.5-7.5 s).  A run
passes when:

* at most one holder has the object live (held and not mid-migration)
  once the program's steps are over;
* no holder has it after ``unregister``;
* every step that failed raised a typed error (a ``JSError``);
* the clause injected a fault: a clause that matched nothing proves
  nothing, so it is reported as a failure, not counted as a pass.

Run it as a script to sweep every (kind, stage) the program sends::

    PYTHONPATH=src python -m tests.fault_sweep

It prints one line per run and exits 1 if any run fails.
``tests/test_fault_sweep.py`` runs the object protocol's kinds in
tier-1.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.agents.shell import ShellConfig
from repro.chaos import ChaosInjector, FaultPlan
from repro.cluster import TestbedConfig, vienna_testbed
from repro.core import JSCodebase, JSObj, JSRegistration
from repro.errors import JSError
from repro.kernel.virtual import shutdown_all_kernels
from repro.obs import Tracer, tracing
from tests.conftest import Counter  # noqa: F401 - registers the class

#: fault name -> the clause options beyond p, kinds, stage and max
FAULTS = {
    "drop": "",
    "duplicate": ",delay=2",
    "delay": ",delay=5",
}
STAGES = ("request", "reply")
SETTLE_S = 20.0
QUIET_S = 30.0


def clause(fault: str, kind: str, stage: str) -> str:
    return f"{fault}:p=1,kinds={kind},stage={stage},max=1{FAULTS[fault]}"


def live_copies(runtime, obj_id: str) -> list[str]:
    """Every holder, PubOA or AppOA, that holds ``obj_id`` and is not
    migrating it."""
    holders = list(runtime.pub_oas.values()) + list(runtime.apps.values())
    return sorted(
        str(h.addr) for h in holders
        if obj_id in h.objects and not h.objects[obj_id].migrating
    )


@dataclass
class Run:
    plan: str
    reliable: bool
    injected: dict = field(default_factory=dict)
    #: step -> the error it raised (class name), for steps that failed
    errors: dict = field(default_factory=dict)
    untyped: list = field(default_factory=list)
    settled: list = field(default_factory=list)
    after: list = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        found = []
        if not self.injected:
            found.append("the clause injected nothing")
        if len(self.settled) > 1:
            found.append(f"{len(self.settled)} live copies {self.settled}")
        if self.after:
            found.append(f"orphan after unregister {self.after}")
        if self.untyped:
            found.append(f"untyped errors {self.untyped}")
        return found

    def line(self) -> str:
        verdict = "; ".join(self.violations) or "ok"
        errors = ",".join(f"{k}={v}" for k, v in self.errors.items())
        return (f"reliable={int(self.reliable)} {self.plan:<58} "
                f"errors=[{errors}] {verdict}")


def make_testbed(reliable: bool):
    return vienna_testbed(TestbedConfig(
        load_profile="dedicated", seed=3,
        shell=ShellConfig(rpc_timeout=3.0, reliable=reliable),
    ))


def _program(run: Run, runtime, seen: dict) -> None:
    def step(name, fn):
        try:
            return fn()
        except JSError as exc:
            run.errors[name] = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - the verdict
            run.untyped.append(f"{name}: {exc!r}")
        return None

    reg = JSRegistration()
    codebase = JSCodebase()
    codebase.add(Counter)
    step("load", lambda: codebase.load(["rachel", "johanna"]))
    obj = step("create", lambda: JSObj("Counter", "rachel"))
    if obj is not None:
        seen["obj_id"] = obj.obj_id
        step("incr", lambda: obj.sinvoke("incr"))
        step("migrate", lambda: obj.migrate("johanna"))
        for n in range(3):
            step(f"incr{n + 2}", lambda: obj.sinvoke("incr"))
    else:
        # The create failed in the caller; its id is the next one minted.
        seen["obj_id"] = f"{reg.app.app_id}:obj-1"
    runtime.world.kernel.sleep(SETTLE_S)
    run.settled = live_copies(runtime, seen["obj_id"])
    step("unregister", reg.unregister)


def run_one(plan: str, reliable: bool) -> Run:
    """Run the program under ``plan`` and return its verdict."""
    run = Run(plan, reliable)
    seen: dict = {}
    try:
        runtime = make_testbed(reliable)
        injector = ChaosInjector(runtime.world, FaultPlan.parse(plan))
        injector.install(runtime.transport)
        runtime.run_app(_program, run, runtime, seen)
        runtime.world.kernel.run(until=runtime.world.now() + QUIET_S)
        run.injected = dict(injector.injected)
        run.after = live_copies(runtime, seen["obj_id"])
    finally:
        shutdown_all_kernels()
    return run


def sent_legs() -> list[tuple[str, str]]:
    """The (kind, stage) of every leg the fault-free program sends."""
    legs = set()
    try:
        with tracing(Tracer()) as tracer:
            runtime = make_testbed(reliable=False)
            runtime.run_app(_program, Run("", False), runtime, {})
            runtime.world.kernel.run(until=runtime.world.now() + QUIET_S)
        for event in tracer.events_of("rpc.request"):
            legs.add((event.fields["kind"], "request"))
        for event in tracer.events_of("rpc.reply"):
            legs.add((event.fields["kind"].removesuffix(":reply"), "reply"))
    finally:
        shutdown_all_kernels()
    return sorted(legs)


def main() -> int:
    failed = 0
    for kind, stage in sent_legs():
        for fault in FAULTS:
            for reliable in (False, True):
                run = run_one(clause(fault, kind, stage), reliable)
                failed += bool(run.violations)
                print(run.line(), flush=True)
    print(f"{failed} failing runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
