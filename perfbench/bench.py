#!/usr/bin/env python3
"""Dual-clock, per-layer benchmark of PySymphony (see README.md here).

Two ways in, one measurement underneath:

* ``python3 perfbench/bench.py [--workload NAME]... [--seed N] [--json OUT]
  [--trace-out DIR] [--check-repeat]`` runs every (or the named) workload
  with its fixed op count, untraced and traced, verifies outputs and
  prints every metric by name with its unit.
* ``... --workload NAME --seed N --seconds S --trace 0|1`` is the form
  ``BENCHMARK.json`` declares: one workload, time-boxed, ending in one
  JSON line that carries the end-to-end (``--trace 0``) or the per-layer
  (``--trace 1``) metrics.

Every measurement runs in a fresh child interpreter (this same file with
``--child``) pinned to one CPU; the parent never imports ``repro``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # a child's set-up clock starts with its first line

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

from calibrate import UNIT_S, Calibrator  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: seed of the plain invocation; --check-repeat also runs HELD_OUT_SEED
DEFAULT_SEED = 11
HELD_OUT_SEED = 2000
#: fresh set-ups per workload behind the reported (median) ``setup_s``
SETUP_SAMPLES = 5
#: the traced run is this much of the untraced one
TRACED_SHARE = 0.25
#: wall budget of a fixed-size child; a time-boxed one gets its box on top
CHILD_BUDGET_S = 90.0
#: spans kept for ``--trace-out`` (the ledger's sums are never truncated)
KEEP_SPANS = 400_000
#: what the contract line prints for "no measurement" (seam missing, or
#: the metric does not apply to the workload); the report says ``null``
NO_VALUE = -1

#: metrics that must repeat bit-identically for a fixed seed and size
EXACT = frozenset({
    "sim_ms_per_op", "kernel.spawns_per_op", "kernel.threads_per_op",
    "kernel.events_per_op", "kernel.processes_retained",
    "transport.messages_per_op", "transport.bytes_per_op",
    "transport.dropped", "serialization.calls_per_op",
    "holder.invocations_per_op", "holder.redirects_per_op",
    "app_oa.migrate_messages", "rmi.handles_per_op", "rmi.retries",
    "rmi.dedup_hits", "simnet.calls_per_op", "nas.messages_per_sim_s",
    "obs.events_per_op",
})

#: workload whose untraced cost is the ``obs.us_per_op``/``obs.ratio``
#: baseline of another
BASELINE_OF = {"rmi_sync_obs": "rmi_sync"}

_SERIALIZATION_SEAMS = ("sizeof", "deep_copy_via_pickle", "dumps", "loads",
                        "unwrap", "flops_of")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list[float], p: float) -> float | None:
    """The p-quantile, or None unless at least ten samples lie beyond it."""
    if len(values) * (1.0 - p) < 10:
        return None
    return sorted(values)[int(len(values) * p)]


# ---------------------------------------------------------------------------
# child: one workload, one process
# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """VirtualKernel is lock-step - one runnable thread - so one core is
    the honest machine, and hand-offs that hop cores are the noise."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        return 0
    return 1


def _nvcsw() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


def _noop() -> None:
    pass


class Driver:
    """The single closed-loop caller: warms up, then issues rounds of
    identical work, each bracketed by calibration samples."""

    def __init__(self, spec: dict) -> None:
        """Create before anything heavy is imported: set-up is timed from
        the process's first line, minus the calibration done here."""
        self.spec = spec
        self.calibrator = Calibrator()
        self._boot_s = time.perf_counter() - _T0
        self.samples = [self.calibrator.sample() for _ in range(3)]
        self._ready_at = time.perf_counter()
        self.ledger: Any = None
        self.setup_s = 0.0
        #: calibrated cost per op of each round, in reference microseconds
        self.round_us: list[float] = []
        self.op_s: list[float] = []
        self.errors: list[str] = []
        #: ``ops`` are the measured ones; ``attempted``/``ok`` also count
        #: windows a workload issues only to verify (fig5_sweep's day half)
        self.rounds = self.ops = self.attempted = self.ok = 0
        self.wall_s = 0.0
        self.switches = 0
        self.delta: dict[str, float] = {}
        self.peak_rss_mb = 0.0
        self.retained = 0.0
        #: the ledger's growth inside measured rounds only
        self.self_s: list[float] = []
        self.calls: dict[str, int] = {}

    def trace_with(self, ledger: Any) -> None:
        """Make every round and op a ``driver`` span of ``ledger``."""
        self.ledger = ledger
        self.self_s = [0.0] * len(ledger.self_s)
        timed_op = ledger.span(self.op, "driver", "driver:op")

        def op(window: Callable[[int], int], w: int) -> int:
            ledger.op_index += 1
            return timed_op(window, w)

        self.op = op  # type: ignore[method-assign]
        self._round = ledger.span(  # type: ignore[method-assign]
            self._round, "driver", "driver:round")

    # -- the loop ------------------------------------------------------------

    def go(self, workload: Any) -> None:
        for w in range(math.ceil(workload.warmup_ops / workload.window_ops)):
            workload.window(w % workload.windows)
        self.setup_s = self._boot_s + (time.perf_counter() - self._ready_at)
        # calibrated like a round: by the samples before and after it
        self._sample()
        self.setup_s *= UNIT_S / statistics.fmean(self.samples)
        if not self.spec["setup_only"]:
            self._measure(workload)

    def _verified(self, window: Callable[[int], int], w: int) -> int:
        """A raise is a failed window, not a dead benchmark."""
        try:
            return int(window(w))
        except Exception:  # noqa: BLE001 - counted and reported
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc(limit=8))
            return 0

    def op(self, window: Callable[[int], int], w: int) -> int:
        t0 = time.perf_counter()
        ok = self._verified(window, w)
        self.op_s.append(time.perf_counter() - t0)
        return ok

    def _sample(self) -> float:
        ledger = self.ledger
        if ledger is not None:
            ledger.mark()
        sample = self.calibrator.sample()
        if ledger is not None:
            ledger.skip()
        self.samples.append(sample)
        return sample

    def _round(self, workload: Any, c_prev: float):
        """The measured windows of one round.  Returns (ok ops, cost in
        calibration units, wall seconds, voluntary context switches, the
        closing sample)."""
        ok = switches = 0
        units = wall = 0.0
        last = workload.measured - 1
        v0, t0 = _nvcsw(), time.perf_counter()
        for w in range(workload.measured):
            ok += self.op(workload.window, w)
            if w == last or workload.calibrate_windows:
                t1, v1 = time.perf_counter(), _nvcsw()
                c_next = self._sample()
                units += (t1 - t0) / ((c_prev + c_next) / 2.0)
                wall += t1 - t0
                switches += v1 - v0
                c_prev = c_next
                v0, t0 = _nvcsw(), time.perf_counter()
        return ok, units, wall, switches, c_prev

    def _measure(self, workload: Any) -> None:
        spec, ledger = self.spec, self.ledger
        seconds = spec["seconds"]
        if seconds is None:
            planned = spec["rounds"] or workload.rounds
            limit = checkpoint = max(1, round(planned * spec["share"]))
            deadline = math.inf
        else:
            # Memory is compared at a fixed op count, however many rounds
            # the box fits into the time; the run lasts at least that long.
            limit = math.inf
            checkpoint = max(1, workload.rounds // 4)
            deadline = time.perf_counter() + seconds * spec["share"]
        round_ops = workload.measured * workload.window_ops
        c_prev = self.samples[-1]
        while self.rounds < limit and (
                time.perf_counter() < deadline or self.rounds < checkpoint):
            before = workload.totals()
            if ledger is not None:
                ledger.mark()
                self_0, calls_0 = ledger.snapshot()
            ok, units, wall, switches, c_prev = self._round(workload, c_prev)
            if ledger is not None:
                self_1, calls_1 = ledger.snapshot()
                for i, value in enumerate(self_1):
                    self.self_s[i] += value - self_0[i]
                for key, value in calls_1.items():
                    self.calls[key] = (self.calls.get(key, 0)
                                       + value - calls_0.get(key, 0))
            after = workload.totals()
            for key, value in after.items():
                self.delta[key] = (self.delta.get(key, 0.0)
                                   + value - before[key])
            for w in range(workload.measured, workload.windows):
                ok += self._verified(workload.window, w)
            self.rounds += 1
            self.ops += round_ops
            self.attempted += workload.windows * workload.window_ops
            self.ok += ok
            self.round_us.append(units * UNIT_S * 1e6 / round_ops)
            self.wall_s += wall
            self.switches += switches
            if self.rounds == checkpoint:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.retained = after["processes"]


def bare_kernel_unit_s(n: int = 400) -> dict[str, float]:
    """Unit costs of the kernel alone: spawn-and-join of an empty process,
    a ``sleep(0)`` round trip, one scheduled callback."""
    from repro.kernel import VirtualKernel

    kernel = VirtualKernel()
    unit: dict[str, float] = {}

    def main() -> None:
        t0 = time.perf_counter()
        for proc in [kernel.spawn(_noop) for _ in range(n)]:
            proc.join()
        unit["spawn"] = (time.perf_counter() - t0) / n
        t0 = time.perf_counter()
        for _ in range(n):
            kernel.sleep(0.0)
        unit["switch"] = (time.perf_counter() - t0) / n
        t0 = time.perf_counter()
        for _ in range(4 * n):
            kernel.call_soon(_noop)
        kernel.sleep(0.0)  # one switch lets the scheduler drain them
        unit["event"] = (time.perf_counter() - t0 - unit["switch"]) / (4 * n)

    try:
        kernel.run_callable(main)
    finally:
        kernel.shutdown()
    return unit


def untraced_metrics(driver: Driver, workload: Any, pinned: int,
                     ref_s: float) -> dict[str, float | None]:
    """``ref_s`` converts this box's seconds into reference seconds."""
    ops = driver.ops
    op_us = [s * ref_s / workload.window_ops * 1e6 for s in driver.op_s]
    quartiles = statistics.quantiles(driver.samples, n=4)
    unit = bare_kernel_unit_s()
    return {
        "host_us_per_op": statistics.median(driver.round_us),
        "sim_ms_per_op": driver.delta["sim_s"] * 1e3 / ops,
        "peak_rss_mb": driver.peak_rss_mb,
        "kernel.ctx_switches_per_op": driver.switches / ops,
        "kernel.processes_retained": driver.retained,
        "kernel.spawn_unit_us": unit["spawn"] * ref_s * 1e6,
        "kernel.switch_unit_us": unit["switch"] * ref_s * 1e6,
        "kernel.event_unit_us": unit["event"] * ref_s * 1e6,
        "driver.op_us_p50": statistics.median(op_us),
        "driver.op_us_p99": percentile(op_us, 0.99),
        "driver.round_p90": percentile(driver.round_us, 0.90),
        "driver.calib_ms_median": statistics.median(driver.samples) * 1e3,
        "driver.calib_spread": quartiles[2] / quartiles[0],
        "driver.pinned": pinned,
        "driver.failed_share": 1.0 - driver.ok / driver.attempted,
    }


def traced_metrics(driver: Driver, workload: Any, ledger: Any,
                   ref_s: float) -> dict[str, float | None]:
    from ledger import DEDUP_KEY, EVENT_KEY, LAYERS, REDIRECT_KEY

    ops, wall, delta, calls = driver.ops, driver.wall_s, driver.delta, \
        driver.calls
    host = statistics.median(driver.round_us)
    share = {layer: driver.self_s[i] / wall for i, layer in enumerate(LAYERS)}
    sim_all = delta["sim_all_s"]

    def per_op(*keys: str) -> float:
        return sum(calls.get(key, 0) for key in keys) / ops

    def mean_us(key: str) -> float | None:
        """Inclusive mean of a seam over the whole run, set-up included."""
        n = ledger.calls.get(key, 0)
        return ledger.incl_s[key] / n * ref_s * 1e6 if n else None

    migrations = calls.get("app_oa:AppOA.migrate_object", 0)
    metrics: dict[str, float | None] = {
        "kernel.spawns_per_op": per_op("kernel:VirtualKernel.spawn"),
        "kernel.threads_per_op": per_op("kernel:Thread.start"),
        "kernel.events_per_op": per_op(
            "kernel:VirtualKernel.spawn", "kernel:VirtualKernel.call_at",
            "kernel:VirtualKernel.call_soon", EVENT_KEY),
        "kernel.handoff_us_per_op": (1.0 - sum(share.values())) * host,
        "transport.messages_per_op": delta["messages"] / ops,
        "transport.bytes_per_op": delta["bytes"] / ops,
        "transport.dropped": delta["dropped"],
        "serialization.calls_per_op": per_op(
            *(f"serialization:{name}" for name in _SERIALIZATION_SEAMS)),
        "serialization.share": share["serialization"],
        "holder.invocations_per_op": per_op(
            "holder:ObjectHolder.dispatch_invoke"),
        "holder.redirects_per_op": per_op(REDIRECT_KEY),
        "app_oa.migrate_us": mean_us("app_oa:AppOA.migrate_object"),
        "app_oa.migrate_messages": (
            delta["migrate_messages"] / migrations if migrations else None),
        "rmi.handles_per_op": per_op("rmi:ResultHandle.__init__"),
        "rmi.retries": calls.get("rmi:RetryPolicy.backoff", 0),
        "rmi.dedup_hits": calls.get(DEDUP_KEY, 0),
        "simnet.calls_per_op": per_op("simnet:SimWorld.compute",
                                      "simnet:SimWorld.transfer_delay"),
        "nas.messages_per_sim_s": delta["nas_messages"] / sim_all,
        "nas.self_us_per_sim_s": (
            driver.self_s[LAYERS.index("nas")] * ref_s * 1e6 / sim_all),
        "nas.share": share["nas"],
        "cluster.testbed_build_us": mean_us("cluster:vienna_testbed"),
        "cluster.alloc_us": mean_us("cluster:Cluster.__init__"),
        "cluster.classload_us": mean_us("cluster:JSCodebase.load"),
        "cluster.create_us": mean_us("cluster:JSObj.__init__"),
        "obs.events_per_op": delta["obs_events"] / ops,
        "driver.missing_seams": len(ledger.missing),
    }
    for layer in LAYERS[1:]:  # the kernel's own time is the hand-off
        metrics[f"{layer}.self_us_per_op"] = share[layer] * host
    # A layer with a seam gone is undercounted (its time leaks into its
    # callers): say "unknown", never a number.
    for name in metrics:
        if name.split(".")[0] in ledger.missing_layers:
            metrics[name] = None
    return metrics


def child_main(spec: dict) -> dict:
    pinned = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    driver = Driver(spec)

    import workloads  # imports repro: part of set-up

    ledger = None
    if spec["trace"]:
        from ledger import Ledger

        ledger = Ledger(KEEP_SPANS if spec["trace_out"] else 0)
        ledger.install()
        driver.trace_with(ledger)
    workload = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    try:
        workload.run(driver)
        totals = workload.totals()
    finally:
        workload.close()
        driver.calibrator.close()

    doc: dict[str, Any] = {
        "workload": workload.name, "seed": spec["seed"],
        "trace": spec["trace"], "rounds": driver.rounds, "ops": driver.ops,
        "attempted": driver.attempted,
        "failed": driver.attempted - driver.ok, "errors": driver.errors,
        "setup_s": driver.setup_s,
    }
    if spec["setup_only"]:
        return doc
    ref_s = UNIT_S / statistics.median(driver.samples)
    doc["checks"] = {
        "no_crashed_process": totals["crashes"] == 0,
        "no_dropped_message": totals["dropped"] == 0,
    }
    if ledger is None:
        doc["metrics"] = untraced_metrics(driver, workload, pinned, ref_s)
    else:
        doc["metrics"] = traced_metrics(driver, workload, ledger, ref_s)
        doc["traced_host_us_per_op"] = statistics.median(driver.round_us)
        doc["missing_seams"] = ledger.missing
        doc["checks"]["no_retry"] = doc["metrics"]["rmi.retries"] in (0, None)
        if spec["trace_out"]:
            ledger.write_chrome_trace(spec["trace_out"])
    return doc


# ---------------------------------------------------------------------------
# parent: legs, merging, reports
# ---------------------------------------------------------------------------


def run_child(spec: dict) -> dict | None:
    """Run one leg; None when it died or overran its wall budget (the
    caller counts every planned op as failed)."""
    budget = CHILD_BUDGET_S + (spec["seconds"] or 0.0)
    cmd = [sys.executable, str(HERE / "bench.py"), "--child",
           json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=budget, cwd=ROOT, check=False)
    except subprocess.TimeoutExpired:
        print(f"  {spec['workload']}: child killed after {budget:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"  {spec['workload']}: child exited {proc.returncode}\n"
              + proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def measure(name: str, seed: int, *, seconds: float | None,
            rounds: int | None, end_to_end: bool, layers: bool,
            trace_out: str | None, baselines: dict) -> dict:
    """All legs of one workload, merged into one metrics dict.
    ``baselines`` caches full-size untraced legs of this invocation."""
    base_name = BASELINE_OF.get(name) if layers else None
    if end_to_end:  # the untraced leg owns the box, the others ride on top
        share_plain, share_traced, share_base = 1.0, TRACED_SHARE, \
            TRACED_SHARE
    elif base_name:  # per-layer only: the legs split the box
        share_plain, share_traced, share_base = 0.3, 0.45, 0.25
    else:
        share_plain, share_traced, share_base = 0.4, 0.6, 0.0

    def leg(workload: str, **kw: Any) -> dict | None:
        spec = {"workload": workload, "seed": seed, "seconds": seconds,
                "rounds": rounds, "share": 1.0, "trace": False,
                "trace_out": None, "setup_only": False}
        spec.update(kw)
        return run_child(spec)

    out: dict[str, Any] = {"workload": name, "seed": seed, "metrics": {},
                           "attempted": 0, "failed": 0, "errors": [],
                           "checks": {}, "legs": {}, "finished": True}
    metrics = out["metrics"]

    def absorb(kind: str, doc: dict | None) -> bool:
        if doc is None:
            out["finished"] = False
            return False
        out["legs"][kind] = {k: doc[k] for k in ("rounds", "ops")}
        out["attempted"] += doc["attempted"]
        out["failed"] += doc["failed"]
        out["errors"] += doc["errors"]
        out["checks"].update(doc["checks"])
        metrics.update(doc["metrics"])
        return True

    plain = leg(name, share=share_plain)
    alive = absorb("untraced", plain)
    if alive and share_plain == 1.0:
        baselines[name, seed] = plain
    if end_to_end:
        setups = [plain["setup_s"]] if alive else []
        for _ in range(SETUP_SAMPLES - 1):
            doc = leg(name, setup_only=True)
            if doc is not None:
                setups.append(doc["setup_s"])
        metrics["setup_s"] = statistics.median(setups) if setups else None
        out["legs"]["setup_samples"] = setups
    if layers:
        traced = leg(name, share=share_traced, trace=True,
                     trace_out=trace_out)
        if absorb("traced", traced) and alive:
            out["missing_seams"] = traced["missing_seams"]
            metrics["driver.trace_overhead"] = (
                traced["traced_host_us_per_op"]
                / plain["metrics"]["host_us_per_op"])
        metrics["obs.us_per_op"] = metrics["obs.ratio"] = None
        if base_name and alive:
            base = baselines.get((base_name, seed)) or leg(
                base_name, share=share_base)
            if base is not None:
                own = plain["metrics"]["host_us_per_op"]
                ref = base["metrics"]["host_us_per_op"]
                metrics["obs.us_per_op"] = own - ref
                metrics["obs.ratio"] = own / ref
    if not out["finished"]:
        # a leg died or was killed: all its ops count as failed, and how
        # many it had planned is not known here - so everything failed
        out["failed"] = out["attempted"] = max(1, out["attempted"])
    out["correct"] = out["failed"] == 0 and all(out["checks"].values())
    return out


def contract_line(result: dict, declared: list[dict]) -> str:
    metrics = {}
    for entry in declared:
        value = result["metrics"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": NO_VALUE if value is None else value,
            "unit": entry["unit"],
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_report(result: dict, units: dict[str, str]) -> None:
    legs = result["legs"]
    sizes = ", ".join(f"{kind} {leg['ops']} ops / {leg['rounds']} rounds"
                      for kind, leg in legs.items() if isinstance(leg, dict))
    status = "ok" if result["correct"] else "FAILED"
    print(f"\n== {result['workload']}  seed {result['seed']}  [{status}]  "
          f"{sizes}")
    print(f"   failed_share {result['failed']}/{result['attempted']}"
          + ("" if result["finished"] else "  (a child died or was killed)")
          + "".join(f"  {k}={v}" for k, v in result["checks"].items()
                    if not v))
    for error in result["errors"]:
        print("   " + error.replace("\n", "\n   "))
    for name, value in result["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        exact = " [x]" if name in EXACT else ""
        extra = ""
        if name == "host_us_per_op" and value:
            extra = (f"   ({1e6 / value:.0f} ops/s, median of "
                     f"{legs['untraced']['rounds']} rounds)")
        print(f"   {name:<32}{shown:>14} {units.get(name, '')}{exact}{extra}")
    if result.get("missing_seams"):
        print("   missing seams: " + ", ".join(result["missing_seams"]))


def run_set(names: list[str], seed: int, args: argparse.Namespace,
            spec: dict) -> dict[str, dict]:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    baselines: dict = {}
    results = {}
    for name in names:
        trace_out = None
        if args.trace_out:
            os.makedirs(args.trace_out, exist_ok=True)
            trace_out = os.path.join(args.trace_out, f"{name}.trace.json")
        results[name] = measure(
            name, seed, seconds=args.seconds, rounds=args.rounds,
            end_to_end=args.trace != 1, layers=args.trace != 0,
            trace_out=trace_out, baselines=baselines)
        print_report(results[name], units)
    return results


def check_repeat(names: list[str], args: argparse.Namespace,
                 spec: dict) -> int:
    """Same code, two sets (B in reverse order): end-to-end metrics must
    agree within their bounds, exact metrics exactly.  Then one held-out
    seed, to show which exact counts follow the seed at all."""
    print("# set A")
    a = run_set(names, args.seed, args, spec)
    print("\n# set B (reverse order)")
    b = run_set(names[::-1], args.seed, args, spec)
    print("\n# held-out seed")
    held = run_set(names, HELD_OUT_SEED, args, spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = 0
    print("\n# A vs B")
    for name in names:
        ma, mb = a[name]["metrics"], b[name]["metrics"]
        for metric in ma:
            va, vb = ma[metric], mb.get(metric)
            if metric in EXACT:
                if va != vb:
                    bad += 1
                    print(f"  {name} {metric}: {va!r} != {vb!r}  "
                          "(must repeat exactly)")
            elif metric in bounds and va and vb is not None:
                diff = abs(va - vb) / va
                flag = "" if diff <= bounds[metric] else "  EXCEEDS"
                bad += bool(flag)
                print(f"  {name} {metric}: {va:.6g} vs {vb:.6g}  "
                      f"diff {diff:.2%} (bound {bounds[metric]:.0%}){flag}")
        if not (a[name]["correct"] and b[name]["correct"]):
            bad += 1
            print(f"  {name}: outputs failed verification")
    print(f"\n# exact metrics that differ at seed {HELD_OUT_SEED} from seed "
          f"{args.seed} (the seed sets the testbed's heartbeat phases and "
          "load traces, the payload bytes and the migration route)")
    for name in names:
        ma, mh = a[name]["metrics"], held[name]["metrics"]
        moved = [f"{m} {ma[m]!r}->{mh.get(m)!r}" for m in ma
                 if m in EXACT and ma[m] != mh.get(m)]
        print(f"  {name}: " + ("; ".join(moved) or "none"))
    print("\ncheck-repeat: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time-box each workload instead of running "
                             "its fixed op count")
    parser.add_argument("--rounds", type=int,
                        help="override every workload's planned rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract form: one workload, one JSON line "
                             "of end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--trace-out", metavar="DIR")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child_main(json.loads(args.child))), flush=True)
        # Everything is written; tearing down the heap a long run retains
        # (seconds of freeing) would only eat into the caller's time box.
        os._exit(0)

    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    if args.trace is not None and (len(names) != 1 or args.check_repeat):
        parser.error("--trace takes exactly one --workload")
    if args.trace is not None and args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    # Warm the page cache and the bytecode cache once, in a throwaway
    # interpreter, so no child's set_up pays for a cold disk - and fail
    # here, loudly, when the program under test is not there.
    warm = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro"],
        capture_output=True, text=True, check=False)
    if warm.returncode != 0:
        print(f"cannot import repro from {SRC}:\n{warm.stderr[-2000:]}",
              file=sys.stderr)
        return 1

    if args.check_repeat:
        return check_repeat(names, args, spec)
    results = run_set(names, args.seed, args, spec)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "rounds": args.rounds, "workloads": results},
                      fh, indent=1)
            fh.write("\n")
    if args.trace is not None:
        (result,) = results.values()
        if not result["finished"]:
            return 1  # a leg died: there is nothing honest to print
        declared = spec["per_layer" if args.trace else "end_to_end"]
        print(contract_line(result, declared))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
