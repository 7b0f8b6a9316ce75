"""Command-line interface: regenerate the paper's results directly.

    python -m repro fig5 --n 1000            # one Figure-5 series
    python -m repro matmul --n 128 --nodes 4 --real
    python -m repro testbed                   # show the simulated cluster
    python -m repro grid                      # show the wide-area grid
    python -m repro lint src/repro            # symlint static analysis
    python -m repro trace examples/quickstart.py --json trace.json
    python -m repro spans matmul --critical-path   # span tree + hot chain
    python -m repro top matmul                # per-node top-style frames
    python -m repro san matmul                # symsan concurrency sanitizer
    python -m repro metrics matmul --prom     # merged cluster metrics
    python -m repro metrics matmul --kill greta@3 --incident-dir out/
    python -m repro incidents out/            # render incident bundles
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.matmul import MatmulConfig, run_matmul, sequential_matmul_time
from repro.cluster import TestbedConfig, vienna_testbed
from repro.util.tables import render_table

DEFAULT_NODE_COUNTS = [1, 2, 4, 6, 8, 10, 11, 12, 13]


def _parse_nodes(text: str) -> list[int]:
    try:
        counts = [int(chunk) for chunk in text.split(",") if chunk]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad node list {text!r}; expected e.g. '1,2,4,8'"
        ) from None
    if not counts or any(c < 1 or c > 13 for c in counts):
        raise argparse.ArgumentTypeError("node counts must be in 1..13")
    return counts


def _run_matmul(runtime, args: argparse.Namespace, real: bool):
    """Run the ``matmul`` builtin on ``runtime`` as ``--n``/``--nodes``
    say; ``real`` is whether to really multiply (and verify)."""
    return runtime.run_app(
        lambda: run_matmul(
            MatmulConfig(n=args.n, nr_nodes=args.nodes, real_compute=real)
        )
    )


def _run_target(args: argparse.Namespace, matmul, what: str) -> bool:
    """Run ``args.target``: the 'matmul' builtin through ``matmul()``,
    or any example/benchmark script — the worlds it builds adopt the
    ambient tracer or sanitizer the caller installed.  False (an error
    was printed) if there is no such target."""
    import os
    import runpy

    if args.target == "matmul":
        matmul()
    elif os.path.exists(args.target):
        runpy.run_path(args.target, run_name="__main__")
    else:
        print(f"no such {what} target {args.target!r}; expected a "
              "script path or 'matmul'", file=sys.stderr)
        return False
    return True


def cmd_fig5(args: argparse.Namespace) -> int:
    rows = []
    series: dict[str, dict[int, float]] = {}
    for profile in ("night", "day"):
        series[profile] = {}
        baseline = None
        for nodes in args.nodes:
            runtime = vienna_testbed(
                TestbedConfig(load_profile=profile, seed=args.seed)
            )
            if nodes == 1:
                elapsed = sequential_matmul_time(
                    runtime.world, "milena", args.n
                )
            else:
                elapsed = runtime.run_app(
                    lambda n=nodes: run_matmul(
                        MatmulConfig(n=args.n, nr_nodes=n,
                                     real_compute=False)
                    )
                ).elapsed
            if baseline is None:
                baseline = elapsed
            series[profile][nodes] = elapsed
    for nodes in args.nodes:
        night = series["night"][nodes]
        day = series["day"][nodes]
        rows.append([
            nodes,
            round(night, 1),
            round(series["night"][args.nodes[0]] / night, 2),
            round(day, 1),
            round(series["day"][args.nodes[0]] / day, 2),
        ])
    print(render_table(
        ["nodes", "night time [s]", "night speedup",
         "day time [s]", "day speedup"],
        rows,
        title=(f"Figure 5 | matmul {args.n}x{args.n} on the simulated "
               "Vienna cluster"),
    ))
    return 0


def cmd_matmul(args: argparse.Namespace) -> int:
    runtime = vienna_testbed(
        TestbedConfig(load_profile=args.profile, seed=args.seed)
    )
    result = _run_matmul(runtime, args, args.real)
    print(f"N={result.n} on {result.nr_nodes} nodes "
          f"({args.profile} load)")
    print(f"  nodes       : {', '.join(result.hosts)}")
    print(f"  tasks       : {result.nr_tasks}")
    print(f"  elapsed     : {result.elapsed:.2f} simulated seconds")
    if result.correct is not None:
        print(f"  verified    : {result.correct}")
    print("  tasks/node  : " + ", ".join(
        f"{h}={c}" for h, c in sorted(result.tasks_per_host.items(),
                                      key=lambda kv: -kv[1])
    ))
    return 0 if result.correct in (True, None) else 1


def cmd_testbed(args: argparse.Namespace) -> int:
    runtime = vienna_testbed(TestbedConfig(load_profile="dedicated"))
    rows = []
    for host in runtime.nas.known_hosts():
        spec = runtime.world.machine(host).spec
        cluster = runtime.nas.cluster_of(host)
        role = "manager" if runtime.nas.is_manager(host) else (
            "backup" if runtime.nas.is_backup(host) else "node"
        )
        rows.append([
            host, spec.model, spec.mflops, int(spec.total_mem_mb),
            int(spec.net_mbits), cluster, role,
        ])
    print(render_table(
        ["host", "model", "MFLOPS", "mem MB", "net Mbit", "cluster",
         "role"],
        rows,
        title="The simulated Vienna testbed (13 Sun workstations)",
    ))
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    from repro.cluster import grid_testbed

    runtime = grid_testbed(load_profile="dedicated")
    rows = []
    for site in runtime.nas.layout:
        for cluster in runtime.nas.clusters_of_site(site):
            members = runtime.nas.cluster_members(cluster)
            manager = runtime.nas.cluster_manager(cluster)
            rows.append([
                site, cluster, len(members), manager,
                ", ".join(members),
            ])
    print(render_table(
        ["site", "cluster", "nodes", "manager", "members"],
        rows,
        title="The wide-area grid testbed (3 sites, 24 hosts)",
    ))
    print(f"domain manager: {runtime.nas.domain_manager()}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis import analyze_paths, render_json, render_text
    from repro.analysis.runner import (
        apply_baseline,
        expand_rules,
        known_rules,
        load_baseline,
        render_github,
        render_sarif,
        rule_groups,
        write_baseline,
    )

    if args.list_rules:
        groups = rule_groups()
        owner = {
            rule: name for name, rules in groups.items() for rule in rules
        }
        for rule, severity in sorted(known_rules().items()):
            checker = owner.get(rule, "runner")
            print(f"{rule:32s} {str(severity):8s} [{checker}]")
        return 0
    paths = args.paths
    if not paths:
        # Default to the installed package: lint ourselves.
        paths = [os.path.dirname(os.path.abspath(__file__))]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        # A typo'd path must not silently gate nothing (e.g. in CI).
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    rules = None
    if args.rules:
        tokens = {r.strip() for r in args.rules.split(",") if r.strip()}
        # A token may be a checker name ("locality") selecting that
        # whole pass, or an individual rule id.
        rules, unknown = expand_rules(tokens)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    report = analyze_paths(paths, rules=rules)
    if args.baseline:
        if not os.path.exists(args.baseline) or args.update_baseline:
            count = write_baseline(report, args.baseline)
            print(f"wrote baseline {args.baseline} ({count} findings); "
                  "future runs fail only on new findings")
            return 0
        report = apply_baseline(report, load_baseline(args.baseline))
    if args.format == "json":
        print(render_json(report))
    elif args.format == "github":
        print(render_github(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    if report.errors:
        return 1
    if args.strict and report.findings:
        return 1
    return 0


def _parse_kill(text: str) -> tuple[str, float]:
    host, sep, at = text.partition("@")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"bad --kill spec {text!r}; expected HOST@TIME, e.g. greta@3"
        )
    try:
        return host, float(at)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --kill time in {text!r}; expected a number of "
            "simulated seconds"
        ) from None


def _run_traced(args: argparse.Namespace):
    """Run ``args.target`` (a script path or the 'matmul' builtin) under
    a fresh ambient tracer.  Returns ``(tracer, runtime)`` — the runtime
    only for the matmul builtin — or ``(None, None)`` if the target does
    not exist (an error was already printed)."""
    from repro.obs import Tracer, tracing

    runtime = None

    def matmul() -> None:
        nonlocal runtime
        config = TestbedConfig(
            load_profile=args.profile, seed=args.seed,
            incident_dir=getattr(args, "incident_dir", None),
        )
        kill = getattr(args, "kill", None)
        mutate = None
        if kill is not None:
            host, at = kill
            mutate = lambda w: w.schedule_failure(host, at)
            # A host is about to die mid-run: bound RPC waits and
            # tighten failure detection so the run terminates and
            # the NAS notices the death within the workload.
            if config.shell.rpc_timeout is None:
                config.shell.rpc_timeout = 5.0
            config.nas.monitor_period = 2.0
            config.nas.probe_period = 2.0
            config.nas.failure_timeout = 1.0
        runtime = vienna_testbed(config, mutate_world=mutate)
        period = getattr(args, "monitor_period", None)
        if period:
            runtime.nas.config.monitor_period = period
        try:
            _run_matmul(runtime, args, real=False)
        except Exception as exc:
            if kill is None:
                raise
            # Killed-host runs may not finish; the telemetry and
            # incident bundles captured so far are the point.
            print(f"workload aborted after --kill: {exc}",
                  file=sys.stderr)
        if kill is not None:
            # Keep the world running past the scheduled failure and
            # its NAS detection (probes + release protocol), even if
            # the workload finished first — the flight recorder and
            # the post-mortem heartbeats are the point of --kill.
            horizon = (max(runtime.world.now(), kill[1])
                       + 3.0 * config.nas.probe_period
                       + config.nas.failure_timeout)
            runtime.world.kernel.run(until=horizon)

    with tracing(Tracer()) as tracer:
        if not _run_target(args, matmul, "trace"):
            return None, None
    return tracer, runtime


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_summary, write_chrome_trace

    tracer, _ = _run_traced(args)
    if tracer is None:
        return 2
    if args.json:
        write_chrome_trace(tracer, args.json)
        print(f"wrote {len(tracer.events)} events to {args.json}")
    if not args.no_summary:
        print(render_summary(tracer))
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        critical_path,
        render_critical_path,
        render_span_tree,
        spans_document,
    )

    tracer, _ = _run_traced(args)
    if tracer is None:
        return 2
    print(render_span_tree(tracer))
    if args.critical_path:
        cp = critical_path(tracer)
        if cp is None:
            print("no spans recorded; nothing to extract a critical "
                  "path from", file=sys.stderr)
            return 1
        print()
        print(render_critical_path(cp))
    if args.json:
        doc = spans_document(tracer, with_critical_path=args.critical_path)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {doc['span_count']} spans to {args.json}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import frames_from_trace, render_top

    tracer, _ = _run_traced(args)
    if tracer is None:
        return 2
    frames = frames_from_trace(
        tracer, period=args.period, max_frames=args.frames
    )
    if not frames:
        print("no trace events recorded; nothing to show",
              file=sys.stderr)
        return 1
    print(render_top(frames))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_incident, render_prom
    from repro.obs.timeseries import metrics_document

    tracer, runtime = _run_traced(args)
    if tracer is None:
        return 2
    # a script target leaves no runtime handle: the tracer's registries
    doc = (runtime.metrics_document() if runtime is not None
           else metrics_document(None, tracer))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, default=repr)
        print(f"wrote metrics document ({doc['source']}, "
              f"{len(doc['hosts'])} hosts) to {args.json}",
              file=sys.stderr)
    if args.prom or not args.json:
        sys.stdout.write(render_prom(doc["merged"]))
    if runtime is not None and runtime.flight.incidents:
        print(f"\n{len(runtime.flight.incidents)} incident(s) captured:",
              file=sys.stderr)
        for bundle in runtime.flight.incidents:
            where = bundle.get("path") or "(in memory)"
            print(f"  {bundle['incident_id']}  trigger={bundle['trigger']}"
                  f"  {where}", file=sys.stderr)
        if args.show_incidents:
            for bundle in runtime.flight.incidents:
                print()
                print(render_incident(bundle))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the matmul builtin under a fault plan, reliability layer on
    (unless ``--no-retry``), and report what was injected and whether
    the workload survived.

    Exit code contract mirrors the chaos soak property: 0 when the
    workload completed correctly *or* failed with a typed
    :class:`~repro.errors.JSError` (faults are allowed to lose a run,
    never to corrupt one); 1 on a wrong result or an untyped crash."""
    from repro.agents.shell import ShellConfig
    from repro.chaos import ChaosInjector, FaultPlan
    from repro.errors import JSError
    from repro.obs import Tracer, tracing
    from repro.rmi.reliability import CircuitBreaker, RetryPolicy

    if args.target != "matmul":
        print(f"no such chaos target {args.target!r}; only the 'matmul' "
              "builtin is supported", file=sys.stderr)
        return 2
    if (args.plan is None) == (not args.random):
        print("chaos needs exactly one of --plan SPEC or --random",
              file=sys.stderr)
        return 2
    parsed_plan = None
    if args.plan is not None:
        try:
            parsed_plan = FaultPlan.parse(args.plan)
        except JSError as exc:
            print(f"bad chaos plan: {exc}", file=sys.stderr)
            return 2
    with tracing(Tracer()) as tracer:
        shell = ShellConfig(rpc_timeout=args.rpc_timeout)
        if not args.no_retry:
            shell.retry_policy = RetryPolicy()
            shell.dedup_window = 60.0
            shell.circuit_breaker = CircuitBreaker()
        config = TestbedConfig(
            load_profile=args.profile, seed=args.seed, shell=shell,
            incident_dir=args.incident_dir,
        )
        runtime = vienna_testbed(config)
        if parsed_plan is not None:
            plan = parsed_plan
        else:
            plan = FaultPlan.random_plan(
                args.seed, runtime.world.host_names()
            )
        injector = ChaosInjector(runtime.world, plan).install(
            runtime.transport
        )
        print(f"chaos plan : {plan.describe()}")
        print(f"reliability: "
              f"{'off (--no-retry)' if args.no_retry else 'retries on'}")
        failure: BaseException | None = None
        result = None
        try:
            result = _run_matmul(runtime, args, args.real)
        except JSError as exc:
            failure = exc
        merged = tracer.merged_host_metrics()
        counters = merged.get("counters", merged) if isinstance(
            merged, dict) else {}
        tally = ", ".join(
            f"{fault}={count}"
            for fault, count in sorted(injector.injected.items())
        ) or "(nothing injected)"
        print(f"injected   : {tally}")
        for counter in ("rpc.retries", "rpc.dedup.hits", "rpc.timeouts"):
            value = counters.get(counter)
            if value:
                print(f"  {counter:<14s}: {value}")
        if runtime.flight.incidents:
            print(f"incidents  : {len(runtime.flight.incidents)} captured"
                  + (f" in {args.incident_dir}" if args.incident_dir
                     else " (in memory)"))
        if failure is not None:
            print(f"workload   : FAILED (typed) "
                  f"{type(failure).__name__}: {failure}")
            return 0
        verified = getattr(result, "correct", None)
        print(f"workload   : completed in {result.elapsed:.2f} simulated "
              f"seconds" + (f", verified={verified}"
                            if verified is not None else ""))
        return 0 if verified in (True, None) else 1


def cmd_incidents(args: argparse.Namespace) -> int:
    import os

    from repro.obs import load_bundle, render_incident

    paths: list[str] = []
    for target in args.bundles:
        if os.path.isdir(target):
            paths.extend(
                os.path.join(target, name)
                for name in sorted(os.listdir(target))
                if name.endswith(".json")
            )
        elif os.path.exists(target):
            paths.append(target)
        else:
            print(f"no such incident bundle {target!r}", file=sys.stderr)
            return 2
    if not paths:
        print("no incident bundles found", file=sys.stderr)
        return 1
    for index, path in enumerate(paths):
        if index:
            print()
        print(render_incident(load_bundle(path),
                              max_events=args.events))
    return 0


def cmd_san(args: argparse.Namespace) -> int:
    from repro.errors import KernelError
    from repro.kernel.virtual import shutdown_all_kernels
    from repro.sanitizer import Sanitizer, sanitizing

    def matmul() -> None:
        runtime = vienna_testbed(
            TestbedConfig(load_profile=args.profile, seed=args.seed)
        )
        _run_matmul(runtime, args, real=False)

    san = Sanitizer(leaks=not args.no_leaks)
    with sanitizing(san):
        try:
            if not _run_target(args, matmul, "sanitize"):
                return 2
        except KernelError as exc:
            # Detector aborts (SanDeadlockError, SimDeadlockError) are
            # already recorded as findings; keep going to the report.
            print(f"run aborted: {exc}", file=sys.stderr)
        finally:
            # Shut surviving kernels down so leak checks run.
            shutdown_all_kernels()
    report = san.report()
    if args.report:
        from repro.analysis.runner import render_json

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))
    for f in report.findings:
        symbol = f" [{f.symbol}]" if f.symbol else ""
        print(f"{f.path}:{f.line}: {f.severity}: {f.rule}: "
              f"{f.message}{symbol}")
    print(f"symsan: {len(report.findings)} findings "
          f"({len(report.errors)} errors)")
    if report.errors:
        return 1
    if args.strict and report.findings:
        return 1
    return 0


#: the ``matmul`` builtin's flags, declared once for every verb that can
#: run it
_MATMUL_FLAGS = {
    "--n": dict(type=int, default=64, help="matmul: matrix dimension"),
    "--nodes": dict(type=int, default=4, help="matmul: node count"),
    "--real": dict(action="store_true",
                   help="really multiply (and verify) the matrices"),
    "--profile": dict(default="night",
                      choices=["dedicated", "night", "day"]),
    "--seed": dict(type=int, default=1),
}


def _add_matmul_flags(
    parser: argparse.ArgumentParser,
    flags: tuple = ("--n", "--nodes", "--profile", "--seed"),
) -> None:
    """Declare ``flags`` on ``parser``, in the order ``--help`` lists
    them."""
    for flag in flags:
        parser.add_argument(flag, **_MATMUL_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PySymphony: reproduce JavaSymphony (CLUSTER 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig5 = sub.add_parser("fig5", help="regenerate a Figure-5 series")
    p_fig5.add_argument("--n", type=int, default=1000,
                        help="matrix dimension (default 1000)")
    p_fig5.add_argument("--nodes", type=_parse_nodes,
                        default=DEFAULT_NODE_COUNTS,
                        help="comma-separated node counts")
    p_fig5.add_argument("--seed", type=int, default=1)
    p_fig5.set_defaults(fn=cmd_fig5)

    p_mm = sub.add_parser("matmul", help="run one matmul configuration")
    p_mm.add_argument("--n", type=int, default=128)
    p_mm.add_argument("--nodes", type=int, default=4)
    _add_matmul_flags(p_mm, ("--profile", "--real", "--seed"))
    p_mm.set_defaults(fn=cmd_matmul)

    p_tb = sub.add_parser("testbed", help="describe the Vienna testbed")
    p_tb.set_defaults(fn=cmd_testbed)

    p_grid = sub.add_parser("grid", help="describe the wide-area grid")
    p_grid.set_defaults(fn=cmd_grid)

    p_lint = sub.add_parser(
        "lint",
        help="run symlint, the PySymphony-aware static analyzer",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the repro package itself)",
    )
    p_lint.add_argument("--format", default="text",
                        choices=["text", "json", "github", "sarif"])
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated rule ids or checker names "
                             "(e.g. 'locality') to report")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too")
    p_lint.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file: written if missing, "
                             "otherwise known findings are filtered out "
                             "and only new ones gate the exit code")
    p_lint.add_argument("--update-baseline", action="store_true",
                        help="rewrite the --baseline file from this run")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print every rule id and severity, then exit")
    p_lint.set_defaults(fn=cmd_lint)

    p_trace = sub.add_parser(
        "trace",
        help="run a script or builtin under the obs tracer",
    )
    p_trace.add_argument(
        "target",
        help="path to an example/benchmark script, or 'matmul'",
    )
    p_trace.add_argument("--json", default=None, metavar="PATH",
                         help="write a Chrome trace_event JSON here")
    p_trace.add_argument("--no-summary", action="store_true",
                         help="suppress the text summary")
    _add_matmul_flags(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_spans = sub.add_parser(
        "spans",
        help="run a script or builtin traced; print the span tree and "
             "optionally the critical path",
    )
    p_spans.add_argument(
        "target",
        help="path to an example/benchmark script, or 'matmul'",
    )
    p_spans.add_argument("--critical-path", action="store_true",
                         help="extract and print the trace critical path")
    p_spans.add_argument("--json", default=None, metavar="PATH",
                         help="write the spans document (JSON) here")
    _add_matmul_flags(p_spans)
    p_spans.set_defaults(fn=cmd_spans)

    p_top = sub.add_parser(
        "top",
        help="run a script or builtin traced; print top-style per-node "
             "frames over simulated time",
    )
    p_top.add_argument(
        "target",
        help="path to an example/benchmark script, or 'matmul'",
    )
    p_top.add_argument("--period", type=float, default=None,
                       help="frame period in simulated seconds "
                            "(default: auto from the trace makespan)")
    p_top.add_argument("--frames", type=int, default=60,
                       help="maximum number of frames (default 60)")
    p_top.add_argument("--monitor-period", type=float, default=0.02,
                       help="matmul: NAS monitor period (s) so idle/mem "
                            "samples land inside short runs; 0 keeps the "
                            "testbed default")
    _add_matmul_flags(p_top)
    p_top.set_defaults(fn=cmd_top)

    p_metrics = sub.add_parser(
        "metrics",
        help="run a script or builtin traced; print the merged cluster "
             "metrics (Prometheus exposition by default)",
    )
    p_metrics.add_argument(
        "target",
        help="path to an example/benchmark script, or 'matmul'",
    )
    p_metrics.add_argument("--prom", action="store_true",
                           help="print Prometheus exposition text "
                                "(the default when --json is not given)")
    p_metrics.add_argument("--json", default=None, metavar="PATH",
                           help="write the full metrics document "
                                "(merged + per-host) as JSON here")
    p_metrics.add_argument("--kill", type=_parse_kill, default=None,
                           metavar="HOST@TIME",
                           help="matmul: fail HOST at TIME simulated "
                                "seconds to exercise the flight recorder")
    p_metrics.add_argument("--incident-dir", default=None, metavar="DIR",
                           help="matmul: write incident bundles here")
    p_metrics.add_argument("--show-incidents", action="store_true",
                           help="also render captured incident bundles")
    p_metrics.add_argument("--monitor-period", type=float, default=0.05,
                           help="matmul: NAS monitor period (s) so "
                                "heartbeat deltas land inside short runs; "
                                "0 keeps the testbed default")
    _add_matmul_flags(p_metrics)
    p_metrics.set_defaults(fn=cmd_metrics)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a builtin under seeded fault injection with the "
             "reliable-RMI layer enabled",
    )
    p_chaos.add_argument("target", help="the 'matmul' builtin")
    p_chaos.add_argument("--plan", default=None, metavar="SPEC",
                         help="fault plan spec, e.g. "
                              "'drop:p=0.1; stall:host=bruno,at=2,dur=5'")
    p_chaos.add_argument("--random", action="store_true",
                         help="generate a random plan from --seed")
    p_chaos.add_argument("--seed", type=int, default=1,
                         help="world seed AND random-plan seed")
    p_chaos.add_argument("--no-retry", action="store_true",
                         help="disable the reliability layer (show the "
                              "raw fault impact)")
    p_chaos.add_argument("--rpc-timeout", type=float, default=3.0,
                         help="per-RPC reply timeout in simulated "
                              "seconds (default 3)")
    p_chaos.add_argument("--incident-dir", default=None, metavar="DIR",
                         help="write flight-recorder incident bundles "
                              "here")
    # --seed sits further up, with a help text of its own
    _add_matmul_flags(p_chaos, ("--n", "--nodes", "--real", "--profile"))
    p_chaos.set_defaults(fn=cmd_chaos)

    p_inc = sub.add_parser(
        "incidents",
        help="render flight-recorder incident bundles (JSON files or "
             "a directory of them)",
    )
    p_inc.add_argument(
        "bundles", nargs="+",
        help="incident bundle .json files, or directories of them",
    )
    p_inc.add_argument("--events", type=int, default=20,
                       help="trailing ring events to show per bundle")
    p_inc.set_defaults(fn=cmd_incidents)

    p_san = sub.add_parser(
        "san",
        help="run a script or builtin under symsan, the concurrency "
             "sanitizer",
    )
    p_san.add_argument(
        "target",
        help="path to an example/benchmark script, or 'matmul'",
    )
    p_san.add_argument("--report", default=None, metavar="PATH",
                       help="write the findings as JSON here")
    p_san.add_argument("--no-leaks", action="store_true",
                       help="disable shutdown leak checks")
    p_san.add_argument("--strict", action="store_true",
                       help="exit non-zero on warnings (leaks) too")
    _add_matmul_flags(p_san)
    p_san.set_defaults(fn=cmd_san)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
