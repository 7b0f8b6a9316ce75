"""Import-and-symbols smoke: the package's public surface, pinned.

Each list below is what a user (or a script, or a CI step) can name:
the package exports, the kernel, obs, rmi, analysis and varch exports,
the public methods of the runtime classes an application calls, the
settable values (config dataclass fields and the runtime constructors'
parameters), the lint rule ids and groups, the symsan rule ids and the
CLI verbs.
A deletion that drops one of them must edit this file too, so a removal
is always deliberate and visible in the diff, never a side effect; a
new knob shows up here the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect

import pytest

REPRO_ALL = [
    "ClassRegistry", "Cluster", "Domain", "HostGroup", "JS", "JSCodebase",
    "JSConstants", "JSConstraints", "JSError", "JSObj", "JSRegistration",
    "JSRuntime", "JSStatic", "MultiHandle", "Node", "Payload",
    "PersistentStore", "ResultHandle", "SimWorld", "Site",
    "SysParam", "TestbedConfig", "Tracer", "VirtualKernel", "__version__",
    "current_tracer", "js_compute", "jsclass", "minvoke", "tracing",
    "vienna_testbed", "vienna_world",
]

KERNEL_ALL = ["ProcessState", "RngStreams", "VirtualKernel"]

OBS_ALL = [
    "DEFAULT_RULES", "FlightRecorder",
    "Histogram", "Metrics", "NULL_TRACER",
    "NullTracer", "OpenSpan", "SLORule", "SLOWatcher", "TopFrame",
    "TraceContext", "TraceEvent", "Tracer",
    "current_context", "current_tracer", "events", "frames_from_trace",
    "load_bundle", "merge_snapshots", "parse_rule",
    "render_critical_path", "render_incident", "render_prom",
    "render_span_tree", "render_summary", "render_top", "render_top_frame",
    "set_tracer", "snapshot_document", "spans_document",
    "to_chrome_trace", "tracing", "write_chrome_trace",
]

ANALYSIS_ALL = [
    "Checker", "Finding", "LocalityChecker", "Module", "Project", "Report",
    "Severity", "analyze_paths", "default_checkers", "render_json",
    "render_sarif", "render_text",
]

VARCH_ALL = [
    "Cluster", "Domain", "ManagerAssignment", "MonitoredPool", "Node",
    "ResourcePool", "Site", "VAComponent", "assign_cluster_managers",
]

RMI_ALL = [
    "CircuitBreaker", "MultiHandle", "ResultHandle", "RetryPolicy",
    "js_compute", "jsclass", "minvoke",
]

#: class -> its public methods (inherited ones included)
PUBLIC_METHODS = {
    "repro.agents.app_oa.AppOA": [
        "ainvoke", "class_available", "create_object",
        "dispatch_invoke", "dispatch_invoke_batch", "dispatch_oneway",
        "drop_object", "ensure_static", "free_object",
        "hold_from_state", "hold_new_object", "init_holder", "load_object",
        "migrate_object", "migrate_out", "minvoke", "oinvoke",
        "pending_invocations", "recover_from_failure",
        "register_holder_handlers", "request",
        "sinvoke", "static_obj_id", "store_object", "unregister",
        "wait_until_quiescent",
    ],
    "repro.rmi.multi.MultiHandle": [
        "getResult", "getResults", "get_result", "get_results", "isReady",
        "is_ready", "outcomes",
    ],
    "repro.agents.shell.JSShell": [
        "add_node", "disable_auto_migration", "enable_auto_migration",
        "failure_events", "nodes", "remove_node", "set_failure_timeout",
        "set_monitor_period", "set_probe_period",
    ],
    "repro.obs.tracer.Tracer": [
        "begin_span", "count", "emit", "emit_span", "end_span",
        "events_of", "host_failed", "host_restarted", "new_context",
        "observe", "on_event",
    ],
    "repro.obs.flight.FlightRecorder": [
        "attach", "record",
    ],
    "repro.varch.node.Node": [
        "constrHold", "constr_hold", "free", "freeNode", "free_node",
        "getCluster", "getDomain", "getSite", "getSysParam", "get_cluster",
        "get_domain", "get_site", "get_sys_param", "hostnames", "nodes",
        "snapshot",
    ],
    "repro.varch.cluster.Cluster": [
        "addNode", "add_node", "constrHold", "constr_hold", "freeCluster",
        "freeNode", "free_cluster", "free_node", "getDomain", "getNode",
        "getSite", "getSysParam", "get_domain", "get_node", "get_site",
        "get_sys_param", "hostnames", "nodes", "nrNodes", "nr_nodes",
        "snapshot",
    ],
    "repro.varch.site.Site": [
        "addCluster", "add_cluster", "clusters", "constrHold",
        "constr_hold", "freeCluster", "freeNode", "freeSite",
        "free_cluster", "free_node", "free_site", "getCluster",
        "getDomain", "getNode", "getSysParam", "get_cluster", "get_domain",
        "get_node", "get_sys_param", "hostnames", "nodes", "nrClusters",
        "nrNodes", "nr_clusters", "nr_nodes", "snapshot",
    ],
    "repro.varch.domain.Domain": [
        "addSite", "add_site", "constrHold", "constr_hold", "freeCluster",
        "freeDomain", "freeNode", "freeSite", "free_cluster", "free_domain",
        "free_node", "free_site", "getNode", "getSite", "getSysParam",
        "get_node", "get_site", "get_sys_param", "hostnames", "nodes",
        "nrClusters", "nrNodes", "nrSites", "nr_clusters", "nr_nodes",
        "nr_sites", "sites", "snapshot",
    ],
    "repro.sanitizer.core.Sanitizer": [
        "access", "chan_wait", "chan_wait_done", "check_leaks",
        "future_completed", "handle_awaited", "handle_polled", "hb_recv",
        "hb_send", "identity", "note_all_blocked", "on_call_push",
        "on_call_run", "register_thread", "report", "reset_context",
        "swap_identity", "track_future", "track_handle", "wall_sleep",
    ],
    # no hooks: only a live Sanitizer's kernel calls them
    "repro.sanitizer.core.NullSanitizer": [],
}

#: config dataclass -> its fields, in declaration order
CONFIG_FIELDS = {
    "repro.agents.nas.NASConfig": [
        "monitor_period", "probe_period", "failure_timeout",
    ],
    "repro.agents.shell.ShellConfig": [
        "watch_period", "auto_migration", "rpc_timeout",
        "oas_failure_recovery", "reliable",
    ],
    "repro.cluster.testbed.TestbedConfig": [
        "load_profile", "seed", "nas", "shell", "load_models",
        "pool_policy", "incident_dir",
    ],
    "repro.rmi.reliability.RetryPolicy": [],
}

#: runtime class -> its constructor's parameters, in signature order
CONSTRUCTOR_PARAMS = {
    "repro.kernel.virtual.VirtualKernel": ["strict"],
    "repro.obs.flight.FlightRecorder": [
        "tracer", "nas_provider", "slo_provider",
        "incident_dir",
    ],
    "repro.obs.slo.SLOWatcher": ["rules"],
    "repro.obs.tracer.Tracer": ["max_events"],
    "repro.rmi.reliability.CircuitBreaker": [],
    "repro.rmi.reliability.ReplayCache": ["kernel", "config"],
    "repro.sanitizer.core.Sanitizer": ["leaks"],
    "repro.sysmon.history.SampleHistory": [],
    "repro.varch.node.Node": ["arg", "pool"],
    "repro.varch.cluster.Cluster": ["nr_nodes", "constraints", "pool"],
    "repro.varch.site.Site": ["nodes_per_cluster", "constraints", "pool"],
    "repro.varch.domain.Domain": ["nodes_per_site", "constraints", "pool"],
    "repro.varch.pool.MonitoredPool": [
        "world", "hosts", "policy", "snapshot_fn",
        "site_fn",
    ],
}

LINT_RULES = [
    "migrate-in-loop", "parse-error", "remote-invoke-in-loop",
    "sync-invoke-async-opportunity",
]

#: ``--rules`` group names: one per checker
LINT_GROUPS = ["locality"]

SAN_RULES = [
    "san-all-blocked", "san-leak-channel", "san-leak-future",
    "san-leak-handle", "san-race", "san-wall-sleep",
]

CLI_VERBS = [
    "chaos", "fig5", "grid", "incidents", "lint", "matmul", "metrics",
    "san", "spans", "testbed", "top", "trace",
]


@pytest.mark.parametrize("name, expected", [
    ("repro", REPRO_ALL),
    ("repro.kernel", KERNEL_ALL),
    ("repro.obs", OBS_ALL),
    ("repro.rmi", RMI_ALL),
    ("repro.analysis", ANALYSIS_ALL),
    ("repro.varch", VARCH_ALL),
])
def test_package_exports(name, expected):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == expected
    missing = [symbol for symbol in expected if not hasattr(module, symbol)]
    assert missing == []


def _resolve(path):
    module, name = path.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("path", sorted(PUBLIC_METHODS))
def test_public_methods(path):
    cls = _resolve(path)
    methods = sorted(
        member for member, _ in inspect.getmembers(cls, callable)
        if not member.startswith("_")
    )
    assert methods == PUBLIC_METHODS[path]


@pytest.mark.parametrize("path", sorted(CONFIG_FIELDS))
def test_config_fields(path):
    cls = _resolve(path)
    fields = ([field.name for field in dataclasses.fields(cls)]
              if dataclasses.is_dataclass(cls) else [])
    assert fields == CONFIG_FIELDS[path]


@pytest.mark.parametrize("path", sorted(CONSTRUCTOR_PARAMS))
def test_constructor_params(path):
    params = list(inspect.signature(_resolve(path).__init__).parameters)
    assert params[1:] == CONSTRUCTOR_PARAMS[path]


def test_lint_rule_ids():
    from repro.analysis.runner import known_rules

    assert sorted(known_rules()) == LINT_RULES


def test_lint_rule_groups():
    from repro.analysis.runner import rule_groups

    assert sorted(rule_groups()) == LINT_GROUPS


def test_sanitizer_rule_ids():
    from repro.sanitizer import SAN_RULES as rules

    assert sorted(rules) == SAN_RULES


def test_cli_verbs():
    from repro.cli import build_parser

    (sub,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(sub.choices) == CLI_VERBS
