"""Import-and-symbols smoke: the package's public surface, pinned.

Each list below is what a user (or a script, or a CI step) can name:
the package exports, the kernel exports, the lint rule ids, the symsan
rule ids and the CLI verbs.  A deletion that drops one of them must
edit this file too, so a removal is always deliberate and visible in
the diff, never a side effect.
"""

from __future__ import annotations

import argparse
import importlib

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

LINT_RULES = [
    "blocking-rpc-in-handler", "blocking-sleep-in-handler", "dead-kind",
    "kernel-block-transitive", "migrate-in-loop", "parse-error",
    "remote-invoke-in-loop", "sync-invoke-async-opportunity",
]

SAN_RULES = [
    "san-all-blocked", "san-leak-channel", "san-leak-future",
    "san-leak-handle", "san-migrate-pending", "san-race",
]

CLI_VERBS = [
    "chaos", "fig5", "grid", "incidents", "lint", "matmul", "metrics",
    "san", "spans", "testbed", "top", "trace",
]


@pytest.mark.parametrize("name, expected", [
    ("repro", REPRO_ALL),
    ("repro.kernel", KERNEL_ALL),
])
def test_package_exports(name, expected):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == expected
    missing = [symbol for symbol in expected if not hasattr(module, symbol)]
    assert missing == []


def test_lint_rule_ids():
    from repro.analysis.runner import known_rules

    assert sorted(known_rules()) == LINT_RULES


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
