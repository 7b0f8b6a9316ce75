"""Self-gate: the runtime itself passes its own static analysis.

This is the build-time enforcement of the paper invariants: if a future
change introduces an unguarded shared write, a dead message kind, a
blocking handler or an RPC under a lock, this test fails before any
runtime test has to trip over it.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.analysis import Severity, render_json
from repro.analysis.runner import known_rules, load_project, rule_groups
from repro.cli import main as cli_main
from tests.conftest import PACKAGE_DIR, REPO_ROOT


@pytest.fixture()
def report(runtime_report):
    return runtime_report


def test_runtime_has_zero_error_findings(report):
    errors = [f for f in report.findings if f.severity is Severity.ERROR]
    assert errors == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in errors
    )


def test_runtime_has_zero_warning_findings(report):
    """Warnings must be fixed or explicitly suppressed with justification
    (the repo policy set by ISSUE 1); keeps the lint output clean."""
    assert report.findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in report.findings
    )


def test_known_suppressions_are_counted(report):
    # dead-kind x2 (NODE_RELEASED / MANAGER_TAKEOVER), the Figure-3
    # synchronous migration push, and the Tracer's lock-free fast path
    # x2 (uncapped tracers never evict, so emit/_index skip _ring_lock)
    # were the five sanctioned suppressions; lock-discipline recognising
    # sanitizer.make_lock() results added seven unlocked-mutation ones on
    # state those locks were never meant to guard: ObjectHolder's
    # queue-depth gauge x2, AppOA.refs stores x3 (one writer per entry,
    # checked at run time by _note_refs_write), the foreign-location
    # cache, and _InvokeCoalescer.add (a method, not set.add).
    assert report.suppressed == 12


def _gate(repo_report, group):
    """The repo-wide report's findings from one checker group."""
    rules = rule_groups()[group]
    findings = [f for f in repo_report.findings if f.rule in rules]
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in findings
    )


def test_locality_gate_repo_wide(repo_report):
    """symloc runs clean — zero findings at every severity, INFO
    included — over the runtime, the examples and the test suite.
    Every legitimate pattern is either written the recommended way or
    carries a justified suppression."""
    _gate(repo_report, "locality")


def test_pragmas_name_known_rules(runtime_project):
    """Every rule a ``# symlint: disable`` pragma names in the runtime,
    the examples or the test suite still exists: a pragma for a deleted
    or misspelled rule suppresses nothing and only misleads."""
    project, _failures = load_project(
        [os.path.join(REPO_ROOT, "examples")]
        + sorted(glob.glob(os.path.join(REPO_ROOT, "tests", "*.py")))
    )
    known = set(known_rules()) | {"all"}
    stale = [
        f"{module.path}:{line}: {rule}"
        for module in runtime_project[0].modules + project.modules
        for line, rules in sorted(module.suppressions.items())
        for rule in sorted(rules - known)
    ]
    assert stale == [], "\n".join(stale)


def test_cli_lint_default_paths_exits_zero(capsys, monkeypatch,
                                          runtime_report):
    """``repro lint`` with no path lints the installed package.  The
    session's report of that package stands in for a second full pass;
    the gates above are what hold it at zero findings."""
    import repro.analysis

    asked = []

    def analyze_paths(paths, rules=None):
        asked.append((paths, rules))
        return runtime_report

    monkeypatch.setattr(repro.analysis, "analyze_paths", analyze_paths)
    assert cli_main(["lint"]) == 0
    assert asked == [([PACKAGE_DIR], None)]
    assert "0 errors" in capsys.readouterr().out


def test_cli_lint_src_json_round_trips(capsys):
    paths = [os.path.join(PACKAGE_DIR, sub) for sub in ("kernel", "util")]
    assert cli_main(["lint", *paths, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["findings"] == []
    assert data["summary"]["error"] == 0
    assert data["summary"]["files"] == sum(
        name.endswith(".py") for path in paths for name in os.listdir(path))


def test_render_json_matches_cli_json(report):
    data = json.loads(render_json(report))
    assert data["summary"]["files"] == report.files
