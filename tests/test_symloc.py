"""symloc finds exactly the locality defects seeded in its fixtures.

Fixture files under ``tests/fixtures/symloc/`` carry ``# <<MARKER>>``
comments on the seeded lines (the tests resolve markers to line numbers
instead of hardcoding them), and ``clean_batched.py`` is the near-miss
twin that must stay silent.  The runner's pragmas, ``--rules``
filtering, JSON report and CLI are checked here on the same corpus.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import Severity, analyze_paths, render_json
from repro.analysis.runner import expand_rules, rule_groups
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures" / "symloc"
LOCALITY_RULES = rule_groups()["locality"]


def marker_line(fixture: str, marker: str) -> int:
    text = (FIXTURES / fixture).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if f"<<{marker}>>" in line:
            return lineno
    raise AssertionError(f"marker {marker} not found in {fixture}")


def run(*fixtures: str):
    return analyze_paths(
        [str(FIXTURES / f) for f in fixtures], rules=LOCALITY_RULES
    )


def by_rule(report, rule: str):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# remote-invoke-in-loop
# ---------------------------------------------------------------------------


def test_every_in_loop_variant_detected():
    report = run("seeded_invoke_in_loop.py")
    hits = by_rule(report, "remote-invoke-in-loop")
    assert {f.line for f in hits} == {
        marker_line("seeded_invoke_in_loop.py", m)
        for m in ("SINVOKE_IN_LOOP", "SINVOKE_DEPTH2", "CHAINED_WAIT",
                  "IMMEDIATE_WAIT", "SINVOKE_IN_COMP")
    }
    assert len(hits) == 5
    # no other locality rule fires on this fixture
    assert len(report.findings) == 5


def test_depth_two_escalates_to_error():
    report = run("seeded_invoke_in_loop.py")
    deep = [
        f for f in by_rule(report, "remote-invoke-in-loop")
        if f.line == marker_line("seeded_invoke_in_loop.py",
                                 "SINVOKE_DEPTH2")
    ]
    assert len(deep) == 1
    assert deep[0].severity is Severity.ERROR
    assert "depth 2" in deep[0].message
    shallow = [
        f for f in by_rule(report, "remote-invoke-in-loop")
        if f.line == marker_line("seeded_invoke_in_loop.py",
                                 "SINVOKE_IN_LOOP")
    ]
    assert shallow[0].severity is Severity.WARNING


def test_chained_and_immediate_waits_name_the_disguise():
    report = run("seeded_invoke_in_loop.py")
    chained = [
        f for f in report.findings
        if f.line == marker_line("seeded_invoke_in_loop.py",
                                 "CHAINED_WAIT")
    ][0]
    assert "in disguise" in chained.message
    immediate = [
        f for f in report.findings
        if f.line == marker_line("seeded_invoke_in_loop.py",
                                 "IMMEDIATE_WAIT")
    ][0]
    assert "immediately after" in immediate.message


# ---------------------------------------------------------------------------
# sync-invoke-async-opportunity
# ---------------------------------------------------------------------------


def test_overlap_opportunities_detected():
    report = run("seeded_async_opportunity.py")
    hits = by_rule(report, "sync-invoke-async-opportunity")
    assert {f.line for f in hits} == {
        marker_line("seeded_async_opportunity.py", m)
        for m in ("DISCARDED_RESULT", "DISTANT_FIRST_USE", "NEVER_USED")
    }
    assert all(f.severity is Severity.INFO for f in hits)
    assert len(report.findings) == 3


def test_never_used_message_cites_liveness():
    report = run("seeded_async_opportunity.py")
    never = [
        f for f in report.findings
        if f.line == marker_line("seeded_async_opportunity.py",
                                 "NEVER_USED")
    ][0]
    assert "never read" in never.message


# ---------------------------------------------------------------------------
# migrate-in-loop
# ---------------------------------------------------------------------------


def test_migration_thrash_detected():
    report = run("seeded_migrate_thrash.py")
    assert [(f.rule, f.line, f.symbol) for f in report.findings] == [(
        "migrate-in-loop",
        marker_line("seeded_migrate_thrash.py", "MIGRATE_IN_LOOP"),
        "obj",
    )]


# ---------------------------------------------------------------------------
# control flow: loop depth, straight-line runs, liveness (flow_cases.py)
# ---------------------------------------------------------------------------

#: marker -> (rule, severity, message fragment) for the flow cases that fire
FLOW_FIRES = {
    "SINVOKE_IN_WHILE_TEST": ("remote-invoke-in-loop", Severity.WARNING,
                              "(depth 1)"),
    "COMP_SECOND_ITER": ("remote-invoke-in-loop", Severity.WARNING,
                         "(depth 1)"),
    "COMP_NESTED": ("remote-invoke-in-loop", Severity.ERROR, "(depth 2)"),
    "NESTED_DEF_LOOP": ("remote-invoke-in-loop", Severity.WARNING,
                        "(depth 1)"),
    "METHOD_MIGRATE": ("migrate-in-loop", Severity.WARNING, "(depth 1)"),
    "REBOUND": ("sync-invoke-async-opportunity", Severity.INFO,
                "'value' is never read"),
    "REBOUND_IN_BRANCHES": ("sync-invoke-async-opportunity", Severity.INFO,
                            "'value' is never read"),
    "WITH_DISTANCE": ("sync-invoke-async-opportunity", Severity.INFO,
                      "not read for the next 3 statement(s)"),
    "WITH_DISCARDED": ("sync-invoke-async-opportunity", Severity.INFO,
                       "is discarded"),
    "WHILE_ELSE_DISCARDED": ("sync-invoke-async-opportunity", Severity.INFO,
                             "is discarded"),
}

#: flow cases that must stay silent, each a near miss of one above
FLOW_SILENT = (
    "SINVOKE_IN_FOR_ITER", "COMP_FIRST_ITER", "LAMBDA_BODY",
    "NESTED_DEF_BODY", "LAMBDA_CAPTURE", "READ_IN_LOOP", "READ_IN_HANDLER",
    "READ_IN_RETRY_HANDLER", "READ_IN_FINALLY", "READ_AS_STORE_BASE",
    "READ_AFTER_UNMATCHED_CASE", "FOR_BREAKS_DISTANCE",
    "WHILE_BREAKS_DISCARDED", "TRY_BREAKS_DISCARDED", "IF_ENDS_RUN",
    "MATCH_ENDS_RUN", "AFTER_WHILE_ELSE", "READ_IN_NESTED_DEF",
    "READ_IN_HANDLER_REBOUND_IN_ELSE",
)


def flow_findings() -> dict:
    report = run("flow_cases.py")
    lines = [f.line for f in report.findings]
    assert len(lines) == len(set(lines)), "one finding per line expected"
    return {f.line: f for f in report.findings}


def test_flow_cases_fire_exactly_where_marked():
    findings = flow_findings()
    expected = {
        marker_line("flow_cases.py", marker): (rule, severity)
        for marker, (rule, severity, _) in FLOW_FIRES.items()
    }
    assert {line: (f.rule, f.severity) for line, f in findings.items()} \
        == expected


def test_flow_case_messages_name_depth_and_distance():
    findings = flow_findings()
    for marker, (_, _, fragment) in FLOW_FIRES.items():
        message = findings[marker_line("flow_cases.py", marker)].message
        assert fragment in message, (marker, message)


def test_flow_near_misses_are_silent():
    findings = flow_findings()
    for marker in FLOW_SILENT:
        line = marker_line("flow_cases.py", marker)
        assert line not in findings, (marker, findings[line].message)


# ---------------------------------------------------------------------------
# the clean twin and suppression
# ---------------------------------------------------------------------------


def test_clean_twin_is_silent():
    report = run("clean_batched.py")
    assert report.findings == [], "\n".join(
        f"{f.line}: {f.rule}: {f.message}" for f in report.findings
    )


def test_pragma_suppresses_locality_finding(tmp_path):
    src = textwrap.dedent("""
        def f(objs):
            for obj in objs:
                obj.sinvoke("get")  # symlint: disable=remote-invoke-in-loop
    """)
    path = tmp_path / "suppressed_loop.py"
    path.write_text(src)
    report = analyze_paths([str(path)], rules=LOCALITY_RULES)
    assert report.findings == []
    assert report.suppressed == 1


def test_disable_next_line_suppresses_only_next_line(tmp_path):
    src = (
        "def f(objs):\n"
        "    for obj in objs:\n"
        "        # symlint: disable-next-line="
        "remote-invoke-in-loop (justified)\n"
        "        obj.sinvoke('a')\n"
        "        obj.sinvoke('b')\n"
    )
    path = tmp_path / "pragma.py"
    path.write_text(src)
    report = analyze_paths([str(path)])
    findings = by_rule(report, "remote-invoke-in-loop")
    assert [f.line for f in findings] == [5]
    assert report.suppressed == 1


def test_disable_next_line_trailing_leaves_own_line_checked(tmp_path):
    src = (
        "def f(objs):\n"
        "    for obj in objs:\n"
        "        obj.sinvoke('a')  "
        "# symlint: disable-next-line=remote-invoke-in-loop\n"
        "        obj.sinvoke('b')\n"
    )
    path = tmp_path / "pragma.py"
    path.write_text(src)
    report = analyze_paths([str(path)])
    findings = by_rule(report, "remote-invoke-in-loop")
    # line 3 is still flagged (trailing pragma covers line 4 only)
    assert [f.line for f in findings] == [3]
    assert report.suppressed == 1


# ---------------------------------------------------------------------------
# the runner: --rules filtering and the JSON report
# ---------------------------------------------------------------------------


def test_rules_filter():
    report = analyze_paths([str(FIXTURES)], rules={"migrate-in-loop"})
    assert {f.rule for f in report.findings} == {"migrate-in-loop"}


def test_json_output_round_trips():
    report = analyze_paths([str(FIXTURES)])
    data = json.loads(render_json(report))
    assert data["version"] == 1
    assert data["summary"]["error"] == sum(
        1 for f in report.findings if f.severity is Severity.ERROR
    )
    assert len(data["findings"]) == len(report.findings)
    for entry in data["findings"]:
        assert set(entry) == {
            "rule", "severity", "path", "line", "col", "message", "symbol"
        }


# ---------------------------------------------------------------------------
# rule groups and the CLI
# ---------------------------------------------------------------------------


def test_rule_group_expansion():
    rules, unknown = expand_rules({"locality"})
    assert rules == LOCALITY_RULES
    assert unknown == set()
    rules, unknown = expand_rules({"locality", "no-such-rule"})
    assert unknown == {"no-such-rule"}


def test_cli_rules_locality_reports_all_rules(capsys):
    # the acceptance invocation: every symloc rule shows up on the
    # seeded fixtures, and the depth-2 error gates the exit code
    assert cli_main(["lint", str(FIXTURES), "--rules", "locality"]) == 1
    out = capsys.readouterr().out
    for rule in ("remote-invoke-in-loop", "sync-invoke-async-opportunity",
                 "migrate-in-loop"):
        assert rule in out, f"{rule} missing from CLI output"


def test_cli_rejects_unknown_group(capsys):
    # a retired checker group or rule is as unknown as a typo: no alias
    for group in ("no-such", "migration-safety", "obs-discipline",
                  "retry-discipline", "symshare", "blocking-handler",
                  "blocking-sleep-in-handler", "blocking-rpc-in-handler"):
        assert cli_main(["lint", str(FIXTURES), "--rules", group]) == 2
        assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules_shows_checker_names(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "remote-invoke-in-loop" in out
    assert "[locality]" in out
    assert "parse-error" in out


def test_strict_summary_counts_the_info_findings(capsys):
    # --strict fails on info findings, so the summary line must count
    # them: "0 errors, 0 warnings" above an exit of 1 hides the cause.
    fixture = str(FIXTURES / "seeded_async_opportunity.py")
    for fmt in ("text", "github"):
        assert cli_main(["lint", "--strict", "--format", fmt, fixture]) == 1
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == "symlint: 1 files, 0 errors, 0 warnings, 3 info"
