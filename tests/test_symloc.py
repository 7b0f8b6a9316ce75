"""symloc finds exactly the locality defects seeded in its fixtures.

Mirrors the symlint convention: fixture files under
``tests/fixtures/symloc/`` carry ``# <<MARKER>>`` comments on the seeded
lines, and ``clean_batched.py`` is the near-miss twin that must stay
silent.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import Severity, analyze_paths
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
    # a retired checker group is as unknown as a typo: no alias
    for group in ("no-such", "migration-safety", "obs-discipline",
                  "retry-discipline", "symshare"):
        assert cli_main(["lint", str(FIXTURES), "--rules", group]) == 2
        assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules_shows_checker_names(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "remote-invoke-in-loop" in out
    assert "[locality]" in out
