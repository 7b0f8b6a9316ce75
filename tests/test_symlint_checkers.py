"""Each symlint checker finds exactly the findings seeded in its fixture.

Fixture files under ``tests/fixtures/symlint/`` carry ``# <<MARKER>>``
comments on the seeded lines; the tests resolve markers to line numbers
instead of hardcoding them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Severity, analyze_paths, render_json
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures" / "symlint"


def marker_line(fixture: str, marker: str) -> int:
    text = (FIXTURES / fixture).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if f"<<{marker}>>" in line:
            return lineno
    raise AssertionError(f"marker {marker} not found in {fixture}")


def run(*fixtures: str):
    return analyze_paths([str(FIXTURES / f) for f in fixtures])


def by_rule(report, rule: str):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# protocol surface
# ---------------------------------------------------------------------------


@pytest.fixture()
def protocol_report():
    return run("messages.py", "seeded_protocol.py")


def test_dead_kind_reported_at_declaration(protocol_report):
    dead = by_rule(protocol_report, "dead-kind")
    assert [f.symbol for f in dead] == ["RETIRED"]
    finding = dead[0]
    assert finding.severity is Severity.WARNING
    assert finding.path.endswith("messages.py")
    assert finding.line == marker_line("messages.py", "DEAD")


def test_handled_and_sent_kinds_are_clean(protocol_report):
    symbols = {f.symbol for f in protocol_report.findings}
    assert "PING" not in symbols  # sent as M.PING
    assert "WORK" not in symbols  # sent as the literal "WORK"
    assert "LOST" not in symbols  # sent, though handled nowhere


# ---------------------------------------------------------------------------
# blocking handlers
# ---------------------------------------------------------------------------


def test_blocking_calls_in_handlers_detected():
    report = run("seeded_blocking.py")
    sleeps = by_rule(report, "blocking-sleep-in-handler")
    rpcs = by_rule(report, "blocking-rpc-in-handler")
    assert len(sleeps) == 1 and len(rpcs) == 2
    assert sleeps[0].severity is Severity.ERROR
    assert sleeps[0].line == marker_line("seeded_blocking.py", "SLEEP")
    assert sleeps[0].symbol == "SlowAgent._h_throttle"
    assert rpcs[0].severity is Severity.WARNING
    assert rpcs[0].line == marker_line("seeded_blocking.py", "RPC")
    assert rpcs[0].symbol == "SlowAgent._h_relay"
    # The handler's body moved into a plain method it calls directly:
    # the RPC is reported where it is, against the handler that blocks.
    assert rpcs[1].line == marker_line("seeded_blocking.py", "RPC_VIA_SELF")
    assert rpcs[1].symbol == "SlowAgent._h_forward"


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_pragma_suppresses_seeded_race():
    report = run("suppressed.py")
    assert report.findings == []
    assert report.suppressed == 1


def test_rules_filter():
    report = analyze_paths([str(FIXTURES)], rules={"dead-kind"})
    assert {f.rule for f in report.findings} == {"dead-kind"}


# ---------------------------------------------------------------------------
# whole-directory run: the acceptance-criteria shape
# ---------------------------------------------------------------------------

EXPECTED_DIR_FINDINGS = {
    ("dead-kind", "messages.py", "DEAD"),
    ("blocking-sleep-in-handler", "seeded_blocking.py", "SLEEP"),
    ("blocking-rpc-in-handler", "seeded_blocking.py", "RPC"),
    ("blocking-rpc-in-handler", "seeded_blocking.py", "RPC_VIA_SELF"),
    ("kernel-block-transitive", "seeded_kernel_block.py",
     "TRANSITIVE_SLEEP"),
}


def test_fixture_directory_reports_every_seeded_finding():
    report = analyze_paths([str(FIXTURES)])
    got = {
        (f.rule, Path(f.path).name, f.line) for f in report.findings
    }
    for rule, fixture, marker in EXPECTED_DIR_FINDINGS:
        assert (rule, fixture, marker_line(fixture, marker)) in got
    assert len(report.findings) == len(EXPECTED_DIR_FINDINGS)
    assert report.suppressed == 1


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


def test_cli_lint_fixture_dir(capsys):
    code = cli_main(["lint", str(FIXTURES), "--format", "json"])
    assert code == 1  # seeded errors present
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["error"] > 0


def test_cli_lint_unknown_rule(capsys):
    assert cli_main(["lint", str(FIXTURES), "--rules", "nope"]) == 2


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("dead-kind", "blocking-sleep-in-handler",
                 "blocking-rpc-in-handler", "kernel-block-transitive",
                 "parse-error"):
        assert rule in out
