"""Each symlint checker finds exactly the findings seeded in its fixture.

Fixture files under ``tests/fixtures/symlint/`` carry ``# <<MARKER>>``
comments on the seeded lines; the tests resolve markers to line numbers
instead of hardcoding them.
"""

from __future__ import annotations

import json
from pathlib import Path

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


def test_disable_next_line_suppresses_only_next_line(tmp_path):
    src = (
        "import time\n"
        "class A:\n"
        "    def _h_go(self, msg):\n"
        "        # symlint: disable-next-line="
        "blocking-sleep-in-handler (justified)\n"
        "        time.sleep(1.0)\n"
        "        time.sleep(2.0)\n"
    )
    path = tmp_path / "pragma.py"
    path.write_text(src)
    report = analyze_paths([str(path)])
    findings = [
        f for f in report.findings if f.rule == "blocking-sleep-in-handler"
    ]
    assert [f.line for f in findings] == [6]
    assert report.suppressed == 1


def test_disable_next_line_trailing_leaves_own_line_checked(tmp_path):
    src = (
        "import time\n"
        "class A:\n"
        "    def _h_go(self, msg):\n"
        "        time.sleep(1.0)  "
        "# symlint: disable-next-line=blocking-sleep-in-handler\n"
        "        time.sleep(2.0)\n"
    )
    path = tmp_path / "pragma.py"
    path.write_text(src)
    report = analyze_paths([str(path)])
    findings = [
        f for f in report.findings if f.rule == "blocking-sleep-in-handler"
    ]
    # line 4 is still flagged (trailing pragma covers line 5 only)
    assert [f.line for f in findings] == [4]
    assert report.suppressed == 1


def test_rules_filter():
    report = analyze_paths([str(FIXTURES)],
                           rules={"blocking-rpc-in-handler"})
    assert {f.rule for f in report.findings} == {"blocking-rpc-in-handler"}


# ---------------------------------------------------------------------------
# whole-directory run: the acceptance-criteria shape
# ---------------------------------------------------------------------------

EXPECTED_DIR_FINDINGS = {
    ("blocking-sleep-in-handler", "seeded_blocking.py", "SLEEP"),
    ("blocking-rpc-in-handler", "seeded_blocking.py", "RPC"),
    ("blocking-rpc-in-handler", "seeded_blocking.py", "RPC_VIA_SELF"),
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
    for rule in ("blocking-sleep-in-handler", "blocking-rpc-in-handler",
                 "parse-error"):
        assert rule in out
