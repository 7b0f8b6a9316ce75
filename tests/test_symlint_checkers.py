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
# lock discipline
# ---------------------------------------------------------------------------


def test_unguarded_write_race_detected():
    report = run("seeded_race.py")
    races = by_rule(report, "unguarded-write")
    assert len(races) == 1
    finding = races[0]
    assert finding.severity is Severity.ERROR
    assert finding.path.endswith("seeded_race.py")
    assert finding.line == marker_line("seeded_race.py", "RACE")
    assert finding.symbol == "RacyCounter.count"
    assert "_lock" in finding.message


def test_unlocked_container_mutation_flagged():
    report = run("seeded_race.py")
    mutations = by_rule(report, "unlocked-mutation")
    assert len(mutations) == 1
    finding = mutations[0]
    assert finding.severity is Severity.WARNING
    assert finding.line == marker_line("seeded_race.py", "MUTATION")
    assert finding.symbol == "RacyCounter.log"


def test_guarded_code_produces_no_lock_findings():
    report = run("seeded_race.py")
    # guarded_increment (line with the locked `+= 1`) is never flagged
    flagged_lines = {f.line for f in report.findings}
    text = (FIXTURES / "seeded_race.py").read_text().splitlines()
    locked_line = next(
        i for i, line in enumerate(text, 1)
        if "with self._lock" in line
    )
    assert locked_line + 1 not in flagged_lines


def test_lock_order_cycle_detected():
    report = run("seeded_deadlock.py")
    cycles = by_rule(report, "lock-order-cycle")
    assert len(cycles) == 1
    finding = cycles[0]
    assert finding.severity is Severity.ERROR
    assert finding.path.endswith("seeded_deadlock.py")
    assert finding.line in {
        marker_line("seeded_deadlock.py", "ORDER-AB"),
        marker_line("seeded_deadlock.py", "ORDER-BA"),
    }
    assert "_lock_a" in finding.message and "_lock_b" in finding.message
    assert "deadlock" in finding.message
    # the consistent-order fixture part produced nothing else
    assert report.findings == cycles


@pytest.mark.parametrize("first", ["lo", "hi"])
def test_lock_order_cycle_is_named_from_its_smallest_lock(tmp_path, first):
    """A cycle has no first lock; the finding used to start from
    whichever one a set yielded, so its line and message (what pragmas
    and baselines key on) moved with PYTHONHASHSEED.  Eight lock pairs:
    an unfixed checker names all of them right under 1 seed in 256."""
    pairs = [(f"_lock_{2 * i}", f"_lock_{2 * i + 1}") for i in range(8)]
    lines = ["import threading", ""]
    expected = {}
    for i, (lo, hi) in enumerate(pairs):
        lines += [f"class Pair{i}:", "    def __init__(self):"]
        lines += [f"        self.{n} = threading.Lock()" for n in (lo, hi)]
        order = [(lo, hi), (hi, lo)]
        for outer, inner in order if first == "lo" else reversed(order):
            lines += [f"    def {outer}_then{inner}(self):",
                      f"        with self.{outer}:",
                      f"            with self.{inner}:"]
            if outer == lo:
                expected[f"Pair{i}"] = (len(lines), f"({lo} -> {hi} -> {lo})")
            lines += ["                pass"]
    source = tmp_path / "pairs.py"
    source.write_text("\n".join(lines) + "\n")
    cycles = by_rule(analyze_paths([str(source)]), "lock-order-cycle")
    named = {
        f.symbol.split(":")[0]:
            (f.line, f.message.split("orders ")[1].split(":")[0])
        for f in cycles
    }
    assert named == expected


# ---------------------------------------------------------------------------
# protocol completeness
# ---------------------------------------------------------------------------


@pytest.fixture()
def protocol_report():
    return run("messages.py", "seeded_protocol.py")


def test_unhandled_kind_reported_at_send_site(protocol_report):
    unhandled = by_rule(protocol_report, "unhandled-kind")
    assert [f.symbol for f in unhandled] == ["LOST"]
    finding = unhandled[0]
    assert finding.severity is Severity.ERROR
    assert finding.path.endswith("seeded_protocol.py")
    assert finding.line == marker_line("seeded_protocol.py", "LOST")


def test_dead_kind_reported_at_declaration(protocol_report):
    dead = by_rule(protocol_report, "dead-kind")
    assert [f.symbol for f in dead] == ["RETIRED"]
    finding = dead[0]
    assert finding.severity is Severity.WARNING
    assert finding.path.endswith("messages.py")
    assert finding.line == marker_line("messages.py", "DEAD")


def test_raw_kind_literal_flagged(protocol_report):
    raw = by_rule(protocol_report, "raw-kind-literal")
    assert [f.symbol for f in raw] == ["WORK"]
    finding = raw[0]
    assert finding.severity is Severity.ERROR
    assert finding.line == marker_line("seeded_protocol.py", "RAW")


def test_handled_and_sent_kinds_are_clean(protocol_report):
    symbols = {f.symbol for f in protocol_report.findings}
    assert "PING" not in symbols  # sent + registered
    assert "WORK" in symbols  # only via the raw literal finding


# ---------------------------------------------------------------------------
# migration / serialization safety
# ---------------------------------------------------------------------------


def test_unserializable_attrs_detected():
    report = run("seeded_unserializable.py")
    findings = by_rule(report, "unserializable-attr")
    assert {f.symbol for f in findings} == {
        "LeakyWorker._guard",
        "LeakyWorker.stream",
    }
    lines = {f.symbol: f.line for f in findings}
    assert lines["LeakyWorker._guard"] == marker_line(
        "seeded_unserializable.py", "LOCK"
    )
    assert lines["LeakyWorker.stream"] == marker_line(
        "seeded_unserializable.py", "GEN"
    )
    assert all(f.severity is Severity.ERROR for f in findings)
    # the guarded append in work() is not a lock-discipline finding
    assert report.findings == sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    )


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
    report = analyze_paths(
        [str(FIXTURES)], rules={"lock-order-cycle"}
    )
    assert {f.rule for f in report.findings} == {"lock-order-cycle"}


# ---------------------------------------------------------------------------
# obs discipline
# ---------------------------------------------------------------------------


def test_tracer_call_under_lock_flagged():
    report = run("seeded_tracer_lock.py")
    findings = by_rule(report, "tracer-call-under-lock")
    assert {f.line for f in findings} == {
        marker_line("seeded_tracer_lock.py", "EMIT_UNDER_LOCK"),
        marker_line("seeded_tracer_lock.py", "COUNT_UNDER_LOCK"),
        marker_line("seeded_tracer_lock.py", "SPAN_UNDER_LOCK"),
        marker_line("seeded_tracer_lock.py", "END_SPAN_UNDER_LOCK"),
    }
    for finding in findings:
        assert finding.severity is Severity.WARNING
        assert "_lock" in finding.message


def test_tracer_outside_lock_and_nested_def_not_flagged():
    report = run("seeded_tracer_lock.py")
    flagged_symbols = {
        f.symbol for f in by_rule(report, "tracer-call-under-lock")
    }
    # store_good/span_good (after the with), deferred_ok (nested def) and
    # unrelated_observe_ok (histogram, not a tracer) must stay clean.
    assert flagged_symbols == {
        "store_bad", "count_bad", "span_bad", "end_span_bad",
    }


def test_registry_call_under_lock_flagged():
    report = run("seeded_registry_lock.py")
    findings = by_rule(report, "registry-call-under-lock")
    assert {f.line for f in findings} == {
        marker_line("seeded_registry_lock.py", "INGEST_UNDER_LOCK"),
        marker_line("seeded_registry_lock.py", "OBSERVE_UNDER_LOCK"),
        marker_line("seeded_registry_lock.py", "RECORD_UNDER_LOCK"),
        marker_line("seeded_registry_lock.py", "MERGE_UNDER_LOCK"),
    }
    for finding in findings:
        assert finding.severity is Severity.WARNING
        assert "_lock" in finding.message


def test_registry_rule_clean_twins_and_tracer_precedence():
    report = run("seeded_registry_lock.py")
    registry = by_rule(report, "registry-call-under-lock")
    # ingest_good (after the with), deferred_ok (nested def) and
    # unrelated_receiver_ok (no telemetry keyword) stay clean.
    assert {f.symbol for f in registry} == {
        "ingest_bad", "observe_bad", "record_bad", "merge_bad",
    }
    # tracer.metrics.count under lock is exactly one finding, owned by
    # the tracer rule.
    tracer = by_rule(report, "tracer-call-under-lock")
    assert [f.symbol for f in tracer] == ["tracer_rule_wins"]
    assert tracer[0].line == marker_line(
        "seeded_registry_lock.py", "TRACER_WINS"
    )
    assert len(report.findings) == 5


# ---------------------------------------------------------------------------
# retry discipline
# ---------------------------------------------------------------------------


def test_unbounded_retry_in_handler_helper_flagged():
    report = run("seeded_unbounded_retry.py")
    findings = by_rule(report, "unbounded-retry")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity is Severity.ERROR
    assert finding.line == marker_line(
        "seeded_unbounded_retry.py", "UNBOUNDED_RETRY"
    )
    assert finding.symbol == "Syncer._pull"
    # the message names the handler the loop is reachable from
    assert "Syncer._h_sync" in finding.message


def test_bounded_retry_twin_stays_clean():
    report = run("seeded_unbounded_retry.py")
    assert {f.symbol for f in by_rule(report, "unbounded-retry")} == {
        "Syncer._pull"
    }  # BoundedSyncer._pull (for-range + re-raise) produces nothing


# ---------------------------------------------------------------------------
# whole-directory run: the acceptance-criteria shape
# ---------------------------------------------------------------------------

EXPECTED_DIR_FINDINGS = {
    ("unguarded-write", "seeded_race.py", "RACE"),
    ("unlocked-mutation", "seeded_race.py", "MUTATION"),
    ("lock-order-cycle", "seeded_deadlock.py", None),
    ("dead-kind", "messages.py", "DEAD"),
    ("unhandled-kind", "seeded_protocol.py", "LOST"),
    ("raw-kind-literal", "seeded_protocol.py", "RAW"),
    ("unserializable-attr", "seeded_unserializable.py", "LOCK"),
    ("unserializable-attr", "seeded_unserializable.py", "GEN"),
    ("blocking-sleep-in-handler", "seeded_blocking.py", "SLEEP"),
    ("blocking-rpc-in-handler", "seeded_blocking.py", "RPC"),
    ("blocking-rpc-in-handler", "seeded_blocking.py", "RPC_VIA_SELF"),
    ("tracer-call-under-lock", "seeded_tracer_lock.py", "EMIT_UNDER_LOCK"),
    ("tracer-call-under-lock", "seeded_tracer_lock.py", "COUNT_UNDER_LOCK"),
    ("tracer-call-under-lock", "seeded_tracer_lock.py", "SPAN_UNDER_LOCK"),
    ("tracer-call-under-lock", "seeded_tracer_lock.py",
     "END_SPAN_UNDER_LOCK"),
    ("registry-call-under-lock", "seeded_registry_lock.py",
     "INGEST_UNDER_LOCK"),
    ("registry-call-under-lock", "seeded_registry_lock.py",
     "OBSERVE_UNDER_LOCK"),
    ("registry-call-under-lock", "seeded_registry_lock.py",
     "RECORD_UNDER_LOCK"),
    ("registry-call-under-lock", "seeded_registry_lock.py",
     "MERGE_UNDER_LOCK"),
    ("tracer-call-under-lock", "seeded_registry_lock.py", "TRACER_WINS"),
    ("rpc-under-lock", "seeded_rpc_under_lock.py", "RPC_UNDER_LOCK"),
    ("kernel-block-transitive", "seeded_kernel_block.py",
     "TRANSITIVE_SLEEP"),
    ("unbounded-retry", "seeded_unbounded_retry.py", "UNBOUNDED_RETRY"),
}


def test_fixture_directory_reports_every_seeded_finding():
    report = analyze_paths([str(FIXTURES)])
    got = {
        (f.rule, Path(f.path).name, f.line) for f in report.findings
    }
    for rule, fixture, marker in EXPECTED_DIR_FINDINGS:
        if marker is None:
            assert any(g[0] == rule and g[1] == fixture for g in got), \
                (rule, fixture)
        else:
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
    for rule in ("unguarded-write", "lock-order-cycle", "unhandled-kind",
                 "dead-kind", "raw-kind-literal", "unserializable-attr",
                 "blocking-sleep-in-handler", "tracer-call-under-lock",
                 "registry-call-under-lock", "unbounded-retry",
                 "parse-error"):
        assert rule in out
