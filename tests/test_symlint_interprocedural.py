"""The interprocedural symlint pass: cross-function rules over the call
graph (whose resolution ``test_callgraph.py`` pins).

The headline property: ``rpc-under-lock`` catches a violation that every
per-file checker provably misses (the same fixture analyzed without the
interprocedural pass yields zero findings).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Severity, analyze_paths
from repro.analysis.interprocedural import InterproceduralChecker
from repro.analysis.runner import analyze_project, default_checkers

FIXTURES = Path(__file__).parent / "fixtures" / "symlint"
INTERPROCEDURAL_RULES = {"rpc-under-lock", "kernel-block-transitive"}


def marker_line(fixture: str, marker: str) -> int:
    text = (FIXTURES / fixture).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if f"<<{marker}>>" in line:
            return lineno
    raise AssertionError(f"marker {marker} not found in {fixture}")


def per_file_checkers():
    return [
        c for c in default_checkers()
        if not isinstance(c, InterproceduralChecker)
    ]


# ---------------------------------------------------------------------------
# rpc-under-lock
# ---------------------------------------------------------------------------


def test_rpc_under_lock_found_two_hops_down():
    report = analyze_paths([str(FIXTURES / "seeded_rpc_under_lock.py")])
    findings = [f for f in report.findings if f.rule == "rpc-under-lock"]
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity is Severity.ERROR
    assert finding.line == marker_line(
        "seeded_rpc_under_lock.py", "RPC_UNDER_LOCK"
    )
    assert finding.symbol == "Directory.rebind"
    assert "Directory._refresh -> Directory._push" in finding.message
    assert "'_lock'" in finding.message


def test_per_file_checkers_provably_miss_the_seeded_rpc():
    """The same fixture, analyzed without the interprocedural pass,
    is completely clean — the violation only exists across functions."""
    report = analyze_paths(
        [str(FIXTURES / "seeded_rpc_under_lock.py")],
        checkers=per_file_checkers(),
    )
    assert report.findings == []


def test_direct_rpc_under_lock_also_flagged(tmp_path):
    src = (
        "import threading\n"
        "KIND = 'k'\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def top(self):\n"
        "        with self._lock:\n"
        "            self.endpoint.rpc('peer', KIND, None)\n"
    )
    path = tmp_path / "direct.py"
    path.write_text(src)
    report = analyze_paths([str(path)])
    findings = [f for f in report.findings if f.rule == "rpc-under-lock"]
    assert len(findings) == 1
    assert findings[0].line == 8


# ---------------------------------------------------------------------------
# kernel-block-transitive
# ---------------------------------------------------------------------------


def test_kernel_block_transitive_found():
    report = analyze_paths([str(FIXTURES / "seeded_kernel_block.py")])
    findings = [
        f for f in report.findings if f.rule == "kernel-block-transitive"
    ]
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity is Severity.WARNING
    assert finding.line == marker_line(
        "seeded_kernel_block.py", "TRANSITIVE_SLEEP"
    )
    assert finding.symbol == "Prober._h_ping"
    assert "time.sleep" in finding.message
    assert "Prober._backoff" in finding.message
    sink_line = marker_line("seeded_kernel_block.py", "RAW_SLEEP")
    assert f":{sink_line}" in finding.message


def test_direct_sleep_is_not_double_flagged():
    """A sleep directly in a handler belongs to blocking-sleep-in-handler;
    the transitive rule stays quiet."""
    report = analyze_paths([str(FIXTURES / "seeded_blocking.py")])
    rules = [f.rule for f in report.findings]
    assert "blocking-sleep-in-handler" in rules
    assert "kernel-block-transitive" not in rules


def test_spawned_functions_are_entry_points(tmp_path):
    src = (
        "import time\n"
        "class A:\n"
        "    def start(self, kernel):\n"
        "        kernel.spawn(self._loop)\n"
        "    def _loop(self):\n"
        "        self._pause()\n"
        "    def _pause(self):\n"
        "        time.sleep(1.0)\n"
    )
    path = tmp_path / "spawned.py"
    path.write_text(src)
    report = analyze_paths([str(path)])
    findings = [
        f for f in report.findings if f.rule == "kernel-block-transitive"
    ]
    assert [f.symbol for f in findings] == ["A._loop"]


# ---------------------------------------------------------------------------
# the runtime itself stays clean under the interprocedural pass
# ---------------------------------------------------------------------------


def test_src_repro_clean_under_interprocedural_rules(runtime_project):
    report = analyze_project(*runtime_project, INTERPROCEDURAL_RULES)
    assert report.findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in report.findings
    )


# ---------------------------------------------------------------------------
# disable-next-line pragma (suppression satellite)
# ---------------------------------------------------------------------------


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
