"""Whole-report pins for symlint.

The marker-pinned fixture tests (``test_symloc.py``) check that each
seeded line fires.  This file pins the *whole* report instead:
``render_json`` of the fixture corpus, under all rules and under each
checker group singly, must equal the golden file byte for byte — so a
refactor of the analysis engine that adds, drops, moves or rewords any
finding shows up as a diff, not as a passing suite.  ``render_sarif`` of
the same corpus, under all rules, is pinned the same way, so the SARIF
writer runs in the suite and not only in CI.  The zero-finding trees are
pinned by their ``(findings, suppressed)`` counts.

The goldens under ``tests/fixtures/lint_golden/`` were taken with
``PYTHONHASHSEED=0``; a report does not depend on the hash seed (CI's
"lint determinism" step compares two), so the suite checks them under
whatever seed pytest runs with.  A change that is *meant* to move a
finding regenerates the goldens, from the repo root::

    PYTHONPATH=src python -c \
        "from tests.test_symlint_golden import regenerate; regenerate()"
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.runner import (
    analyze_paths,
    render_json,
    render_sarif,
    rule_groups,
)

REPO_ROOT = Path(__file__).parent.parent
GOLDEN = Path("tests/fixtures/lint_golden")
CORPORA = ("symloc",)
#: "all" plus every checker group, the selections ``--rules`` accepts
SELECTIONS = ("all", *sorted(rule_groups()))


def corpus_report(corpus: str, selection: str, render=render_json) -> str:
    """``render`` of one fixture corpus; paths in the report are relative
    to the working directory, which must be the repo root."""
    rules = None if selection == "all" else rule_groups()[selection]
    report = analyze_paths([f"tests/fixtures/{corpus}"], rules)
    return render(report) + "\n"


def regenerate() -> None:
    os.chdir(REPO_ROOT)
    for corpus in CORPORA:
        (GOLDEN / corpus).mkdir(parents=True, exist_ok=True)
        for selection in SELECTIONS:
            (GOLDEN / corpus / f"{selection}.json").write_text(
                corpus_report(corpus, selection)
            )
        (GOLDEN / corpus / "all.sarif").write_text(
            corpus_report(corpus, "all", render_sarif)
        )


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("corpus", CORPORA)
def test_fixture_corpus_report_is_pinned(corpus, selection, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    golden = (GOLDEN / corpus / f"{selection}.json").read_text()
    assert corpus_report(corpus, selection) == golden


@pytest.mark.parametrize("corpus", CORPORA)
def test_fixture_corpus_sarif_is_pinned(corpus, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    sarif = corpus_report(corpus, "all", render_sarif)
    assert sarif == (GOLDEN / corpus / "all.sarif").read_text()
    doc = json.loads(sarif)
    assert doc["version"] == "2.1.0"
    assert len(doc["runs"][0]["results"]) == len(json.loads(
        corpus_report(corpus, "all"))["findings"])


def test_runtime_counts_are_pinned(runtime_report):
    """``src/repro``, all rules: nothing fires, and no pragma is
    needed."""
    assert (len(runtime_report.findings), runtime_report.suppressed) \
        == (0, 0)


def test_repo_wide_counts_are_pinned(repo_report):
    """Runtime + examples + test suite, all rules.  Each suppression is a
    test's deliberate sync-call loop (``tests/test_object_footprint.py``
    added the 17th)."""
    assert (len(repo_report.findings), repo_report.suppressed) == (0, 17)
