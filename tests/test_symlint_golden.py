"""Whole-report pins for symlint.

The marker-pinned fixture tests (``test_symlint_checkers.py``,
``test_symloc.py``, ``test_symshare.py``) check that each seeded line
fires.  This file pins the *whole* report instead: ``render_json`` of
each fixture corpus, under all rules and under each checker group
singly, must equal the golden file byte for byte — so a refactor of the
analysis engine that adds, drops, moves or rewords any finding shows up
as a diff, not as a passing suite.  The zero-finding trees are pinned by
their ``(findings, suppressed)`` counts.

The goldens under ``tests/fixtures/lint_golden/`` were taken with
``PYTHONHASHSEED=0``, and the suite renders the reports in a child
interpreter under that seed: ``lock-order-cycle`` names a cycle starting
from whichever lock a ``set`` yields first, so its line and message
move with the seed.  A change that is *meant* to move a finding
regenerates the goldens, from the repo root::

    PYTHONHASHSEED=0 PYTHONPATH=src python -c \
        "from tests.test_symlint_golden import regenerate; regenerate()"
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.runner import (
    analyze_paths,
    render_json,
    rule_groups,
)

REPO_ROOT = Path(__file__).parent.parent
GOLDEN = Path("tests/fixtures/lint_golden")
CORPORA = ("symlint", "symloc", "symshare")
#: "all" plus every checker group, the selections ``--rules`` accepts
SELECTIONS = ("all", *sorted(rule_groups()))


def corpus_reports() -> dict[str, str]:
    """``render_json`` of every corpus x selection, keyed
    ``corpus/selection``; paths in the reports are relative to the
    working directory, which must be the repo root."""
    reports = {}
    for corpus in CORPORA:
        for selection in SELECTIONS:
            rules = None if selection == "all" else rule_groups()[selection]
            report = analyze_paths([f"tests/fixtures/{corpus}"], rules)
            reports[f"{corpus}/{selection}"] = render_json(report) + "\n"
    return reports


def regenerate() -> None:
    os.chdir(REPO_ROOT)
    for key, text in corpus_reports().items():
        path = GOLDEN / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


@pytest.fixture(scope="module")
def rendered():
    child = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.test_symlint_golden import "
         "corpus_reports; print(json.dumps(corpus_reports()))"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0",
             "PYTHONPATH": os.pathsep.join(
                 [str(REPO_ROOT / "src"), str(REPO_ROOT)])},
    )
    return json.loads(child.stdout)


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("corpus", CORPORA)
def test_fixture_corpus_report_is_pinned(rendered, corpus, selection):
    golden = (REPO_ROOT / GOLDEN / corpus / f"{selection}.json").read_text()
    assert rendered[f"{corpus}/{selection}"] == golden


def test_runtime_counts_are_pinned(runtime_report):
    """``src/repro``, all rules: nothing fires, and exactly the
    sanctioned pragmas absorb something."""
    assert (len(runtime_report.findings), runtime_report.suppressed) \
        == (0, 5)


def test_repo_wide_counts_are_pinned(repo_report):
    """Runtime + examples + test suite, all rules."""
    assert (len(repo_report.findings), repo_report.suppressed) == (0, 24)
