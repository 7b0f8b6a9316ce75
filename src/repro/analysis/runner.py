"""File collection, checker orchestration and report rendering."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.analysis.base import Checker, Finding, Module, Project, Severity
from repro.analysis.locality import LocalityChecker

SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def default_checkers() -> list[Checker]:
    return [LocalityChecker()]


def known_rules() -> dict[str, Severity]:
    rules: dict[str, Severity] = {"parse-error": Severity.ERROR}
    for checker in default_checkers():
        rules.update(checker.rules)
    return rules


def rule_groups() -> dict[str, set[str]]:
    """Checker name -> its rule ids, so ``--rules locality`` selects a
    whole pass at once."""
    return {c.name: set(c.rules) for c in default_checkers()}


def expand_rules(tokens: set[str]) -> tuple[set[str], set[str]]:
    """Expand group names in ``tokens``; returns (rules, unknown)."""
    groups = rule_groups()
    known = set(known_rules())
    rules: set[str] = set()
    unknown: set[str] = set()
    for token in tokens:
        if token in groups:
            rules |= groups[token]
        elif token in known:
            rules.add(token)
        else:
            unknown.add(token)
    return rules, unknown


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "files": self.files,
                "suppressed": self.suppressed,
                "error": self.count(Severity.ERROR),
                "warning": self.count(Severity.WARNING),
                "info": self.count(Severity.INFO),
            },
        }


def collect_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files.extend(
                os.path.join(root, n) for n in sorted(names)
                if n.endswith(".py")
            )
    # de-duplicate while preserving order
    seen: set[str] = set()
    unique = []
    for f in files:
        norm = os.path.normpath(f)
        if norm not in seen:
            seen.add(norm)
            unique.append(norm)
    return unique


def load_project(paths: list[str]) -> tuple[Project, list[Finding]]:
    modules: list[Module] = []
    parse_failures: list[Finding] = []
    for path in collect_files(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            modules.append(Module.parse(path, source))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            lineno = getattr(exc, "lineno", 0) or 0
            parse_failures.append(
                Finding(
                    rule="parse-error",
                    severity=Severity.ERROR,
                    path=path,
                    line=lineno,
                    col=0,
                    message=f"cannot analyze file: {exc}",
                )
            )
    return Project(modules), parse_failures


def analyze_paths(
    paths: list[str],
    rules: set[str] | None = None,
) -> Report:
    """Run the analysis over ``paths`` (files or directories)."""
    return analyze_project(*load_project(paths), rules)


def analyze_project(
    project: Project,
    parse_failures: list[Finding],
    rules: set[str] | None = None,
) -> Report:
    """Run the analysis over what :func:`load_project` returned, which
    callers with several rule sets to check can therefore load once.

    ``rules`` restricts the report to the given rule ids, and the run to
    the checkers that own one of them; suppression pragmas in the source
    are always honored.
    """
    findings = list(parse_failures)
    report = Report(files=len(project.modules))
    by_path = {m.path: m for m in project.modules}
    for checker in default_checkers():
        if rules is None or not rules.isdisjoint(checker.rules):
            findings.extend(checker.check(project))
    for finding in findings:
        if rules is not None and finding.rule not in rules:
            continue
        module = by_path.get(finding.path)
        if module is not None and \
                module.is_suppressed(finding.rule, finding.line):
            report.suppressed += 1
            continue
        report.findings.append(finding)
    # Deterministic output: drop exact duplicates and order by
    # location, then rule.
    report.findings = sorted(
        set(report.findings),
        key=lambda f: (f.path, f.line, f.rule, f.col, f.message),
    )
    return report


def _summary_line(report: Report) -> str:
    """Every severity's count, so the findings that fail ``--strict``
    are never missing from the line that sums them up."""
    return (
        f"symlint: {report.files} files, "
        f"{report.count(Severity.ERROR)} errors, "
        f"{report.count(Severity.WARNING)} warnings, "
        f"{report.count(Severity.INFO)} info"
        + (f", {report.suppressed} suppressed" if report.suppressed else "")
    )


def render_text(report: Report) -> str:
    lines = []
    for f in report.findings:
        symbol = f" [{f.symbol}]" if f.symbol else ""
        lines.append(
            f"{f.path}:{f.line}:{f.col}: {f.severity}: "
            f"{f.rule}: {f.message}{symbol}"
        )
    lines.append(_summary_line(report))
    return "\n".join(lines)


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2)


def render_sarif(report: Report) -> str:
    """SARIF 2.1.0, the exchange format GitHub code scanning ingests.
    One run, tool ``symlint``; every rule that appears in the findings
    gets a driver rule entry so viewers can show severities and help."""
    level = {
        Severity.ERROR: "error",
        Severity.WARNING: "warning",
        Severity.INFO: "note",
    }
    all_rules = known_rules()
    used = sorted({f.rule for f in report.findings})
    rules = [
        {
            "id": rule,
            "defaultConfiguration": {
                "level": level[all_rules.get(rule, Severity.WARNING)],
            },
        }
        for rule in used
    ]
    rule_index = {rule: i for i, rule in enumerate(used)}
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": level[f.severity],
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace(os.sep, "/"),
                        },
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col + 1,
                        },
                    },
                }
            ],
        }
        for f in report.findings
    ]
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "symlint",
                        "informationUri":
                            "https://github.com/pysymphony/pysymphony",
                        "rules": rules,
                    },
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)


def render_github(report: Report) -> str:
    """GitHub Actions workflow commands: each finding becomes an
    ``::error``/``::warning`` annotation on the offending file line."""
    level = {
        Severity.ERROR: "error",
        Severity.WARNING: "warning",
        Severity.INFO: "notice",
    }
    lines = []
    for f in report.findings:
        # Annotation bodies are single-line; newlines would end the
        # workflow command early.
        message = f"{f.rule}: {f.message}".replace("\n", " ")
        lines.append(
            f"::{level[f.severity]} file={f.path},line={f.line},"
            f"col={f.col}::{message}"
        )
    lines.append(_summary_line(report))
    return "\n".join(lines)
