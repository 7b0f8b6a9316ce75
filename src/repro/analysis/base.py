"""Checker framework: findings, severities, modules, suppressions.

A :class:`Checker` sees the whole :class:`Project` (every parsed module)
so cross-file passes like the call-graph rules are first-class.  Line
suppressions use ``# symlint: disable=<rule>,<rule>`` on the offending
line or on the line directly above it, or
``# symlint: disable-next-line=<rule>`` to cover exactly the following
line; anything after the rule list is treated as the justification and
ignored by the parser.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.index import ModuleFacts


class Severity(enum.IntEnum):
    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""  # e.g. "AppOA.refs" or a message kind

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


_SUPPRESS_RE = re.compile(r"#\s*symlint:\s*disable=([\w\-,]+)")
_SUPPRESS_NEXT_RE = re.compile(
    r"#\s*symlint:\s*disable-next-line=([\w\-,]+)"
)
_ALL = "all"


@dataclass
class Module:
    """A parsed source file plus its suppression table."""

    path: str
    tree: ast.Module
    source_lines: list[str]
    #: line number -> set of suppressed rule names ("all" disables all)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "Module":
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        suppressions: dict[int, set[str]] = {}
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_NEXT_RE.search(text)
            if match:
                # disable-next-line covers exactly the following line,
                # never its own (trailing use is an explicit choice to
                # leave this line checked).
                rules = {
                    r.strip()
                    for r in match.group(1).split(",") if r.strip()
                }
                suppressions.setdefault(lineno + 1, set()).update(rules)
                continue
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            suppressions.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):
                # A pragma on its own line covers the next line too.
                suppressions.setdefault(lineno + 1, set()).update(rules)
        return cls(path, tree, lines, suppressions)

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return bool(rules) and (rule in rules or _ALL in rules)


@dataclass
class Project:
    """Every module under analysis, addressable by path, and the index
    of what the checkers share about them (:mod:`repro.analysis.index`):
    each fact is computed at first use, once, and dies with the project.
    """

    modules: list[Module]

    @cached_property
    def callgraph(self) -> CallGraph:
        from repro.analysis.callgraph import CallGraph

        return CallGraph(self)

    @cached_property
    def _facts(self) -> dict[str, ModuleFacts]:
        from repro.analysis.index import ModuleFacts

        return {m.path: ModuleFacts(self, m) for m in self.modules}

    def facts(self, module: Module) -> ModuleFacts:
        """The shared facts about one of this project's modules."""
        return self._facts[module.path]


class Checker:
    """Base class for one analysis pass.

    ``rules`` maps each rule id this checker can emit to its default
    :class:`Severity`; the runner uses it for ``--rules`` filtering and
    documentation.
    """

    name: str = "checker"
    rules: dict[str, Severity] = {}

    def check(self, project: Project) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self,
        rule: str,
        path: str,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            rule=rule,
            severity=self.rules[rule],
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr_name(node: ast.AST) -> str | None:
    """``x`` for ``self.x``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_methods(klass: ast.ClassDef):
    for item in klass.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item
