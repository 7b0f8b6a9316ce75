"""JRS protocol-surface analysis.

Cross-references every message-kind constant defined in a ``messages.py``
module (``NAME = "NAME"`` at module level) against the project's
``rpc``/``rpc_async``/``send_oneway``/``send`` transmissions.

Rule
----
``dead-kind`` (warning)
    A kind is declared in the messages module but never sent: dead
    protocol surface (reported at the declaration).  A send spelling
    the kind as a literal equal to its value counts: it dispatches the
    same way.

A kind sent but handled nowhere needs no rule: the receiving endpoint
rejects it (``Endpoint.handler_for``), and a two-way call raises in the
caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
)

SEND_FUNCS = {"rpc", "rpc_async", "send_oneway", "send"}


@dataclass
class _Site:
    module: Module
    node: ast.AST


@dataclass
class _Usage:
    #: kind name -> declaration (module, assign node)
    declared: dict[str, _Site] = field(default_factory=dict)
    values: dict[str, str] = field(default_factory=dict)  # value -> name
    sent: set[str] = field(default_factory=set)


def _messages_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to a ``messages`` module by imports."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "messages":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.endswith(".messages") or \
                        alias.name == "messages":
                    if alias.asname:
                        aliases.add(alias.asname)
                    elif alias.name == "messages":
                        aliases.add("messages")
    return aliases


def _declared_kinds(module: Module) -> dict[str, tuple[str, ast.AST]]:
    """Module-level ``NAME = "VALUE"`` string constants, uppercase only."""
    kinds: dict[str, tuple[str, ast.AST]] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name) or not target.id.isupper():
            continue
        if isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            kinds[target.id] = (node.value.value, node)
    return kinds


class ProtocolChecker(Checker):
    name = "protocol"
    rules = {"dead-kind": Severity.WARNING}

    def check(self, project: Project) -> list[Finding]:
        usage = _Usage()
        message_modules = project.by_basename("messages.py")
        for module in message_modules:
            for name, (value, node) in _declared_kinds(module).items():
                usage.declared.setdefault(name, _Site(module, node))
                usage.values.setdefault(value, name)
        if not usage.declared:
            return []
        for module in project.modules:
            usage.sent.update(self._sent_kinds(module, usage))
        return [
            self.finding(
                "dead-kind",
                site.module.path,
                site.node,
                f"message kind {name} is declared but never sent "
                "anywhere in the analyzed code: dead protocol surface "
                "(or the sender was not included in the lint paths)",
                symbol=name,
            )
            for name, site in usage.declared.items()
            if name not in usage.sent
        ]

    def _sent_kinds(self, module: Module, usage: _Usage):
        """Declared kinds this module sends, as ``M.KIND`` or as a
        literal equal to a declared kind's value."""
        aliases = _messages_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in SEND_FUNCS):
                continue
            args = list(node.args) + [
                kw.value for kw in node.keywords if kw.arg == "kind"
            ]
            for arg in args:
                name = self._constant_ref(arg, aliases, usage)
                if name is None and isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, str):
                    name = usage.values.get(arg.value)
                if name is not None:
                    yield name

    @staticmethod
    def _constant_ref(
        node: ast.AST, aliases: set[str], usage: _Usage
    ) -> str | None:
        """``M.KIND`` / ``messages.KIND`` -> "KIND" when KIND is known."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in usage.declared
        ):
            return node.attr
        return None
