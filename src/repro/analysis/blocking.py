"""Blocking-call-in-handler analysis.

Agent message handlers run one transport process per incoming request
(paper: "one thread per request on the PubOA"), but a handler that
sleeps or performs a nested synchronous RPC ties up its request slot,
holds the per-object executing flag, and — when the peer calls back into
the sender — can produce a distributed call cycle that only resolves by
timeout.

Rules
-----
``blocking-sleep-in-handler`` (error)
    ``time.sleep`` / ``kernel.sleep`` directly inside a message handler.

``blocking-rpc-in-handler`` (warning)
    A synchronous ``.rpc(...)`` call directly inside a message handler;
    prefer ``rpc_async``/``send_oneway`` or justify with a suppression
    (the migration push in Figure 3 is the one legitimate case).

Handlers are methods named ``_h_*`` or ``_on_*``, plus any function
referenced as the handler argument of ``endpoint.register(kind, fn)``.
Direct calls are flagged; for the RPC rule that includes the plain
methods of its class the handler calls as ``self.<method>(...)``: a
handler split into a registered one-liner and a body with a plain
signature (``return self.migrate_out(*msg.payload)``) still blocks its
request process.  (Sleeps one or more hops away belong to
``kernel-block-transitive``.)  Nested function definitions are skipped.

Call enumeration runs on the shared CFG engine
(:mod:`repro.analysis.cfg`): the handler body is lowered to basic
blocks and each block's statement-granular call sites are inspected —
the same traversal symloc's locality rules use.
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
    iter_methods,
    self_attr_name,
)
from repro.analysis.cfg import build_cfg, calls_in_stmt

HANDLER_PREFIXES = ("_h_", "_on_")


def _registered_handler_names(tree: ast.Module) -> set[str]:
    """Function/method names passed as the handler to ``.register``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "register":
            continue
        if len(node.args) < 2:
            continue
        handler = node.args[1]
        if isinstance(handler, ast.Name):
            names.add(handler.id)
        else:
            attr = self_attr_name(handler)
            if attr is not None:
                names.add(attr)
    return names


def _is_handler(func: ast.FunctionDef, registered: set[str]) -> bool:
    return func.name.startswith(HANDLER_PREFIXES) or func.name in registered


def _direct_calls(func: ast.FunctionDef):
    """Call nodes in the handler body, skipping nested defs/lambdas.

    Enumerated via the CFG so blocking shares one notion of "executes
    in this function" with the locality rules.
    """
    cfg = build_cfg(func)
    for _block, _idx, stmt in cfg.statements():
        for call, _comp_depth in calls_in_stmt(stmt):
            yield call


class BlockingHandlerChecker(Checker):
    name = "blocking-handler"
    rules = {
        "blocking-sleep-in-handler": Severity.ERROR,
        "blocking-rpc-in-handler": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            registered = _registered_handler_names(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                plain = {
                    m.name: m for m in iter_methods(node)
                    if not _is_handler(m, registered)
                }
                for method in iter_methods(node):
                    if method.name in plain:
                        continue
                    findings.extend(
                        self._check_handler(module, node, method, plain)
                    )
        return findings

    def _check_handler(
        self, module: Module, klass: ast.ClassDef, method: ast.FunctionDef,
        plain: dict[str, ast.FunctionDef],
    ):
        where = f"{klass.name}.{method.name}"
        # (call, made by the handler itself?) — its own calls, then one
        # hop: those of the plain methods it hands its work to.
        own = list(_direct_calls(method))
        calls = [(call, True) for call in own] + [
            (call, False)
            for name in dict.fromkeys(self_attr_name(c.func) for c in own)
            if name in plain
            for call in _direct_calls(plain[name])
        ]
        for call, direct in calls:
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name == "sleep" and direct:
                yield self.finding(
                    "blocking-sleep-in-handler",
                    module.path,
                    call,
                    f"message handler {where} sleeps; it stalls its "
                    "request process and delays every invocation queued "
                    "behind this object",
                    symbol=where,
                )
            elif name == "rpc":
                yield self.finding(
                    "blocking-rpc-in-handler",
                    module.path,
                    call,
                    f"message handler {where} performs a synchronous "
                    "RPC; a peer that calls back into this agent can "
                    "deadlock until the timeout. Use rpc_async/"
                    "send_oneway or suppress with a justification",
                    symbol=where,
                )
