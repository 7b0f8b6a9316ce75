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

Handlers are what :meth:`repro.analysis.index.ModuleFacts.entry_points`
says they are: functions named ``_h_*`` or ``_on_*``, plus any function
referenced as the handler argument of ``endpoint.register(kind, fn)``.
Direct calls are flagged; for the RPC rule that includes the project
functions the handler calls (:func:`repro.analysis.index.reach`): a
handler split into a registered one-liner and a body with a plain
signature (``return self.migrate_out(*msg.payload)``) still blocks its
request process.  A raw ``time.sleep`` one or more calls away is left to
symsan's ``san-wall-sleep``, which sees it run inside a kernel process.
Nested function definitions are skipped.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, Finding, Project, Severity
from repro.analysis.callgraph import FuncInfo, direct_calls
from repro.analysis.index import reach


class BlockingHandlerChecker(Checker):
    name = "blocking-handler"
    rules = {
        "blocking-sleep-in-handler": Severity.ERROR,
        "blocking-rpc-in-handler": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            for handler in project.facts(module).entry_points():
                findings.extend(self._check_handler(project, handler))
        return findings

    def _check_handler(self, project: Project, handler: FuncInfo):
        where = handler.label
        # Its own calls, then those of the project functions it hands its
        # work to.
        for info in reach(project.callgraph, handler):
            for call in direct_calls(info.node):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if name == "sleep" and info is handler:
                    yield self.finding(
                        "blocking-sleep-in-handler",
                        info.key.path,
                        call,
                        f"message handler {where} sleeps; it stalls its "
                        "request process and delays every invocation "
                        "queued behind this object",
                        symbol=where,
                    )
                elif name == "rpc":
                    yield self.finding(
                        "blocking-rpc-in-handler",
                        info.key.path,
                        call,
                        f"message handler {where} performs a synchronous "
                        "RPC; a peer that calls back into this agent can "
                        "deadlock until the timeout. Use rpc_async/"
                        "send_oneway or suppress with a justification",
                        symbol=where,
                    )
