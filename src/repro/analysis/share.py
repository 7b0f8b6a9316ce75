"""symshare: copy-semantics and stale-reference rules.

JavaSymphony invocations pass arguments across host boundaries **by
copy** while local aliases keep **reference** semantics (paper
§4.4–4.6), and ``migrate`` invalidates any cached notion of where an
object lives.  Neither symlint (locks), symloc (communication shape)
nor the runtime symsan sanitizer can see the resulting bug classes —
they need alias, escape and lifetime reasoning.  This pass layers the
three symshare engines over each function:

* :mod:`repro.analysis.alias` answers "which names may denote the
  object that was sent?";
* :mod:`repro.analysis.escape` answers "what do callees do with the
  arguments I hand them?" (bottom-up SCC summaries, so flows through
  project functions are visible);
* :mod:`repro.analysis.typestate` tracks protocol states — result
  handles (created → polled → consumed; oneway handles are ``None``)
  and resolved locations (valid → stale-after-migrate).

Rules
-----
``mutate-after-send`` (error)
    An object aliased into an ``ainvoke``/``minvoke`` argument is
    mutated — directly or through a callee — before the handle is
    awaited.  The remote side was handed a pre-mutation copy; the write
    only diverges the local replica.  Polling ``is_ready()`` does not
    clear the window (polled != consumed).

``live-resource-in-remote-arg`` (error)
    A lock, kernel, tracer, future, open file or result handle flows —
    possibly through callees, via escape summaries — into a
    remote-invoke argument: a guaranteed pickle failure, or worse, a
    live resource silently copied.

``stale-ref-after-migrate`` (warning)
    A node resolved with ``get_node()`` is used as a placement or
    migration target after the same object migrated; the cached
    location no longer matches where the object lives.

``oneway-result-consumed`` (error)
    ``oinvoke`` is one-sided and returns ``None``; awaiting or polling
    its "result" fails at runtime.

``handle-escapes-unawaited`` (warning)
    A result handle escapes into an attribute that no code in the
    project ever reads, or a handle-returning project function's result
    is provably discarded at a call site — strictly stronger than
    symloc's local ``dropped-result-handle``, which only sees direct
    ``ainvoke`` statements.

Suppress with ``# symlint: disable=<rule>`` plus a justification, as
for every other pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.alias import AliasAnalysis
from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
    dotted_name,
    self_attr_name,
)
from repro.analysis.callgraph import FuncInfo, FuncKey
from repro.analysis.cfg import Block, calls_in_stmt
from repro.analysis.dataflow import Definition
from repro.analysis.escape import (
    HANDLE_INVOKES,
    MUTATOR_METHODS,
    REMOTE_INVOKES,
    arg_value_names,
    map_call_args,
)
from repro.analysis.index import FunctionFacts, excluded_path
from repro.analysis.typestate import TSEvent, TypestateAnalysis, TypestateSpec

#: methods that consume a handle's result (block until / yield results)
AWAIT_METHODS = {"get_result", "get_results", "outcomes", "as_completed"}
#: non-blocking readiness probes — these do NOT consume the handle
POLL_METHODS = {"is_ready", "ready_count"}

#: constructors whose value is a live local resource (last path part)
RESOURCE_CTORS = {
    "Lock": "lock", "RLock": "lock", "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore", "Condition": "condition",
    "Event": "event", "Barrier": "barrier", "open": "open file",
    "Tracer": "tracer", "RealKernel": "kernel", "VirtualKernel": "kernel",
}
#: factory methods producing sanitizer-tracked / kernel-tied resources
RESOURCE_FACTORIES = {
    "make_lock": "lock", "make_semaphore": "semaphore",
    "create_future": "future",
}

#: the handle protocol — poll is observably not consumption
HANDLE_SPEC = TypestateSpec(
    name="handle",
    births={"@handle": "created", "@oneway": "oneway"},
    transitions={
        ("created", "await"): "consumed",
        ("polled", "await"): "consumed",
        ("created", "poll"): "polled",
        ("polled", "poll"): "polled",
        ("created", "escape"): "escaped",
        ("polled", "escape"): "escaped",
    },
    errors={
        ("oneway", "await"): "oneway-await",
        ("oneway", "poll"): "oneway-poll",
    },
    escape_state="escaped",
    copy_kills_source=True,
)

#: resolved locations — migrate invalidates, re-resolving re-births
LOCATION_SPEC = TypestateSpec(
    name="location",
    births={"@loc": "valid"},
    transitions={("valid", "migrate"): "stale"},
    errors={("stale", "use"): "stale-use"},
)

#: handle states in which the remote result is still outstanding
UNAWAITED = {"created", "polled"}


def _invoke_attr(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute) and \
            call.func.attr in REMOTE_INVOKES:
        return call.func.attr
    return None


def _call_arg_exprs(call: ast.Call) -> list[ast.expr]:
    return list(call.args) + [kw.value for kw in call.keywords]


def _payload_names(call: ast.Call) -> set[str]:
    names: set[str] = set()
    for arg in _call_arg_exprs(call):
        names |= arg_value_names(arg)
    return names


def _receiver_text(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


@dataclass
class _SendSite:
    """One ``ainvoke``/``minvoke`` whose payload we watch for mutation."""

    handle: str  # bound name, or "@send:<line>" for discarded handles
    invoke: str
    line: int
    block_id: int
    idx: int
    #: alias-of-payload name -> its bindings in force at the send
    watch: dict[str, frozenset[Definition]]
    #: the handle's own binding, to tell this send apart from a later
    #: rebinding of the same name (None for synthetic/discarded sends)
    handle_def: Definition | None = None
    synthetic: bool = False


@dataclass
class _FieldStore:
    """``recv.attr = <handle>`` awaiting a project-wide read check."""

    module: Module
    node: ast.AST
    attr: str
    owner: str


class _FunctionPass:
    """All symshare per-function state for one CFG."""

    def __init__(
        self,
        checker: "SymshareChecker",
        project: Project,
        module: Module,
        func: FunctionFacts,
    ) -> None:
        self.checker = checker
        self.module = module
        self.qualname = func.qualname
        self.cfg = cfg = func.cfg
        self.graph = project.callgraph
        self.escape = project.escape
        self.lock_attrs = func.lock_attrs
        self.info: FuncInfo | None = self.graph.functions.get(
            FuncKey(module.path, func.qualname)
        )
        self.reaching = func.reaching
        self.alias = AliasAnalysis(cfg, self.reaching)
        self.sends: list[_SendSite] = []
        self.field_stores: list[_FieldStore] = []
        self._handle_events: dict[int, list[TSEvent]] = {}
        self._location_events: dict[int, list[TSEvent]] = {}
        self._collect_events()
        self.handles = TypestateAnalysis(
            cfg, HANDLE_SPEC,
            lambda stmt: self._handle_events.get(id(stmt), ()),
        )
        self.locations = TypestateAnalysis(
            cfg, LOCATION_SPEC,
            lambda stmt: self._location_events.get(id(stmt), ()),
        )

    # -- event tables --------------------------------------------------------

    def _is_handle_call(self, call: ast.Call) -> bool:
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in HANDLE_INVOKES:
            return True
        if self.info is not None:
            for callee in self.graph.resolve(self.info, call):
                if self.escape.summary(callee.key).returns_handle:
                    return True
        return False

    def _collect_events(self) -> None:
        #: location name -> receiver texts it was resolved from
        owners: dict[str, set[str]] = {}
        for _block, _idx, stmt in self.cfg.statements():
            if not (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)):
                continue
            call = stmt.value
            if isinstance(call.func, ast.Attribute) and \
                    call.func.attr == "get_node":
                recv = _receiver_text(call)
                if recv is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        owners.setdefault(target.id, set()).add(recv)

        for block, idx, stmt in self.cfg.statements():
            self._handle_events[id(stmt)] = self._stmt_handle_events(
                block, idx, stmt
            )
            self._location_events[id(stmt)] = self._stmt_location_events(
                block, idx, stmt, owners
            )

    def _stmt_handle_events(self, block: Block, idx: int,
                            stmt: ast.AST) -> list[TSEvent]:
        events: list[TSEvent] = []
        birth_names: set[str] = set()
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            value = stmt.value
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
        if isinstance(value, ast.Call):
            kind: str | None = None
            if self._is_handle_call(value):
                kind = "@handle"
            elif isinstance(value.func, ast.Attribute) and \
                    value.func.attr == "oinvoke":
                kind = "@oneway"
            if kind is not None:
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else []
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if not names and isinstance(stmt, ast.Expr) and \
                        kind == "@handle":
                    # Discarded send: track it under a synthetic name so
                    # mutate-after-send still sees the (never-closable)
                    # window.  symloc's dropped-result-handle owns the
                    # "you dropped it" report itself.
                    names = [f"@send:{getattr(stmt, 'lineno', 0)}"]
                for name in names:
                    events.append(TSEvent(name, kind, stmt))
                    birth_names.add(name)
                if kind == "@handle" and \
                        _invoke_attr(value) in HANDLE_INVOKES:
                    self._record_send(block, idx, stmt, value, names)
        # consume / poll / escape events
        for call, _depth in calls_in_stmt(stmt):
            func = call.func
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name):
                if func.attr in AWAIT_METHODS:
                    events.append(TSEvent(func.value.id, "await", call))
                elif func.attr in POLL_METHODS:
                    events.append(TSEvent(func.value.id, "poll", call))
            for arg in _call_arg_exprs(call):
                for name in arg_value_names(arg):
                    if name not in birth_names:
                        events.append(TSEvent(name, "escape", call))
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            for name in arg_value_names(stmt.value):
                events.append(TSEvent(name, "escape", stmt))
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for name in arg_value_names(stmt.value):
                        events.append(TSEvent(name, "escape", stmt))
        return events

    def _record_send(self, block: Block, idx: int, stmt: ast.AST,
                     call: ast.Call, names: list[str]) -> None:
        payload = _payload_names(call)
        if not payload:
            return
        watch: dict[str, frozenset[Definition]] = {}
        for name in payload:
            for alias in self.alias.may_aliases(block, idx, name):
                watch[alias] = self._defs_of(block, idx, alias)
        for handle in names:
            synthetic = handle.startswith("@send:")
            self.sends.append(_SendSite(
                handle=handle,
                invoke=_invoke_attr(call) or "ainvoke",
                line=getattr(call, "lineno", 0),
                block_id=block.id,
                idx=idx,
                watch=watch,
                handle_def=None if synthetic else Definition(
                    handle, block.id, idx, getattr(stmt, "lineno", 0)
                ),
                synthetic=synthetic,
            ))

    def _stmt_location_events(self, block: Block, idx: int, stmt: ast.AST,
                              owners: dict[str, set[str]]) -> list[TSEvent]:
        events: list[TSEvent] = []
        if isinstance(stmt, ast.Assign) and \
                isinstance(stmt.value, ast.Call) and \
                isinstance(stmt.value.func, ast.Attribute) and \
                stmt.value.func.attr == "get_node":
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    events.append(TSEvent(target.id, "@loc", stmt))
        for call, _depth in calls_in_stmt(stmt):
            func = call.func
            is_migrate = isinstance(func, ast.Attribute) and \
                func.attr == "migrate"
            if is_migrate:
                recv = _receiver_text(call)
                if recv is not None:
                    aliases = {recv}
                    if "." not in recv:
                        aliases |= self.alias.may_aliases(block, idx, recv)
                    for loc, loc_owners in owners.items():
                        if loc_owners & aliases:
                            events.append(TSEvent(loc, "migrate", call))
            if is_migrate or _invoke_attr(call) is not None or (
                isinstance(func, ast.Name)
                and func.id in ("JSObj", "JSStatic")
            ):
                for arg in _call_arg_exprs(call):
                    for name in arg_value_names(arg):
                        if name in owners:
                            events.append(TSEvent(name, "use", call))
        return events

    # -- helpers -------------------------------------------------------------

    def _defs_of(self, block: Block, idx: int, name: str) -> frozenset:
        return frozenset(
            d for d in self.reaching.reaching_before(block, idx)
            if d.name == name
        )

    def _finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return self.checker.finding(
            rule, self.module.path, node, message, symbol=self.qualname
        )

    # -- mutate-after-send ---------------------------------------------------

    def _reachable_from(self, block_id: int) -> set[int]:
        seen = {block_id}
        work = [block_id]
        while work:
            for succ in self.cfg.block(work.pop()).succs:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def _mutations(self, stmt: ast.AST) -> list[tuple[str, ast.AST, str]]:
        """``(name, node, how)`` for every in-place mutation this
        statement performs on a plain name's object."""
        out: list[tuple[str, ast.AST, str]] = []
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if isinstance(target, ast.Name):
                out.append((target.id, stmt, "augmented assignment"))
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                for base in arg_value_names(target.value):
                    out.append((base, stmt, "item/attribute write"))
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for base in arg_value_names(target.value):
                        out.append((base, stmt, "item/attribute write"))
        for call, _depth in calls_in_stmt(stmt):
            func = call.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in MUTATOR_METHODS and \
                    isinstance(func.value, ast.Name):
                out.append((func.value.id, call, f".{func.attr}(...)"))
            if self.info is not None and _invoke_attr(call) is None:
                effects = self.escape.arg_effects(self.info, call)
                for name, kinds in effects.items():
                    if "mutate" in kinds:
                        callee = dotted_name(func) or "callee"
                        out.append((
                            name, call, f"mutation inside {callee}(...)"
                        ))
        return out

    def check_mutate_after_send(self) -> list[Finding]:
        if not self.sends:
            return []
        findings: list[Finding] = []
        reach_cache: dict[int, set[int]] = {}
        for block, idx, stmt in self.cfg.statements():
            mutations = self._mutations(stmt)
            if not mutations:
                continue
            facts = None
            for send in self.sends:
                if send.block_id == block.id and idx <= send.idx:
                    continue
                if send.synthetic:
                    # No handle name to track: the window never closes,
                    # so any mutation reachable from the send is in it.
                    reach = reach_cache.get(send.block_id)
                    if reach is None:
                        reach = self._reachable_from(send.block_id)
                        reach_cache[send.block_id] = reach
                    in_window = block.id in reach
                else:
                    if facts is None:
                        facts = self.handles.facts_before(block, idx)
                    # The handle may still be unawaited here, and its
                    # binding is the one this send created (a later
                    # send rebinding the same name kills the old def).
                    in_window = any(
                        n == send.handle and state in UNAWAITED
                        for n, state in facts
                    ) and send.handle_def in self._defs_of(
                        block, idx, send.handle
                    )
                if not in_window:
                    continue
                findings.extend(
                    self._judge_mutation(send, block, idx, mutations)
                )
        return findings

    def _judge_mutation(
        self,
        send: _SendSite,
        block: Block,
        idx: int,
        mutations: list[tuple[str, ast.AST, str]],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for name, node, how in mutations:
            for candidate in self.alias.may_aliases(block, idx, name):
                watched = send.watch.get(candidate)
                if watched is None:
                    continue
                here = self._defs_of(block, idx, candidate)
                if (watched or here) and not (watched & here):
                    continue  # rebound since the send: different object
                suffix = (
                    "the handle was discarded, so there is no await to "
                    "synchronize on" if send.synthetic else
                    f"awaiting '{send.handle}' first makes the ordering "
                    "explicit"
                )
                findings.append(self._finding(
                    "mutate-after-send", node,
                    f"'{name}' aliases an argument of {send.invoke} at "
                    f"line {send.line}, which crossed the host boundary "
                    f"by copy; this {how} before the result is awaited "
                    f"only diverges the local replica — the remote side "
                    f"keeps the pre-mutation value ({suffix})",
                ))
                break
        return findings

    # -- live-resource-in-remote-arg ----------------------------------------

    def _resource_names(self) -> dict[str, str]:
        resources: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for _block, _idx, stmt in self.cfg.statements():
                if not isinstance(stmt, ast.Assign):
                    continue
                kind = self._resource_kind(stmt.value, resources)
                if kind is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and \
                            target.id not in resources:
                        resources[target.id] = kind
                        changed = True
        return resources

    def _resource_kind(self, value: ast.expr,
                       resources: dict[str, str]) -> str | None:
        if isinstance(value, ast.Name):
            return resources.get(value.id)
        attr = self_attr_name(value)
        if attr is not None and attr in self.lock_attrs:
            return "lock"
        if not isinstance(value, ast.Call):
            return None
        if isinstance(value.func, ast.Attribute):
            if value.func.attr in RESOURCE_FACTORIES:
                return RESOURCE_FACTORIES[value.func.attr]
            if value.func.attr in HANDLE_INVOKES:
                return "result handle"
        last = (dotted_name(value.func) or "").rsplit(".", 1)[-1]
        return RESOURCE_CTORS.get(last)

    def check_live_resources(self) -> list[Finding]:
        findings: list[Finding] = []
        resources = self._resource_names()
        for _block, _idx, stmt in self.cfg.statements():
            for call, _depth in calls_in_stmt(stmt):
                invoke = _invoke_attr(call)
                if invoke is not None:
                    findings.extend(self._direct_resource_args(
                        call, invoke, resources
                    ))
                elif self.info is not None:
                    findings.extend(self._relayed_resource_args(
                        call, resources
                    ))
        return findings

    def _describe_resource(self, arg: ast.expr,
                           resources: dict[str, str]) -> tuple[str, str] | None:
        for name in arg_value_names(arg):
            kind = resources.get(name)
            if kind is not None:
                return f"'{name}'", kind
        attr = self_attr_name(arg)
        if attr is not None and attr in self.lock_attrs:
            return f"'self.{attr}'", "lock"
        return None

    def _direct_resource_args(self, call: ast.Call, invoke: str,
                              resources: dict[str, str]):
        for arg in _call_arg_exprs(call):
            hit = self._describe_resource(arg, resources)
            if hit is None:
                continue
            label, kind = hit
            yield self._finding(
                "live-resource-in-remote-arg", call,
                f"{label} is a live {kind} passed as a {invoke} "
                "argument; remote arguments are pickled copies, so this "
                "either fails to serialize or ships a dead replica of a "
                "local resource",
            )

    def _relayed_resource_args(self, call: ast.Call,
                               resources: dict[str, str]):
        assert self.info is not None
        for callee in self.graph.resolve(self.info, call):
            summary = self.escape.summary(callee.key)
            for param, arg in map_call_args(callee, call):
                if "remote" not in summary.escape_kinds(param):
                    continue
                hit = self._describe_resource(arg, resources)
                if hit is None:
                    continue
                label, kind = hit
                yield self._finding(
                    "live-resource-in-remote-arg", call,
                    f"{label} is a live {kind} that flows into a "
                    f"remote-invoke argument inside {callee.label}(...) "
                    f"(parameter '{param}'); remote arguments are "
                    "pickled copies, so this either fails to serialize "
                    "or ships a dead replica",
                )

    # -- typestate-driven rules ----------------------------------------------

    def check_oneway(self) -> list[Finding]:
        findings: list[Finding] = []
        for violation in self.handles.violations():
            if violation.error not in ("oneway-await", "oneway-poll"):
                continue
            call = violation.event.node
            method = (
                call.func.attr if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) else "get_result"
            )
            findings.append(self._finding(
                "oneway-result-consumed", call,
                f"'{violation.name}' is the value of oinvoke, which is "
                f"one-sided and returns None — '.{method}()' fails at "
                "runtime; use ainvoke when the result matters",
            ))
        # chained form: obj.oinvoke(...).get_result()
        for _block, _idx, stmt in self.cfg.statements():
            for call, _depth in calls_in_stmt(stmt):
                func = call.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in AWAIT_METHODS | POLL_METHODS
                        and isinstance(func.value, ast.Call)
                        and isinstance(func.value.func, ast.Attribute)
                        and func.value.func.attr == "oinvoke"):
                    continue
                findings.append(self._finding(
                    "oneway-result-consumed", call,
                    f"oinvoke is one-sided and returns None — chaining "
                    f"'.{func.attr}()' onto it fails at runtime; use "
                    "ainvoke when the result matters",
                ))
        return findings

    def check_stale_refs(self) -> list[Finding]:
        findings: list[Finding] = []
        for violation in self.locations.violations():
            findings.append(self._finding(
                "stale-ref-after-migrate", violation.event.node,
                f"'{violation.name}' caches a get_node() resolution "
                "taken before the object migrated; the location is "
                "stale — re-resolve with get_node() after migrate",
            ))
        return findings

    # -- handle-escapes-unawaited (field half, per function) -----------------

    def collect_field_stores(self) -> None:
        for block, idx, stmt in self.cfg.statements():
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            is_handle = (
                isinstance(value, ast.Call) and self._is_handle_call(value)
            )
            if not is_handle and isinstance(value, ast.Name):
                states = self.handles.states_before(block, idx, value.id)
                is_handle = bool(states & UNAWAITED)
            if not is_handle:
                continue
            for target in stmt.targets:
                if not isinstance(target, ast.Attribute):
                    continue
                owner = dotted_name(target.value) or "<expr>"
                self.field_stores.append(_FieldStore(
                    self.module, stmt, target.attr, owner
                ))


class SymshareChecker(Checker):
    name = "symshare"
    rules = {
        "mutate-after-send": Severity.ERROR,
        "live-resource-in-remote-arg": Severity.ERROR,
        "stale-ref-after-migrate": Severity.WARNING,
        "oneway-result-consumed": Severity.ERROR,
        "handle-escapes-unawaited": Severity.WARNING,
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        field_stores: list[_FieldStore] = []
        for module in project.modules:
            if excluded_path(module.path):
                continue
            for func in project.facts(module).functions:
                run = _FunctionPass(self, project, module, func)
                findings.extend(run.check_mutate_after_send())
                findings.extend(run.check_live_resources())
                findings.extend(run.check_oneway())
                findings.extend(run.check_stale_refs())
                run.collect_field_stores()
                field_stores.extend(run.field_stores)
        findings.extend(self._unread_handle_fields(project, field_stores))
        findings.extend(self._dropped_handle_wrappers(project))
        return findings

    # -- handle-escapes-unawaited, project-wide halves -----------------------

    def _unread_handle_fields(
        self, project: Project, stores: list[_FieldStore]
    ) -> list[Finding]:
        if not stores:
            return []
        read_attrs: set[str] = set()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    read_attrs.add(node.attr)
        findings = []
        for store in stores:
            if store.attr in read_attrs:
                continue
            findings.append(self.finding(
                "handle-escapes-unawaited", store.module.path, store.node,
                f"result handle stored into '{store.owner}.{store.attr}' "
                "but no code in the project ever reads that attribute — "
                "the handle can never be awaited and its result (or "
                "error) is silently dropped",
                symbol=store.attr,
            ))
        return findings

    def _dropped_handle_wrappers(self, project: Project) -> list[Finding]:
        """Call sites of handle-returning *project* functions whose
        value is provably discarded.  Direct ``obj.ainvoke`` discards
        stay symloc's ``dropped-result-handle``; here the handle hides
        behind at least one project call, which that local rule cannot
        see."""
        findings: list[Finding] = []
        for module in project.modules:
            if excluded_path(module.path):
                continue
            for info in project.callgraph.functions_in(module.path):
                findings.extend(self._scan_drop_sites(project, info))
        return findings

    def _scan_drop_sites(self, project: Project, info: FuncInfo):
        graph, escape = project.callgraph, project.escape
        loads: dict[str, int] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id] = loads.get(node.id, 0) + 1
        for stmt in ast.walk(info.node):
            call: ast.Call | None = None
            dropped = False
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                dropped = True
            elif isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.value, ast.Call) and \
                    len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                call = stmt.value
                dropped = loads.get(stmt.targets[0].id, 0) == 0
            if call is None or not dropped:
                continue
            for callee in graph.resolve(info, call):
                if not escape.summary(callee.key).returns_handle:
                    continue
                yield self.finding(
                    "handle-escapes-unawaited", info.key.path, call,
                    f"{callee.label}(...) returns a result handle that "
                    "is discarded here — the asynchronous result (and "
                    "any remote error) is lost; await it or make the "
                    "callee use oinvoke",
                    symbol=info.label,
                )
                break
