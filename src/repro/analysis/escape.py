"""Per-function escape summaries, propagated bottom-up over SCCs.

For every project function we answer, flow-insensitively: *where can
each parameter's object end up, and which parameters does the function
mutate?*  The escape kinds mirror the boundaries that matter in a
copy-semantics RMI system (paper §4.4–4.6: arguments cross hosts **by
value**, local aliases stay **by reference**):

* ``"remote"`` — flows into an argument of ``sinvoke``/``ainvoke``/
  ``oinvoke``/``minvoke`` (pickled and copied to another host);
* ``"return"`` — returned to the caller;
* ``"field"`` — stored into an attribute or subscript (outlives the
  call);
* ``"closure"`` — captured free by a nested ``def``/``lambda`` (may run
  later, on another thread).

Summaries compose interprocedurally: passing ``x`` to a callee
parameter that itself escapes remotely marks ``x`` remote in the
caller.  Propagation follows :meth:`CallGraph.scc_order` — callees
first, mutual recursion iterated to a fixpoint inside each SCC.  All
facts are unions over a finite kind set and callee summaries only ever
*grow* a caller's summary, so each SCC converges; the same argument
makes summaries monotone under adding call edges
(``tests/test_escape.py`` checks this property).

Names are connected flow-insensitively through plain copies
(``a = b``): the summary is a may-analysis, deliberately coarser than
:mod:`repro.analysis.alias` — a summary says "could escape", the alias
layer says "at this point".  Attribute chains and calls the
name-based call graph cannot resolve contribute nothing (the graph
under-approximates), so summaries can miss escapes through dynamic
dispatch — rules pair them with syntactic sink checks at call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.base import Project
from repro.analysis.callgraph import CallGraph, FuncInfo, FuncKey

#: remote-invoke methods: every argument crosses a host boundary by copy
REMOTE_INVOKES = {"sinvoke", "ainvoke", "oinvoke", "minvoke"}
#: invoke flavours whose value is a result handle
HANDLE_INVOKES = {"ainvoke", "minvoke"}
#: receiver methods that mutate the receiver in place
MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "add", "discard", "setdefault", "popitem",
    "appendleft", "popleft", "write",
}

ESCAPE_KINDS = ("remote", "return", "field", "closure")


@dataclass
class Summary:
    """Escape/mutation facts of one function, keyed by parameter name."""

    escapes: dict[str, frozenset[str]] = field(default_factory=dict)
    mutates: frozenset[str] = frozenset()
    returns_handle: bool = False

    def escape_kinds(self, param: str) -> frozenset[str]:
        return self.escapes.get(param, frozenset())


def param_names(info: FuncInfo) -> list[str]:
    """Positional-parameter names in call-mapping order — ``self``
    excluded for methods (the receiver is not an AST argument)."""
    args = info.node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if info.cls is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _keyword_params(info: FuncInfo) -> set[str]:
    args = info.node.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def _walk_no_opaque(node: ast.AST):
    """AST walk that does not descend into nested def/lambda bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(item))


def _invoke_method(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute) and \
            call.func.attr in REMOTE_INVOKES:
        return call.func.attr
    return None


def arg_value_names(arg: ast.AST) -> set[str]:
    """Plain names an argument expression passes along: a bare name,
    the elements of a list/tuple/set literal, or a starred name."""
    if isinstance(arg, ast.Name):
        return {arg.id}
    if isinstance(arg, ast.Starred):
        return arg_value_names(arg.value)
    if isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
        names: set[str] = set()
        for element in arg.elts:
            names |= arg_value_names(element)
        return names
    return set()


class _Groups:
    """Union-find over names connected by plain copies ``a = b``."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, name: str) -> str:
        root = name
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(name, name) != root:
            self._parent[name], name = root, self._parent[name]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


class EscapeAnalysis:
    """Summaries for every function in the project call graph."""

    def __init__(self, project: Project,
                 graph: CallGraph | None = None) -> None:
        self.graph = graph if graph is not None else project.callgraph
        self.summaries: dict[FuncKey, Summary] = {
            key: Summary() for key in self.graph.functions
        }
        for component in self.graph.scc_order():
            self._solve_scc(component)

    def summary(self, key: FuncKey) -> Summary:
        return self.summaries.get(key, Summary())

    # -- per-SCC fixpoint ----------------------------------------------------

    def _solve_scc(self, component: list[FuncKey]) -> None:
        changed = True
        while changed:
            changed = False
            for key in component:
                new = self._summarize(self.graph.functions[key])
                if new != self.summaries[key]:
                    self.summaries[key] = new
                    changed = True

    # -- one function --------------------------------------------------------

    def _summarize(self, info: FuncInfo) -> Summary:
        groups = _Groups()
        kinds: dict[str, set[str]] = {}
        mutated: set[str] = set()
        handle_names: set[str] = set()
        returns_handle = False

        def mark(name: str, kind: str) -> None:
            kinds.setdefault(groups.find(name), set()).add(kind)

        # pass 1: copy groups and handle-producing bindings
        for node in _walk_no_opaque(info.node):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Name):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        groups.union(target.id, node.value.id)
            if isinstance(node, ast.Assign) and \
                    self._is_handle_value(info, node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        handle_names.add(target.id)

        # pass 2: escape and mutation events
        for node in _walk_no_opaque(info.node):
            if isinstance(node, ast.Call):
                self._call_events(info, node, mark, mutated, groups)
            elif isinstance(node, ast.Return) and node.value is not None:
                for name in arg_value_names(node.value):
                    mark(name, "return")
                if self._is_handle_value(info, node.value) or (
                    isinstance(node.value, ast.Name)
                    and node.value.id in handle_names
                ):
                    returns_handle = True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        for name in arg_value_names(node.value):
                            mark(name, "field")
                        for base in arg_value_names(target.value):
                            mutated.add(groups.find(base))
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name):
                    mutated.add(groups.find(target.id))
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    for base in arg_value_names(target.value):
                        mutated.add(groups.find(base))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                for name in _free_loads(node):
                    mark(name, "closure")

        # project onto parameters
        escapes: dict[str, frozenset[str]] = {}
        param_mutates: set[str] = set()
        for param in _keyword_params(info):
            root = groups.find(param)
            got = kinds.get(root)
            if got:
                escapes[param] = frozenset(got)
            if root in mutated:
                param_mutates.add(param)
        return Summary(
            escapes=escapes,
            mutates=frozenset(param_mutates),
            returns_handle=returns_handle,
        )

    def _call_events(self, info: FuncInfo, call: ast.Call, mark,
                     mutated: set[str], groups: _Groups) -> None:
        # remote sinks: every argument (not the receiver) is copied out
        if _invoke_method(call) is not None:
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for name in arg_value_names(arg):
                    mark(name, "remote")
        # in-place mutator methods mutate their receiver
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in MUTATOR_METHODS and \
                isinstance(call.func.value, ast.Name):
            mutated.add(groups.find(call.func.value.id))
        # resolved callees propagate their parameter facts to our args
        for callee in self.graph.resolve(info, call):
            summ = self.summaries.get(callee.key)
            if summ is None:
                continue
            for param, arg in map_call_args(callee, call):
                for name in arg_value_names(arg):
                    for kind in summ.escape_kinds(param):
                        mark(name, kind)
                    if param in summ.mutates:
                        mutated.add(groups.find(name))

    def _is_handle_value(self, info: FuncInfo, value: ast.AST) -> bool:
        """Does this expression evaluate to a result handle?  Direct
        ``ainvoke``/``minvoke`` calls, or calls into a project function
        already summarized as handle-returning."""
        if not isinstance(value, ast.Call):
            return False
        if isinstance(value.func, ast.Attribute) and \
                value.func.attr in HANDLE_INVOKES:
            return True
        for callee in self.graph.resolve(info, value):
            summ = self.summaries.get(callee.key)
            if summ is not None and summ.returns_handle:
                return True
        return False

    # -- call-site view for rules -------------------------------------------

    def arg_effects(self, info: FuncInfo,
                    call: ast.Call) -> dict[str, set[str]]:
        """What resolved callees do with each plain-name argument of
        ``call``: escape kinds plus ``"mutate"``.  Empty when the call
        graph cannot resolve the callee."""
        effects: dict[str, set[str]] = {}
        for callee in self.graph.resolve(info, call):
            summ = self.summaries.get(callee.key)
            if summ is None:
                continue
            for param, arg in map_call_args(callee, call):
                for name in arg_value_names(arg):
                    got = effects.setdefault(name, set())
                    got |= summ.escape_kinds(param)
                    if param in summ.mutates:
                        got.add("mutate")
        return effects


def map_call_args(callee: FuncInfo, call: ast.Call):
    """``(parameter name, argument expression)`` pairs for one call."""
    positional = param_names(callee)
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        if i >= len(positional):
            break
        yield positional[i], arg
    valid = _keyword_params(callee)
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in valid:
            yield kw.arg, kw.value


def _free_loads(func: ast.AST) -> set[str]:
    """Names a nested def/lambda reads that it does not itself bind."""
    bound: set[str] = set()
    args = func.args
    for a in (args.posonlyargs + args.args + args.kwonlyargs):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    loads: set[str] = set()
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                elif isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
    return loads - bound


__all__ = [
    "ESCAPE_KINDS",
    "EscapeAnalysis",
    "HANDLE_INVOKES",
    "MUTATOR_METHODS",
    "REMOTE_INVOKES",
    "Summary",
    "arg_value_names",
    "map_call_args",
    "param_names",
]
