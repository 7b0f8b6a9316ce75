"""Edge cases of the name-based call graph resolution.

The graph must under-approximate: resolve only what the names prove
(``self.X`` through the class closure, bare ``X`` to a same-module def)
and return nothing for aliased imports, locals, attribute chains and
nested defs — absent edges, never invented ones.
"""

from __future__ import annotations

import textwrap

from repro.analysis.base import Module, Project
from repro.analysis.callgraph import CallGraph, FuncKey


def project(**files: str) -> Project:
    return Project([
        Module.parse(path, textwrap.dedent(source))
        for path, source in files.items()
    ])


def graph(**files: str) -> CallGraph:
    return CallGraph(project(**files))


def callee_labels(cg: CallGraph, path: str, qualname: str) -> list[str]:
    info = cg.functions[FuncKey(path, qualname)]
    return sorted({target.label for target, _call in cg.callees(info)})


def test_self_method_resolves_to_own_class():
    cg = graph(**{"a.py": """
        class Worker:
            def run(self):
                self.step()

            def step(self):
                pass
    """})
    assert callee_labels(cg, "a.py", "Worker.run") == ["Worker.step"]


def test_self_method_resolves_through_base_class_across_modules():
    cg = graph(**{
        "base.py": """
            class Base:
                def helper(self):
                    pass
        """,
        "derived.py": """
            class Derived(Base):
                def run(self):
                    self.helper()
        """,
    })
    assert callee_labels(cg, "derived.py", "Derived.run") == ["Base.helper"]


def test_own_class_definition_shadows_base():
    cg = graph(**{"a.py": """
        class Base:
            def helper(self):
                pass

        class Derived(Base):
            def helper(self):
                pass

            def run(self):
                self.helper()
    """})
    assert callee_labels(cg, "a.py", "Derived.run") == ["Derived.helper"]


def test_bare_name_resolves_to_module_level_def_same_module_only():
    cg = graph(**{
        "a.py": """
            def util():
                pass

            def caller():
                util()
        """,
        "b.py": """
            def other_caller():
                util()
        """,
        "c.py": """
            from a import util

            def importer():
                util()
        """,
    })
    assert callee_labels(cg, "a.py", "caller") == ["util"]
    # no same-module def named util in b.py: unresolved, not cross-file
    assert callee_labels(cg, "b.py", "other_caller") == []
    # nor through an unaliased import of that very def
    assert callee_labels(cg, "c.py", "importer") == []


def test_import_alias_stays_unresolved():
    # Resolution is name-based: ``from x import y as z`` then ``z()``
    # matches no module-level def named z, so no edge is invented —
    # even though a def named y exists in the imported module.
    cg = graph(**{
        "x.py": """
            def y():
                pass
        """,
        "main.py": """
            from x import y as z

            def caller():
                z()
        """,
    })
    assert callee_labels(cg, "main.py", "caller") == []


def test_nested_function_is_not_module_level():
    cg = graph(**{"a.py": """
        def outer():
            def inner():
                pass
            inner()

        def elsewhere():
            inner()
    """})
    # inner is indexed nowhere: calls to it resolve to nothing
    assert callee_labels(cg, "a.py", "outer") == []
    assert callee_labels(cg, "a.py", "elsewhere") == []
    assert FuncKey("a.py", "inner") not in cg.functions


def test_calls_inside_nested_defs_not_attributed_to_outer():
    cg = graph(**{"a.py": """
        def target():
            pass

        def outer():
            def deferred():
                target()
            return deferred

        class Agent:
            def helper(self):
                pass

            def outer(self):
                def deferred():
                    self.helper()
                return deferred
    """})
    # the lexically nested call runs later, under a different context
    assert callee_labels(cg, "a.py", "outer") == []
    assert callee_labels(cg, "a.py", "Agent.outer") == []


def test_attribute_chain_and_local_receiver_unresolved():
    cg = graph(**{"a.py": """
        class Agent:
            def send(self):
                self.endpoint.rpc("PING")
                local = make()
                local.fire()

        def make():
            pass
    """})
    # self.endpoint.rpc is a chain, local.fire goes through a local:
    # only the bare make() resolves
    assert callee_labels(cg, "a.py", "Agent.send") == ["make"]


def test_diamond_base_closure_terminates_and_resolves():
    cg = graph(**{"a.py": """
        class Root:
            def ping(self):
                pass

        class Left(Root):
            pass

        class Right(Root):
            pass

        class Bottom(Left, Right):
            def run(self):
                self.ping()
    """})
    assert callee_labels(cg, "a.py", "Bottom.run") == ["Root.ping"]
