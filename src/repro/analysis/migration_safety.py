"""Migration/serialization-safety analysis.

The 4-step migration protocol (paper Figure 3), ``FETCH_STATE`` and the
persistence store all pickle the live instance.  An attribute holding a
lock, thread, socket, open file or generator makes the whole object
unpicklable — the object works fine until the first ``migrate()`` or
``store()``, then fails at the worst possible moment (this is the core
hazard Ellahi et al. identify for migrating thread-bearing state).

Rule
----
``unserializable-attr`` (error)
    A remotely instantiable class (``@jsclass``-decorated or registered
    via ``ClassRegistry.register``) assigns ``self.x`` from a factory
    known to produce unpicklable state, or binds a generator expression
    or lambda to an attribute.
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
    dotted_name,
    self_attr_name,
)

#: dotted call targets whose results never survive pickling
UNSERIALIZABLE_FACTORIES = {
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "an event",
    "threading.Semaphore": "a semaphore",
    "threading.BoundedSemaphore": "a semaphore",
    "threading.Barrier": "a barrier",
    "threading.Thread": "a thread",
    "threading.local": "thread-local storage",
    "open": "an open file handle",
    "io.open": "an open file handle",
    "os.fdopen": "an open file handle",
    "socket.socket": "a socket",
    "socket.create_connection": "a socket",
    "subprocess.Popen": "a subprocess handle",
    "queue.Queue": "a queue (contains locks)",
    "queue.LifoQueue": "a queue (contains locks)",
    "queue.PriorityQueue": "a queue (contains locks)",
    "queue.SimpleQueue": "a queue (contains locks)",
    "sqlite3.connect": "a database connection",
}


def _registered_class_names(tree: ast.Module) -> set[str]:
    """Class names passed to ``ClassRegistry.register(Cls, ...)``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = dotted_name(node.func)
        if target is None or not target.endswith("register"):
            continue
        if "ClassRegistry" not in target:
            continue
        if node.args and isinstance(node.args[0], ast.Name):
            names.add(node.args[0].id)
    return names


def _is_jsclass(klass: ast.ClassDef, registered: set[str]) -> bool:
    if klass.name in registered:
        return True
    for deco in klass.decorator_list:
        name = dotted_name(deco)
        if name is not None and name.split(".")[-1] == "jsclass":
            return True
    return False


class MigrationSafetyChecker(Checker):
    name = "migration-safety"
    rules = {"unserializable-attr": Severity.ERROR}

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            registered = _registered_class_names(module.tree)
            for cls in project.facts(module).classes:
                if _is_jsclass(cls.node, registered):
                    findings.extend(self._check_class(module, cls.node))
        return findings

    def _check_class(self, module: Module, klass: ast.ClassDef):
        for node in ast.walk(klass):
            targets: list[ast.AST]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            attrs = [
                a for a in map(self_attr_name, targets) if a is not None
            ]
            if not attrs:
                continue
            what = self._unserializable_value(value)
            if what is None:
                continue
            for attr in attrs:
                yield self.finding(
                    "unserializable-attr",
                    module.path,
                    node,
                    f"{klass.name}.{attr} is assigned {what}; the "
                    "instance can no longer be pickled, so MIGRATE_OUT, "
                    "FETCH_STATE and persistence (store/load) will all "
                    f"fail for every {klass.name} object",
                    symbol=f"{klass.name}.{attr}",
                )

    @staticmethod
    def _unserializable_value(value: ast.AST) -> str | None:
        if isinstance(value, ast.GeneratorExp):
            return "a generator expression"
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.Call):
            target = dotted_name(value.func)
            if target is None:
                return None
            if target in UNSERIALIZABLE_FACTORIES:
                return UNSERIALIZABLE_FACTORIES[target]
            # match on the trailing segments too (e.g. _threading.Lock)
            tail = ".".join(target.split(".")[-2:])
            if tail in UNSERIALIZABLE_FACTORIES:
                return UNSERIALIZABLE_FACTORIES[tail]
        return None
