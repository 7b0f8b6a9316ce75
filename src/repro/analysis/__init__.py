"""symlint: PySymphony-aware static analysis.

AST-based checkers for the paper invariants the runtime relies on but
cannot enforce mechanically at run time:

* lock discipline / race detection in the multi-threaded kernel and the
  holder endpoints (``lock_discipline``);
* JRS protocol completeness — every message kind handled, no dead kinds,
  no raw string kinds bypassing :mod:`repro.agents.messages`
  (``protocol``);
* migration/serialization safety of remotely instantiable classes
  (``migration_safety``);
* no blocking calls inside agent message handlers (``blocking``);
* locality & communication cost — symloc's CFG/dataflow-backed rules
  against chatty synchronous RMI, dropped handles, migration thrash and
  per-iteration re-serialization (``locality``, on the reusable
  :mod:`repro.analysis.cfg` + :mod:`repro.analysis.dataflow` engine).

Run it as ``python -m repro lint [paths]`` or through
:func:`analyze_paths`.

The public names below resolve on first use (PEP 562): ``import repro``
reaches :mod:`repro.analysis.base` through the sanitizer's shared
``Finding`` model, and must not pay for every checker on the way.
"""

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    "Checker": "base",
    "Finding": "base",
    "Module": "base",
    "Project": "base",
    "Severity": "base",
    "BlockingHandlerChecker": "blocking",
    "CFG": "cfg",
    "Block": "cfg",
    "build_cfg": "cfg",
    "function_cfgs": "cfg",
    "Liveness": "dataflow",
    "ReachingDefinitions": "dataflow",
    "LockDisciplineChecker": "lock_discipline",
    "LocalityChecker": "locality",
    "MigrationSafetyChecker": "migration_safety",
    "ProtocolChecker": "protocol",
    "RetryDisciplineChecker": "retry",
    "Report": "runner",
    "analyze_paths": "runner",
    "default_checkers": "runner",
    "render_json": "runner",
    "render_sarif": "runner",
    "render_text": "runner",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
