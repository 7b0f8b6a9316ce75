"""symlint: PySymphony-aware static analysis.

AST-based checkers for the paper invariants the runtime relies on but
cannot enforce mechanically at run time:

* lock discipline / race detection in the multi-threaded kernel and the
  holder endpoints (``lock_discipline``);
* JRS protocol surface — no message kind declared but never sent
  (``protocol``);
* no blocking calls inside agent message handlers (``blocking``), nor
  under a lock or from a kernel process through project calls
  (``interprocedural``);
* locality & communication cost — symloc's CFG/liveness-backed rules
  against chatty synchronous RMI and migration thrash (``locality``, on
  :mod:`repro.analysis.cfg` + :mod:`repro.analysis.dataflow`).

Defects the runtime itself reports are left to it: migrating an
unpicklable object or sending a kind nobody handles fails in the caller.

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
    "LockDisciplineChecker": "lock_discipline",
    "LocalityChecker": "locality",
    "ProtocolChecker": "protocol",
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
