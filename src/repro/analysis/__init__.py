"""symlint: PySymphony-aware static analysis.

One pass, ``locality``: symloc's rules against the communication
anti-patterns the paper warns about — chatty synchronous RMI and
migration thrash (:mod:`repro.analysis.locality`, on one walk over each
function's AST: straight-line runs with their loop depth, and a
backward pass for "is this result read later?").

Defects the runtime itself reports are left to it: migrating an
unpicklable object or sending a kind nobody handles fails in the caller,
and symsan reports a raw ``time.sleep`` inside a kernel process.  A
handler that waits delays only its own request, which runs in a process
of its own.

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
    "LocalityChecker": "locality",
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
