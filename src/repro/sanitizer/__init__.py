"""symsan: runtime concurrency sanitizer for the PySymphony kernels.

See :mod:`repro.sanitizer.core` for the architecture overview.
"""

from repro.sanitizer.core import (
    NULL_SANITIZER,
    SAN_RULES,
    NullSanitizer,
    Sanitizer,
    caller_site,
    current_sanitizer,
    sanitizing,
    set_sanitizer,
)

__all__ = [
    "NULL_SANITIZER",
    "SAN_RULES",
    "NullSanitizer",
    "Sanitizer",
    "caller_site",
    "current_sanitizer",
    "sanitizing",
    "set_sanitizer",
]
