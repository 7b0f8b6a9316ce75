"""Deterministic unique-id generation.

The kernel is deterministic under a seed, so ids must not depend on global
mutable state shared across simulations.  Each simulation owns an
:class:`IdGenerator`; the module-level :func:`fresh_id` exists only for
contexts that genuinely do not care about reproducibility (e.g. naming a
throwaway thread).
"""

from __future__ import annotations

import itertools


class IdGenerator:
    """Monotonic per-prefix counters producing ids like ``obj-17``."""

    def __init__(self) -> None:
        self._counters: dict[str, itertools.count] = {}

    def next(self, prefix: str) -> str:
        return f"{prefix}-{self.next_int(prefix)}"

    def next_int(self, prefix: str) -> int:
        counter = self._counters.setdefault(prefix, itertools.count(1))
        return next(counter)


_global = IdGenerator()


def fresh_id(prefix: str) -> str:
    """Process-global id; fine for diagnostics, not for simulation state."""
    return _global.next(prefix)
