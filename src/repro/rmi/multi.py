"""``MultiHandle``: the fan-in side of bulk invocation (``minvoke``).

A bulk invocation ships many ``(ref, method, params)`` calls at once,
grouped by resolved destination — each group travels as a single
``INVOKE_BATCH`` message instead of one message per call (the paper's
Section 4.5 cost model charges a full network round-trip per remote
invocation, so collapsing a burst of calls into one message is the
single biggest locality lever after migration).  The ``MultiHandle``
returned keeps one :class:`~repro.rmi.handle.ResultHandle` per call, in
request order::

    mh = obj.minvoke("step", [[1], [2], [3]])
    results = mh.get_results()      # positional, raises on failure
    outcomes = mh.outcomes()        # positional, failures in place

Partial failure stays per-call: a raising call surfaces its exception at
its own slot (``outcomes()`` returns exceptions in place;
``get_results()`` re-raises the first one), and a stale reference gets
its ``Moved`` redirect chased individually — one migrated object never
fails its batch-mates.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import RPCTimeoutError
from repro.rmi.handle import ResultHandle


class MultiHandle:
    """Positional collection of :class:`ResultHandle`\\ s for one bulk
    invocation.  Index ``i`` corresponds to the ``i``-th call passed to
    ``minvoke``, regardless of how the calls were grouped on the wire."""

    def __init__(
        self,
        handles: Sequence[ResultHandle],
        mapper: Callable[[Any], Any] | None = None,
    ) -> None:
        self._handles = list(handles)
        #: optional per-result post-processing (JSObj wraps ObjectRefs)
        self._mapper = mapper

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def handles(self) -> list[ResultHandle]:
        """The per-call handles, in request order."""
        return list(self._handles)

    def is_ready(self) -> bool:
        """Non-blocking: have *all* calls completed?"""
        return all(h.is_ready() for h in self._handles)

    # -- collection --------------------------------------------------------------

    def _kernel(self):
        for handle in self._handles:
            kernel = getattr(handle._future, "_kernel", None)
            if kernel is not None:
                return kernel
        return None

    def get_result(self, index: int, timeout: float | None = None) -> Any:
        """Result of the ``index``-th call (blocking), re-raising its
        remote exception if that call failed."""
        result = self._handles[index].get_result(timeout)
        if self._mapper is not None:
            result = self._mapper(result)
        return result

    def get_results(self, timeout: float | None = None) -> list[Any]:
        """All results in request order.  ``timeout`` is an overall
        deadline for the whole batch, not per call.  Raises the first
        per-call exception (use :meth:`outcomes` for partial-failure
        access)."""
        deadline = self._deadline(timeout)
        return [
            self.get_result(i, self._remaining(deadline))
            for i in range(len(self._handles))
        ]

    def outcomes(self, timeout: float | None = None) -> list[Any]:
        """Like :meth:`get_results` but per-call exceptions are returned
        *in place* instead of raised — the partial-failure view.  A
        batch-wide deadline expiry still raises ``RPCTimeoutError``."""
        deadline = self._deadline(timeout)
        collected: list[Any] = []
        for i in range(len(self._handles)):
            try:
                collected.append(
                    self.get_result(i, self._remaining(deadline))
                )
            except Exception as exc:  # noqa: BLE001 - partial-failure view
                if (
                    isinstance(exc, RPCTimeoutError)
                    and deadline is not None
                    and self._expired(deadline)
                ):
                    raise
                collected.append(exc)
        return collected

    # -- deadline helpers ---------------------------------------------------------

    def _deadline(self, timeout: float | None) -> float | None:
        if timeout is None:
            return None
        kernel = self._kernel()
        return (kernel.now() if kernel is not None else 0.0) + timeout

    def _remaining(self, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        kernel = self._kernel()
        now = kernel.now() if kernel is not None else 0.0
        return max(0.0, deadline - now)

    def _expired(self, deadline: float) -> bool:
        kernel = self._kernel()
        return kernel is not None and kernel.now() >= deadline

    # Paper-style aliases.
    isReady = is_ready
    getResult = get_result
    getResults = get_results


def minvoke(
    calls: Iterable[tuple[Any, str, Sequence[Any] | None]],
    app: Any = None,
) -> MultiHandle:
    """Heterogeneous bulk invocation over ``(target, method, params)``
    triples, where each target is a ``JSObj``, ``JSStatic`` or raw
    ``ObjectRef``.  Calls are grouped by resolved destination; each
    group ships as one ``INVOKE_BATCH`` message."""
    from repro import context
    from repro.core.jsobj import _to_wire

    normalized = []
    for target, method, params in calls:
        ref = target.ref if hasattr(target, "ref") else target
        if app is None:
            app = getattr(target, "_app", None)
        normalized.append((ref, method, _to_wire(params)))
    if app is None:
        app = context.require_app()
    return app.minvoke(normalized)
