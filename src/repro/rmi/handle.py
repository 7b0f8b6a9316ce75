"""``ResultHandle``: the future returned by asynchronous invocation.

Paper Section 4.5::

    ResultHandle hdl = obj.ainvoke("multiply", params);
    if (hdl.isReady()) { result = hdl.getResult(); }

When tracing is on, the handle carries the async invocation span's
:class:`~repro.obs.spans.TraceContext`, and a blocking ``get_result``
records an ``obj.wait`` child span — the time the caller spent waiting
on the reply shows up in the trace, parented under the invocation it
waited for.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RPCTimeoutError, WaitTimeout
from repro.kernel.virtual import VirtualFuture
from repro.obs.events import OBJ_WAIT, RPC_TIMEOUT
from repro.obs.spans import TraceContext
from repro.obs.tracer import NULL_TRACER
from repro.sanitizer.core import current_sanitizer


class ResultHandle:
    def __init__(self, future: VirtualFuture, ctx: TraceContext | None = None,
                 label: str = "") -> None:
        self._future = future
        #: the async obj.invoke span this handle resolves (None untraced)
        self.ctx = ctx
        self._label = label
        san = current_sanitizer()
        if san.enabled:
            kernel = getattr(future, "_kernel", None)
            if kernel is not None:
                san.track_handle(self, kernel)
                # Leak-reporting responsibility transfers to the handle:
                # a never-awaited handle is one logical leak, not also a
                # never-completed future underneath it.
                san.future_completed(future)

    def is_ready(self) -> bool:
        """Non-blocking availability test (paper: ``isReady``)."""
        san = current_sanitizer()
        if san.enabled:
            # A poll is not consumption: the result is still unretrieved,
            # so the handle must stay on the leak tracker's books.
            san.handle_polled(self)
        return self._future.done()

    def get_result(self, timeout: float | None = None) -> Any:
        """Block until the result arrives and return it, re-raising any
        remote exception (paper: ``getResult``).

        With a retry policy installed the carrying worker already
        retried transport failures; what re-raises here is either the
        application's own exception or a typed
        :class:`repro.errors.RetriesExhaustedError` /
        :class:`repro.errors.CircuitOpenError` from the reliability
        layer."""
        san = current_sanitizer()
        if san.enabled:
            san.handle_awaited(self)
        kernel = getattr(self._future, "_kernel", None)
        tracer = kernel.tracer if kernel is not None else NULL_TRACER
        wait_span = None
        if tracer.enabled and not self._future.done():
            # The wait parents under the invocation span (self.ctx), not
            # under the waiting process's own context: the trace answers
            # "what was this result waiting on", not "who waited".
            wait_span = tracer.begin_span(
                OBJ_WAIT, ts=kernel.now(), parent=self.ctx,
                actor=kernel.current_process_name(), label=self._label,
            )
        try:
            return self._future.result(timeout)
        except WaitTimeout:
            if kernel is not None:
                tracer.emit(RPC_TIMEOUT, ts=kernel.now(),
                            actor=kernel.current_process_name(),
                            kind="ainvoke", label=self._label,
                            waited=timeout, ctx=self.ctx)
                tracer.count("rpc.timeouts")
            # Same caller-facing family as Endpoint.rpc — async callers
            # must not need to catch raw kernel timeouts.
            raise RPCTimeoutError(
                f"async result not ready within {timeout} s"
            ) from None
        finally:
            if wait_span is not None:
                tracer.end_span(wait_span, ts=kernel.now())

    # Paper-style aliases.
    isReady = is_ready
    getResult = get_result
