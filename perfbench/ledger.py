"""The traced ledger: host time attributed to layers, from outside.

Seams (functions and methods of ``repro``) are looked up by name and
replaced, at class or module-attribute level, by wrappers that record
spans.  Nothing under ``src/`` knows about this.  A seam that no longer
exists is listed in :attr:`Ledger.missing` and every metric of its layer
reads ``None`` - never 0 - so a refactor cannot silently zero a layer.

Accounting relies on ``VirtualKernel`` being lock-step: at most one
thread runs repro code at any instant.  Each thread keeps a stack of open
spans; the time between two span events on a thread belongs to the span
on top of its stack (*segment* accounting, so a process body that never
returns is still charged as it goes).  Blocking kernel primitives are
``block`` spans: the thread is parked inside them, so their interior is
charged to nobody.  Whatever wall time no span claims - the scheduler
loop, ``Thread.start``, the futex hand-off - is the kernel's hand-off
cost, computed by the caller as ``wall - sum(self_s)``.

The one moment that is not lock-step is ``kernel.shutdown()``, which
wakes every parked thread at once; what they add to the sums while they
unwind is microseconds, and unsynchronised.
"""

from __future__ import annotations

import dis
import importlib
import json
import sys
import threading
import time
from functools import partial
from typing import Any, Callable

LAYERS = (
    "kernel", "transport", "serialization", "holder", "app_oa", "rmi",
    "simnet", "nas", "cluster", "obs", "driver",
)
#: accumulator slot for time inside blocking primitives (reported nowhere)
_BLOCK = len(LAYERS)

#: module prefix -> layer, first match wins; anything else (the
#: applications under ``repro.apps``, the benchmark itself) is ``driver``
_MODULE_LAYERS = (
    ("repro.kernel", "kernel"),
    ("threading", "kernel"),
    ("repro.transport", "transport"),
    ("repro.util.serialization", "serialization"),
    ("repro.agents.app_oa", "app_oa"),
    ("repro.agents.nas", "nas"),
    ("repro.agents.network_agent", "nas"),
    ("repro.sysmon", "nas"),
    ("repro.agents", "holder"),
    ("repro.rmi", "rmi"),
    ("repro.simnet", "simnet"),
    ("repro.obs", "obs"),
    ("repro.cluster", "cluster"),
    ("repro.varch", "cluster"),
    ("repro.constraints", "cluster"),
    ("repro.core", "cluster"),
)


def _loads_global(code: Any, name: str) -> bool:
    """Does ``code`` (or a comprehension nested in it) read the global
    ``name``?"""
    return any(
        ins.opname == "LOAD_GLOBAL" and ins.argval == name
        for ins in dis.get_instructions(code)
    ) or any(
        _loads_global(const, name) for const in code.co_consts
        if hasattr(const, "co_code"))


def layer_of(module: str | None) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module and module.startswith(prefix):
            return layer
    return "driver"


#: (module, qualified name) of every span seam; the layer follows from
#: the module.  Private names appear where the layer boundary is private
#: (message handlers, the transport's deliver/execute legs).
SPAN_SEAMS = (
    ("repro.transport.rpc", "Endpoint.rpc"),
    ("repro.transport.rpc", "Endpoint.rpc_async"),
    ("repro.transport.rpc", "Endpoint.send_oneway"),
    ("repro.transport.rpc", "Transport.send"),
    ("repro.transport.rpc", "Transport._deliver"),
    ("repro.transport.rpc", "Transport._execute"),
    ("repro.transport.rpc", "Transport._complete"),
    ("repro.util.serialization", "sizeof"),
    ("repro.util.serialization", "deep_copy_via_pickle"),
    ("repro.util.serialization", "dumps"),
    ("repro.util.serialization", "loads"),
    ("repro.util.serialization", "unwrap"),
    ("repro.util.serialization", "flops_of"),
    ("repro.agents.objects", "ObjectHolder.dispatch_invoke"),
    ("repro.agents.objects", "ObjectHolder.hold_new_object"),
    ("repro.agents.objects", "ObjectHolder.hold_from_state"),
    ("repro.agents.objects", "ObjectHolder.drop_object"),
    ("repro.agents.holder_endpoints", "HolderEndpoints._h_invoke"),
    ("repro.agents.holder_endpoints", "HolderEndpoints._h_invoke_batch"),
    ("repro.agents.holder_endpoints", "HolderEndpoints._h_create_object"),
    ("repro.agents.holder_endpoints", "HolderEndpoints._h_free_object"),
    ("repro.agents.holder_endpoints", "HolderEndpoints._h_migrate_out"),
    ("repro.agents.holder_endpoints", "HolderEndpoints._h_migrate_in"),
    ("repro.agents.pub_oa", "PubOA._h_load_classes"),
    ("repro.agents.app_oa", "AppOA.sinvoke"),
    ("repro.agents.app_oa", "AppOA.ainvoke"),
    ("repro.agents.app_oa", "AppOA.oinvoke"),
    ("repro.agents.app_oa", "AppOA.minvoke"),
    ("repro.agents.app_oa", "AppOA.create_object"),
    ("repro.agents.app_oa", "AppOA.migrate_object"),
    ("repro.agents.app_oa", "AppOA._h_get_location"),
    ("repro.rmi.handle", "ResultHandle.get_result"),
    ("repro.rmi.handle", "ResultHandle.is_ready"),
    ("repro.rmi.multi", "MultiHandle.get_results"),
    ("repro.rmi.multi", "minvoke"),
    ("repro.simnet.world", "SimWorld.compute"),
    ("repro.simnet.world", "SimWorld.transfer_delay"),
    ("repro.agents.network_agent", "NetworkAgent._monitor_once"),
    ("repro.agents.network_agent", "NetworkAgent._probe_once"),
    ("repro.agents.network_agent", "NetworkAgent._on_report_params"),
    ("repro.agents.network_agent", "NetworkAgent._on_report_aggregate"),
    ("repro.sysmon.sampler", "sample_all"),
    ("repro.cluster.testbed", "vienna_testbed"),
    ("repro.varch.cluster", "Cluster.__init__"),
    ("repro.core.codebase", "JSCodebase.load"),
    ("repro.core.jsobj", "JSObj.__init__"),
    ("repro.core.registration", "JSRegistration.__init__"),
    ("repro.obs.tracer", "Tracer.emit"),
    ("repro.obs.tracer", "Tracer.emit_span"),
    ("repro.obs.tracer", "Tracer.begin_span"),
    ("repro.obs.tracer", "Tracer.end_span"),
    ("repro.obs.tracer", "Tracer.count"),
    ("repro.obs.tracer", "Tracer.observe"),
)

#: blocking kernel primitives -> does a call schedule a kernel event?
#: ("always", or only when called with a timeout; ``result`` delegates to
#: ``wait``, which does the counting).  ``run`` is the scheduler itself:
#: the callbacks it dispatches are spans of their own, the rest of its
#: interior - popping events, waiting for the process it resumed - is
#: exactly the hand-off cost.
BLOCK_SEAMS = (
    ("repro.kernel.virtual", "VirtualKernel.run", "never"),
    ("repro.kernel.virtual", "VirtualKernel.sleep", "always"),
    ("repro.kernel.virtual", "VirtualFuture.wait", "timed"),
    ("repro.kernel.virtual", "VirtualFuture.result", "never"),
    ("repro.kernel.virtual", "VirtualChannel.get", "timed"),
    ("repro.kernel.virtual", "VirtualSemaphore.acquire", "timed"),
)

#: counted, not timed: their cost stays with the caller (or, for
#: ``Thread.start``, in the hand-off remainder)
COUNT_SEAMS = (
    ("repro.kernel.virtual", "VirtualKernel.spawn"),
    ("repro.kernel.virtual", "VirtualKernel.call_at"),
    ("repro.kernel.virtual", "VirtualKernel.call_soon"),
    ("threading", "Thread.start"),
    ("repro.rmi.handle", "ResultHandle.__init__"),
    ("repro.rmi.reliability", "RetryPolicy.backoff"),
    ("repro.rmi.reliability", "ReplayCache.claim"),
)

#: kernel events scheduled by blocking primitives
EVENT_KEY = "kernel:block-events"
#: stale-handle outcomes of ``dispatch_invoke``
REDIRECT_KEY = "holder:redirects"
#: ``ReplayCache.claim`` calls answered from the cache
DEDUP_KEY = "rmi:dedup-hits"


class Ledger:
    """Span recorder.  ``install()`` patches the seams; afterwards
    ``self_s`` (per layer), ``calls`` and ``incl_s`` (per seam key) only
    ever grow, so callers attribute a phase by diffing two
    :meth:`snapshot` values."""

    def __init__(self, keep_spans: int = 0) -> None:
        self.self_s = [0.0] * (len(LAYERS) + 1)
        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        #: seams that could not be found, and the layers they belong to
        self.missing: list[str] = []
        self.missing_layers: set[str] = set()
        #: identifier shared by every span of one op (set by the driver)
        self.op_index = 0
        #: (key, layer, start, end, span id, parent id, thread, op)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._keep = keep_spans
        self._next_id = 0
        #: thread ident -> [last event time, then per open span: slot, id]
        self._threads: dict[int, list] = {}

    # -- wrappers ------------------------------------------------------------

    def span(self, fn: Callable, layer: str, key: str,
             after: Callable[[Any], None] | None = None) -> Callable:
        """Wrap ``fn`` as a span of ``layer`` (or of no layer, for
        ``layer == "block"``), counted under ``key``.  ``after`` sees
        the return value."""
        slot = _BLOCK if layer == "block" else LAYERS.index(layer)
        self.calls.setdefault(key, 0)
        self.incl_s.setdefault(key, 0.0)
        self_s, calls, incl_s = self.self_s, self.calls, self.incl_s
        threads, get_ident = self._threads, threading.get_ident
        now = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ident = get_ident()
            state = threads.get(ident)
            t0 = now()
            if state is None:
                state = threads[ident] = [t0]
                parent = 0
            else:
                self_s[state[-2]] += t0 - state[0]
                parent = state[-1]
                state[0] = t0
            self._next_id = span_id = self._next_id + 1
            state += (slot, span_id)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                t1 = now()
                self_s[slot] += t1 - state[0]
                del state[-2:]
                if len(state) == 1:
                    del threads[ident]
                else:
                    state[0] = t1
                calls[key] += 1
                incl_s[key] += t1 - t0
                if self._keep:
                    if len(self.spans) < self._keep:
                        self.spans.append((key, layer, t0, t1, span_id,
                                           parent, ident, self.op_index))
                    else:
                        self.spans_dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn: Callable, key: str) -> Callable:
        self.calls.setdefault(key, 0)
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self) -> None:
        """Charge the calling thread's time since its last span event to
        the span on top of its stack, so a following :meth:`snapshot`
        splits cleanly at this instant."""
        state = self._threads.get(threading.get_ident())
        if state is not None:
            t = time.perf_counter()
            self.self_s[state[-2]] += t - state[0]
            state[0] = t

    def skip(self) -> None:
        """Charge the calling thread's time since its last span event (or
        :meth:`mark`) to nobody: the driver's calibration samples."""
        state = self._threads.get(threading.get_ident())
        if state is not None:
            state[0] = time.perf_counter()

    def snapshot(self) -> tuple[list[float], dict[str, int]]:
        return list(self.self_s), dict(self.calls)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every seam.  Call once, after ``repro`` is imported and
        before any runtime object is built (handlers are bound at
        construction time)."""
        for module, qualname in SPAN_SEAMS:
            layer = layer_of(module)
            after = (self._count_redirect()
                     if qualname == "ObjectHolder.dispatch_invoke" else None)
            self._patch(module, qualname, partial(
                self.span, layer=layer, key=f"{layer}:{qualname}",
                after=after))
        self.calls[EVENT_KEY] = 0
        for module, qualname, events in BLOCK_SEAMS:
            self._patch(module, qualname, partial(
                self._block, key=f"kernel:{qualname}", events=events))
        special = {"VirtualKernel.spawn": self._spawn,
                   "ReplayCache.claim": self._claim}
        for module, qualname in COUNT_SEAMS:
            self._patch(module, qualname, partial(
                special.get(qualname, self.counter),
                key=f"{layer_of(module)}:{qualname}"))

    def _count_redirect(self) -> Callable[[Any], None]:
        self.calls[REDIRECT_KEY] = 0
        try:
            messages = importlib.import_module("repro.agents.messages")
            stale = (messages.Moved, messages.UnknownObject)
        except (ImportError, AttributeError):
            self._note_missing("repro.agents.messages", "Moved/UnknownObject")
            return lambda result: None

        def after(result: Any) -> None:
            if isinstance(result, stale):
                self.calls[REDIRECT_KEY] += 1

        return after

    def _block(self, fn: Callable, key: str, events: str) -> Callable:
        parked = self.span(fn, "block", key)
        if events == "never":
            return parked
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # args = (self, timeout); sleep's duration is always an event
            if events == "always" or kwargs.get("timeout") is not None \
                    or (len(args) > 1 and args[1] is not None):
                calls[EVENT_KEY] += 1
            return parked(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _spawn(self, fn: Callable, key: str) -> Callable:
        """Count the spawn and make the process body a span of the layer
        its function comes from (``ainvoke`` workers -> ``app_oa``,
        heartbeat loops -> ``nas``, the application itself -> ``driver``)."""
        self.calls.setdefault(key, 0)
        calls = self.calls
        span = self.span

        def spawn(kernel: Any, body: Callable, *args: Any, **kw: Any) -> Any:
            calls[key] += 1
            layer = layer_of(getattr(body, "__module__", None))
            return fn(kernel, span(body, layer, f"{layer}:process"),
                      *args, **kw)

        spawn.__wrapped__ = fn
        return spawn

    def _claim(self, fn: Callable, key: str) -> Callable:
        self.calls[DEDUP_KEY] = 0
        counted = self.counter(fn, key)

        def claim(*args: Any, **kw: Any) -> Any:
            outcome = counted(*args, **kw)
            if not outcome[0]:
                self.calls[DEDUP_KEY] += 1
            return outcome

        claim.__wrapped__ = fn
        return claim

    def _patch(self, module: str, qualname: str,
               make: Callable[[Callable], Callable]) -> None:
        try:
            mod = importlib.import_module(module)
            owner: Any = mod
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError):
            self._note_missing(module, qualname)
            return
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        if owner is not mod:
            setattr(owner, attr, wrapped)
            return
        # A module-level function: ``from m import f`` made copies, so
        # patch the name wherever a repro module holds the original.  One
        # that calls itself by name (``unwrap`` walking a list) keeps its
        # own module's binding: the recursion stays inside one span and
        # costs the traced run nothing.
        recursive = _loads_global(raw.__code__, attr)
        for name, other in list(sys.modules.items()):
            if (name.startswith("repro") and other is not None
                    and other.__dict__.get(attr) is raw
                    and not (recursive and other is mod)):
                setattr(other, attr, wrapped)

    def _note_missing(self, module: str, qualname: str) -> None:
        self.missing.append(f"{module}:{qualname}")
        self.missing_layers.add(layer_of(module))

    # -- output --------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Chrome ``trace_event`` JSON (load in chrome://tracing or
        Perfetto): one complete event per span, ``args`` carrying the op
        index, span id and parent span id."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {"name": key, "cat": layer, "ph": "X", "pid": 1, "tid": ident,
             "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
             "args": {"op": op, "span": span_id, "parent": parent}}
            for key, layer, t0, t1, span_id, parent, ident, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events,
                       "spansDropped": self.spans_dropped}, fh)
