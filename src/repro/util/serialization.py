"""Serialization with byte accounting.

JavaSymphony rides on Java object serialization; every remote interaction
pays a cost proportional to the serialized size.  We use :mod:`pickle` and
measure real sizes, with one escape hatch: :class:`Payload` lets benchmark
workloads declare *nominal* sizes and flop counts so that a simulated
N=2000 matrix multiplication does not have to allocate 32 MB per message.

:func:`encode` / :func:`decode` are the codec: one pickle per wire leg,
sized in the same pass, one unpickle per delivery.  ``sizeof`` and
``deep_copy_via_pickle`` are names over it.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from typing import Any

#: Fixed per-message envelope overhead in bytes (headers, method name,
#: RMI bookkeeping).  Java RMI-era envelopes were a few hundred bytes.
ENVELOPE_BYTES = 256


#: Per thread: has the pickle pass under way met a :class:`Payload`?
#: Written by ``Payload.__reduce_ex__``, reset and read by :func:`encode`.
_pickling = threading.local()


@dataclass(frozen=True)
class Payload:
    """A value annotated with nominal transfer/compute costs.

    ``data`` travels for real (pickled) while ``nbytes``/``flops`` drive the
    simulator's cost model.  When ``nbytes`` is ``None`` the real pickled
    size is used, so a plain ``Payload(data)`` behaves like the raw value.
    """

    data: Any = None
    nbytes: int | None = None
    flops: float = 0.0
    meta: dict = field(default_factory=dict)

    def __reduce_ex__(self, protocol: int) -> Any:
        # Pickles exactly as it would without this method; the note is
        # how encode() learns from the pickle pass itself, not from a
        # walk over the arguments, that a message carries a Payload.
        _pickling.saw_payload = True
        return object.__reduce_ex__(self, protocol)


def dumps(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def loads(blob: bytes) -> Any:
    return pickle.loads(blob)


#: plain ``str`` leaf -> its pickled length.  The leaves beside a nominal
#: argument are object ids and method names, a small set that recurs on
#: every call; the memo is emptied when it reaches :data:`_LEAF_MEMO_MAX`.
_leaf_sizes: dict[str, int] = {}
_LEAF_MEMO_MAX = 4096


def _leaf_size(item: Any) -> int:
    """Pickled length of a plain sibling of a Payload."""
    if type(item) is not str:
        return len(dumps(item))
    size = _leaf_sizes.get(item)
    if size is None:
        if len(_leaf_sizes) >= _LEAF_MEMO_MAX:
            _leaf_sizes.clear()
        size = _leaf_sizes[item] = len(dumps(item))
    return size


def _wire_size(value: Any, depth: int = 4) -> int | None:
    """Structural size of *value* when a Payload is within reach —
    through tuples/lists, at most *depth* levels down — else ``None``:
    the caller then sizes the value as the one pickle it is."""
    if isinstance(value, Payload):
        if value.nbytes is not None:
            return int(value.nbytes)
        return len(dumps(value.data))
    if depth > 0 and isinstance(value, (tuple, list)):
        # One loop, no comprehension: an invocation batch sizes every
        # slot's tuple and argument list this way, per message.
        found = False
        total = 0
        plain = []
        for item in value:
            size = _wire_size(item, depth - 1)
            if size is None:
                plain.append(item)
            else:
                found = True
                total += size
        if found:  # the plain siblings are sized only beside a Payload
            for item in plain:
                total += _leaf_size(item)
            return total
    return None


class Wire:
    """One flattened message: what a wire leg carries.

    ``blob`` is the pickle, ``nbytes`` what the cost model charges for it
    (envelope included) and ``nominal`` whether a :class:`Payload` is
    anywhere inside — when ``False``, :func:`flops_of` of the value is
    0.0 and :func:`unwrap` is the identity, so receivers skip both."""

    __slots__ = ("blob", "nbytes", "nominal")

    def __init__(self, blob: bytes, nbytes: int, nominal: bool) -> None:
        self.blob = blob
        self.nbytes = nbytes
        self.nominal = nominal


def encode(value: Any) -> Wire:
    """Flatten *value* once: the blob every delivery decodes and the wire
    size, honoring nominal Payload sizes.

    Without a Payload the size is the blob's length.  With one, Payloads
    are found through (nested) tuples/lists — invocation messages travel
    as ``(obj_id, method, [params...])`` and a nominal matrix inside the
    params must drive the cost — and their plain siblings are sized leaf
    by leaf; such messages are small by construction.  A Payload hidden
    elsewhere (inside a dict, five lists down) is not honoured."""
    _pickling.saw_payload = False
    blob = dumps(value)
    nominal = _pickling.saw_payload
    size = _wire_size(value) if nominal else None
    if size is None:  # no Payload, or none where the arithmetic looks
        size = len(blob)
    return Wire(blob, size + ENVELOPE_BYTES, nominal)


def decode(wire: Wire) -> Any:
    """A fresh copy of the encoded value.

    Remote invocations must exhibit copy semantics: mutating an argument
    on the callee must not be visible to the caller.  Unpickling the
    sender's blob is exactly what a real wire transfer would do."""
    return loads(wire.blob)


def sizeof(value: Any) -> int:
    """Wire size in bytes for *value* (see :func:`encode`)."""
    return encode(value).nbytes


def deep_copy_via_pickle(value: Any) -> Any:
    """Round-trip a value through the codec."""
    return decode(encode(value))


def flops_of(value: Any, depth: int = 4) -> float:
    """Total nominal flops declared by Payloads inside *value* (nested
    tuples/lists included)."""
    if isinstance(value, Payload):
        return float(value.flops)
    if depth > 0 and isinstance(value, (tuple, list)):
        return float(
            sum(flops_of(item, depth - 1) for item in value)
        )
    return 0.0


def unwrap(value: Any) -> Any:
    """Strip Payload wrappers, producing the plain arguments a method sees."""
    if isinstance(value, Payload):
        return value.data
    if isinstance(value, tuple):
        return tuple(unwrap(item) for item in value)
    if isinstance(value, list):
        return [unwrap(item) for item in value]
    return value
