"""Message kinds of the JRS agent protocol.

Grouped by subsystem: NAS (monitoring/failure detection), OAS (object
lifecycle + invocation), and administration.
"""

from __future__ import annotations

# --- Network Agent System -------------------------------------------------
PING = "PING"                          # heartbeat probe
# REPORT_PARAMS carries (host, snapshot); REPORT_AGGREGATE carries
# (level, name, weighted) with level "cluster" or "site".
REPORT_PARAMS = "REPORT_PARAMS"        # node -> cluster manager sample
REPORT_AGGREGATE = "REPORT_AGGREGATE"  # manager -> higher manager average

# --- Object Agent System -----------------------------------------------------
CREATE_OBJECT = "CREATE_OBJECT"
CREATE_FROM_STATE = "CREATE_FROM_STATE"
INVOKE = "INVOKE"
INVOKE_BATCH = "INVOKE_BATCH"          # [(obj_id, method, params), ...] ->
#                                        positional outcome vector
ONEWAY_INVOKE = "ONEWAY_INVOKE"
FREE_OBJECT = "FREE_OBJECT"
MIGRATE_OUT = "MIGRATE_OUT"            # ao -> pa1: push the object to pa2
MIGRATE_IN = "MIGRATE_IN"              # pa1 -> pa2: here is the object
FETCH_STATE = "FETCH_STATE"            # serialize for persistence
GET_LOCATION = "GET_LOCATION"          # anybody -> origin AppOA (fig. 4)
CONSTRAINTS_VIOLATED = "CONSTRAINTS_VIOLATED"  # PubOA -> AppOA watch event
REGISTER_VA = "REGISTER_VA"            # AppOA -> PubOA: watch this VA
UNREGISTER_VA = "UNREGISTER_VA"

# --- static segments (extension: the paper's stated future work) ------------
STATIC_REF = "STATIC_REF"              # ensure the per-node static segment
STATIC_GETVAR = "STATIC_GETVAR"
STATIC_SETVAR = "STATIC_SETVAR"

# --- codebase / classloading -------------------------------------------------
LOAD_CLASSES = "LOAD_CLASSES"
UNLOAD_CLASSES = "UNLOAD_CLASSES"

# --- wire-level invocation outcomes -----------------------------------------


class Moved:
    """Reply marker: the object migrated away; ask its origin AppOA."""

    __slots__ = ("obj_id", "hint")

    def __init__(self, obj_id: str, hint=None) -> None:
        self.obj_id = obj_id
        self.hint = hint  # forwarding Addr if the tombstone knows it

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Moved {self.obj_id} hint={self.hint}>"


class UnknownObject:
    """Reply marker: this holder never heard of the object (freed?)."""

    __slots__ = ("obj_id",)

    def __init__(self, obj_id: str) -> None:
        self.obj_id = obj_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UnknownObject {self.obj_id}>"


class BatchFailure:
    """Per-call outcome in an ``INVOKE_BATCH`` reply: this one call
    raised.  The exception travels positionally so a single bad call
    does not fail the rest of the batch."""

    __slots__ = ("obj_id", "exc")

    def __init__(self, obj_id: str, exc: BaseException) -> None:
        self.obj_id = obj_id
        self.exc = exc

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BatchFailure {self.obj_id}: {self.exc!r}>"
