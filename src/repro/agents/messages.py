"""Message kinds of the JRS agent protocol.

Grouped by subsystem: NAS (monitoring/failure detection), OAS (object
lifecycle + invocation), and administration.
"""

from __future__ import annotations

# --- Network Agent System -------------------------------------------------
PING = "PING"                          # heartbeat probe
# REPORT_PARAMS carries (host, packed); REPORT_AGGREGATE carries
# (level, name, packed, weight) with level "cluster" or "site".  A packed
# snapshot is repro.sysmon.pack_snapshot's: member names for keys, so
# that decoding a report builds no enum member.  Both are modelled as
# network_agent.SAMPLE_WIRE_BYTES on the wire, whatever they pickle to.
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
MIGRATE_RESOLVE = "MIGRATE_RESOLVE"    # pa1 -> pa2: did that push land?
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
    """Reply marker: the object migrated away, to ``hint`` (the
    forwarding Addr its tombstone keeps)."""

    __slots__ = ("obj_id", "hint")

    def __init__(self, obj_id: str, hint) -> None:
        self.obj_id = obj_id
        self.hint = hint

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Moved {self.obj_id} hint={self.hint}>"


class UnknownObject:
    """Reply marker: this holder does not hold the object and it did not
    migrate away from here (freed here, or never held)."""

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
