"""Exception hierarchy for PySymphony.

All library-raised exceptions derive from :class:`JSError` so callers can
catch the whole family with one clause, mirroring how JavaSymphony surfaced
``JSException`` from its class library.
"""

from __future__ import annotations


class JSError(Exception):
    """Base class for every PySymphony error."""


class KernelError(JSError):
    """Misuse of the execution kernel (bad state transitions, re-entry)."""


class SimDeadlockError(KernelError):
    """The virtual kernel ran out of events while processes were blocked."""


class WaitTimeout(KernelError):
    """A blocking wait (future, channel, semaphore) timed out."""


class TransportError(JSError):
    """Message-layer failure (unknown endpoint, undeliverable message)."""


class RPCTimeoutError(TransportError):
    """An RPC did not receive a reply within its timeout."""


class NodeFailedError(TransportError):
    """The peer host has failed; the message was dropped."""


class RetriesExhaustedError(TransportError):
    """Every retry attempt of a reliable RPC failed.

    Carries the per-attempt trace (a list of
    :class:`repro.rmi.reliability.AttemptTrace`) so callers and incident
    bundles can see what was tried, against whom, and how each attempt
    died.  Deliberately *not* a subclass of :class:`RPCTimeoutError`:
    with a retry policy installed, raw timeouts are an internal signal
    and this typed error is the user-visible surface."""

    def __init__(self, message: str, attempts: list | None = None):
        super().__init__(message)
        self.attempts = list(attempts or [])


class CircuitOpenError(TransportError):
    """The per-host circuit breaker is open: the destination has failed
    enough consecutive calls that new traffic is shed without being
    sent (it would only burn the caller's timeout budget)."""


class RegistrationError(JSError):
    """Application registration/unregistration misuse."""


class AllocationError(JSError):
    """No physical node satisfies the requested constraints."""


class ArchitectureError(JSError):
    """Structural misuse of a virtual architecture (bad index, re-parenting,
    freeing a component twice, ...)."""


class ConstraintError(JSError):
    """Malformed constraint (unknown parameter, bad operator, type clash)."""


class ClassNotLoadedError(JSError):
    """Object creation was attempted on a node whose class registry does not
    hold the class (selective remote classloading was not performed)."""


class CodebaseError(JSError):
    """Codebase misuse (unknown entry, load after free, bad URL)."""


class ObjectStateError(JSError):
    """Operation on a freed/migrating object, or an invalid handle."""


class RemoteInvocationError(JSError):
    """A remote method raised; carries the remote exception as ``cause``."""

    def __init__(self, message: str, cause: BaseException | None = None):
        super().__init__(message)
        self.cause = cause


class MethodNotFoundError(RemoteInvocationError):
    """The invoked method does not exist on the remote object."""

    def __init__(self, message: str):
        super().__init__(message, None)


class MigrationError(JSError):
    """Migration protocol failure (target unknown, object busy forever...)."""


class PersistenceError(JSError):
    """Store/load failure for persistent objects."""


class ShellError(JSError):
    """JS-Shell administration failure (unknown node, duplicate add...)."""
