"""The reliability layer: retries, replay dedup, and circuit breaking.

JavaSymphony's RMI (and our transport) is fire-once: a dropped request or
reply surfaces to user code as a raw ``RPCTimeoutError``.  This module
holds what makes RPC *reliable* when ``ShellConfig.reliable`` is set.
The switch installs all three parts together; their knobs are class
constants:

:class:`RetryPolicy`
    Bounded exponential backoff with seeded jitter.

:class:`Retrier`
    The retry loop itself — the one object the runtime installs on the
    transport (``transport.retrier``) and :meth:`Endpoint.rpc
    <repro.transport.rpc.Endpoint.rpc>` hands a blocking call to.
    Bounded by construction: a ``for`` loop over the policy's attempts
    (pinned by ``tests/test_transport.py`` ``test_retry_loop_is_bounded``).

:class:`ReplayCache`
    Holder-side dedup keyed on the per-call idempotency token carried by
    :class:`repro.transport.rpc.Message`.  A retried request whose first
    copy already executed gets the *cached* reply (at-most-once
    execution); a retry that arrives while the first copy is still
    running waits on its outcome instead of re-executing.  Entries are
    evicted a derived window after completion that outlasts the retry
    loop, so a retry never finds its token gone — but a token is still
    forgotten eventually, so this is not exactly-once (see DESIGN.md for
    why that is not claimed).

:class:`CircuitBreaker`
    Per-host suspicion with the classic closed → open → half-open state
    machine.  An open circuit sheds new calls without burning their
    timeout budget; after a cooldown, one half-open probe is let through
    to test the host.  The runtime also consults :meth:`suspected` when
    ranking placement candidates, so a flaky host stops attracting new
    objects before the NAS declares it dead.

Delivery remains at-least-once; execution is at-most-once per token.
Nothing here claims exactly-once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    CircuitOpenError,
    NodeFailedError,
    RetriesExhaustedError,
    RPCTimeoutError,
)
from repro.kernel.virtual import VirtualKernel
from repro.obs import events as ev
from repro.transport.rpc import Addr, Transport
from repro.util.ids import IdGenerator
from repro.util.serialization import Wire

__all__ = [
    "RetryPolicy",
    "AttemptTrace",
    "Retrier",
    "ReplayCache",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]


class RetryPolicy:
    """Bounded exponential backoff for reliable RPC.

    Backoff for attempt ``n`` (1-based) is
    ``min(MAX_BACKOFF, BASE_BACKOFF * BACKOFF_FACTOR ** (n - 1))``,
    shrunk by up to ``JITTER`` fraction using the kernel RNG stream
    ``"retry"`` so replays are bit-identical for a given seed.
    """

    #: total send attempts (the first try counts as attempt 1)
    MAX_ATTEMPTS = 4
    #: backoff after the first failed attempt, in sim seconds
    BASE_BACKOFF = 0.05
    BACKOFF_FACTOR = 2.0
    MAX_BACKOFF = 2.0
    #: fraction of each backoff randomized away
    JITTER = 0.5
    #: per-attempt reply timeout used when the caller passed none
    #: (a ``timeout=None`` RPC would otherwise block forever and the
    #: retry loop would never get a turn)
    ATTEMPT_TIMEOUT = 5.0

    def backoff(self, attempt: int, rng: Any) -> float:
        """Sleep before re-sending after failed attempt ``attempt``."""
        raw = min(
            self.MAX_BACKOFF,
            self.BASE_BACKOFF * self.BACKOFF_FACTOR ** (attempt - 1),
        )
        return raw * (1.0 - self.JITTER * float(rng.random()))

    @classmethod
    def per_attempt_timeout(cls, timeout: float | None) -> float:
        return timeout if timeout is not None else cls.ATTEMPT_TIMEOUT


@dataclass
class AttemptTrace:
    """What one failed attempt of a reliable RPC looked like.

    A list of these rides on :class:`repro.errors.RetriesExhaustedError`
    and lands in flight-recorder incident bundles."""

    attempt: int
    dst: str
    kind: str
    started: float
    elapsed: float
    error: str


class _Slot:
    """One token's entry in the replay cache.

    ``future`` resolves to the outcome's ``Wire`` once
    the first copy of the request finishes executing; ``completed_at``
    starts the eviction clock."""

    __slots__ = ("future", "completed_at")

    def __init__(self, future: Any) -> None:
        self.future = future
        self.completed_at: float | None = None


class ReplayCache:
    """Holder-side at-most-once execution, keyed by idempotency token.

    The transport calls :meth:`claim` before dispatching a handler:

    - *new* token → the caller executes the handler and must call
      :meth:`complete` with the outcome (success **or** error — a
      retried call that failed application-side must replay the same
      failure, not run twice);
    - *seen* token → the caller skips the handler and waits on
      ``slot.future`` for the original outcome (which may still be
      executing — duplicates block until it lands).

    The outcome kept is the reply's encoded
    :class:`~repro.util.serialization.Wire`, not the value: a replay
    decodes it, so every duplicate gets a copy of its own and the bytes
    charged are the original's.

    Completed entries are evicted :attr:`window` sim-seconds after
    completion.  The window is derived, not set: it outlasts the retry
    loop's last attempt at the runtime's current ``rpc_timeout``."""

    #: the window never drops below this many sim seconds
    WINDOW_FLOOR = 60.0

    def __init__(self, kernel: VirtualKernel, config: Any) -> None:
        self.kernel = kernel
        #: the runtime's :class:`~repro.agents.shell.ShellConfig`; its
        #: ``rpc_timeout`` is read each time the cache evicts
        self.config = config
        self._slots: dict[str, _Slot] = {}
        #: duplicate requests served from cache or in-flight wait
        self.hits = 0

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def window(self) -> float:
        """How long a completed token is kept: at least every later
        attempt's timeout and backoff, so a retry that arrives after its
        first copy completed is still answered from the cache."""
        per_attempt = RetryPolicy.per_attempt_timeout(self.config.rpc_timeout)
        retries = RetryPolicy.MAX_ATTEMPTS - 1
        return max(self.WINDOW_FLOOR,
                   retries * (per_attempt + RetryPolicy.MAX_BACKOFF))

    def claim(self, token: str) -> tuple[bool, _Slot]:
        """Return ``(is_new, slot)`` for ``token`` (see class docs)."""
        self._evict()
        slot = self._slots.get(token)
        if slot is not None:
            self.hits += 1
            return False, slot
        slot = _Slot(self.kernel.create_future())
        self._slots[token] = slot
        return True, slot

    def complete(self, token: str, outcome: Wire) -> None:
        """Record ``token``'s outcome and wake any waiting duplicates."""
        slot = self._slots[token]
        slot.completed_at = self.kernel.now()
        if not slot.future.done():
            slot.future.set_result(outcome)

    def _evict(self) -> None:
        now, window = self.kernel.now(), self.window
        dead = [
            token
            for token, slot in self._slots.items()
            if slot.completed_at is not None
            and now - slot.completed_at > window
        ]
        for token in dead:
            del self._slots[token]


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class _HostCircuit:
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    #: half-open admits exactly one probe at a time
    probe_in_flight: bool = False


class CircuitBreaker:
    """Per-host circuit breaker / suspicion level.

    closed --(``THRESHOLD`` consecutive failures)--> open
    open --(``COOLDOWN`` elapsed)--> half-open (one probe admitted)
    half-open --(probe succeeds)--> closed
    half-open --(probe fails)--> open (cooldown restarts)

    ``on_state`` (set by the runtime) is called on every transition so
    the tracer can emit ``circuit.state`` events."""

    #: consecutive failures that open a closed circuit
    THRESHOLD = 5
    #: sim seconds an open circuit sheds calls before it admits a probe
    COOLDOWN = 30.0

    def __init__(self) -> None:
        self._hosts: dict[str, _HostCircuit] = {}
        self.on_state: Callable[[str, str], None] | None = None

    def _circuit(self, host: str) -> _HostCircuit:
        circuit = self._hosts.get(host)
        if circuit is None:
            circuit = self._hosts[host] = _HostCircuit()
        return circuit

    def _transition(self, host: str, circuit: _HostCircuit, state: str) -> None:
        if circuit.state == state:
            return
        circuit.state = state
        if self.on_state is not None:
            self.on_state(host, state)

    # -- the transport-facing protocol ----------------------------------------

    def allow(self, host: str, now: float) -> bool:
        """May a new call be sent to ``host`` right now?"""
        circuit = self._circuit(host)
        if circuit.state == CLOSED:
            return True
        if circuit.state == OPEN:
            if now - circuit.opened_at < self.COOLDOWN:
                return False
            self._transition(host, circuit, HALF_OPEN)
            circuit.probe_in_flight = False
        # half-open: admit exactly one probe
        if circuit.probe_in_flight:
            return False
        circuit.probe_in_flight = True
        return True

    def record_success(self, host: str) -> None:
        circuit = self._circuit(host)
        circuit.consecutive_failures = 0
        circuit.probe_in_flight = False
        self._transition(host, circuit, CLOSED)

    def record_failure(self, host: str, now: float) -> None:
        circuit = self._circuit(host)
        circuit.probe_in_flight = False
        if circuit.state == HALF_OPEN:
            circuit.opened_at = now
            self._transition(host, circuit, OPEN)
            return
        circuit.consecutive_failures += 1
        if (
            circuit.state == CLOSED
            and circuit.consecutive_failures >= self.THRESHOLD
        ):
            circuit.opened_at = now
            self._transition(host, circuit, OPEN)

    def force_open(self, host: str, now: float) -> None:
        """Trip immediately (the NAS declared the host failed)."""
        circuit = self._circuit(host)
        circuit.consecutive_failures = self.THRESHOLD
        circuit.opened_at = now
        self._transition(host, circuit, OPEN)

    def reset(self, host: str) -> None:
        """Forget a host's history (it restarted with a clean slate)."""
        circuit = self._circuit(host)
        circuit.consecutive_failures = 0
        circuit.opened_at = 0.0
        circuit.probe_in_flight = False
        self._transition(host, circuit, CLOSED)

    # -- placement-facing -----------------------------------------------------

    def suspected(self, host: str) -> bool:
        """True while the circuit is open or probing (shed placements)."""
        circuit = self._hosts.get(host)
        return circuit is not None and circuit.state != CLOSED


class Retrier:
    """Blocking RPC with retries: executes the :class:`RetryPolicy` (and
    feeds the runtime's :class:`CircuitBreaker`) around the transport's
    fire-once rendezvous.

    Every attempt carries the same idempotency token (fresh ``msg_id``),
    so holders with a dedup cache execute at most once.  Only
    transport-level failures (:class:`RPCTimeoutError`,
    :class:`NodeFailedError`) are retried — an application exception
    from the handler is a *delivered* outcome and re-raises immediately.
    Exhaustion raises :class:`repro.errors.RetriesExhaustedError`
    carrying the per-attempt trace; an open circuit sheds the call up
    front with :class:`repro.errors.CircuitOpenError`."""

    def __init__(self, transport: Transport, health: CircuitBreaker) -> None:
        self.transport = transport
        self.policy = RetryPolicy()
        self.health = health
        self._tokens = IdGenerator()

    def rpc(self, src: Addr, dst: Addr, kind: str, payload: Any,
            timeout: float | None = None) -> Any:
        transport, policy, health = self.transport, self.policy, self.health
        world = transport.world
        kernel = world.kernel
        if kernel.current_process() is None:
            # No process to sleep in (module-level/test harness
            # callers): fire-once semantics.
            return transport.rpc(src, dst, kind, payload).result_or_timeout(
                timeout)
        token = self._tokens.next("tok")
        per_attempt = policy.per_attempt_timeout(timeout)
        rng = world.rng.stream("retry")
        attempts: list = []
        for attempt in range(1, policy.MAX_ATTEMPTS + 1):
            if not health.allow(dst.host, world.now()):
                if attempts:
                    raise RetriesExhaustedError(
                        f"{kind} to {dst}: circuit opened after "
                        f"{len(attempts)} failed attempt(s)",
                        attempts=attempts,
                    )
                raise CircuitOpenError(
                    f"{kind} to {dst}: circuit open for host {dst.host!r}"
                )
            started = world.now()
            try:
                value = transport.rpc(
                    src, dst, kind, payload, token=token
                ).result_or_timeout(per_attempt)
            except (RPCTimeoutError, NodeFailedError) as exc:
                now = world.now()
                attempts.append(AttemptTrace(
                    attempt=attempt, dst=str(dst), kind=kind,
                    started=started, elapsed=now - started,
                    error=repr(exc),
                ))
                health.record_failure(dst.host, now)
                backoff = policy.backoff(attempt, rng)
                if attempt >= policy.MAX_ATTEMPTS:
                    raise RetriesExhaustedError(
                        f"{kind} to {dst} failed after {attempt} "
                        f"attempt(s)",
                        attempts=attempts,
                    ) from exc
                tracer = transport.tracer
                tracer.emit(
                    ev.RPC_RETRY, ts=now, host=src.host,
                    actor=str(src), kind=kind, dst=str(dst),
                    attempt=attempt, backoff=backoff,
                    error=type(exc).__name__,
                )
                tracer.count("rpc.retries", host=src.host)
                kernel.sleep(backoff)
            else:
                health.record_success(dst.host)
                return value
        raise AssertionError("unreachable: retry loop is bounded")
