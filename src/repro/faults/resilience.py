"""Client-side resilience: retries, deadlines, circuit breaking.

De Florio & Deconinck's recovery-language argument (PAPERS.md) puts
retry/recovery strategies into a reusable middleware layer instead of
application code.  This module is that layer for the DeDiSys client path:

* :class:`RetryPolicy` — exponential backoff with seeded jitter and
  capped attempts.  Backing off *advances the simulated clock through the
  scheduler*, so scripted heals and fault-model state transitions happen
  while a caller waits — exactly how a retry rides out a transient fault.
* Per-invocation **deadlines** — a simulated-time budget carried on the
  :class:`~repro.objects.invocation.Invocation`; enforced before every
  attempt and again server-side at the constraint interceptor.
* :class:`CircuitBreaker` — per-destination closed/open/half-open
  breaker.  Repeated transport failures open the circuit; while open,
  calls fail fast with :class:`CircuitOpenError` instead of burning
  network attempts; after ``reset_timeout`` a half-open probe decides.
* :class:`ResilienceInterceptor` — the client-chain interceptor wiring
  the three together around the transport hop, instrumented through the
  observability hub.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..net.messages import DeadlineExceededError, NodeId, UnreachableError
from ..objects import Interceptor, Invocation, Node
from ..obs import ensure_obs

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import SimNetwork
    from ..objects.invocation import Proceed


class CircuitOpenError(RuntimeError):
    """The per-destination circuit is open; the call failed fast."""

    def __init__(self, source: NodeId, destination: NodeId, retry_at: float) -> None:
        super().__init__(
            f"circuit from {source} to {destination} is open until t={retry_at:.6f}"
        )
        self.source = source
        self.destination = destination
        self.retry_at = retry_at


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter and capped attempts."""

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1  # extra fraction of the delay, drawn uniformly

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter:
            raw = min(raw * (1.0 + rng.random() * self.jitter), self.max_delay)
        return raw


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning of the per-destination circuit breakers."""

    failure_threshold: int = 5
    reset_timeout: float = 5.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One destination's circuit, clocked by the simulated clock.

    CLOSED counts consecutive failures; at ``failure_threshold`` the
    circuit OPENs for ``reset_timeout`` simulated seconds, during which
    :meth:`allow` refuses instantly.  After the timeout the circuit goes
    HALF_OPEN and admits up to ``half_open_probes`` probe calls: one
    success re-CLOSEs it, one failure re-OPENs it.
    """

    def __init__(
        self,
        clock: Any,
        config: BreakerConfig,
        destination: NodeId = "",
        on_transition: Callable[["CircuitBreaker", BreakerState, BreakerState], None]
        | None = None,
    ) -> None:
        self.clock = clock
        self.config = config
        self.destination = destination
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._probes_outstanding = 0

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a call to this destination may proceed now."""
        if self.state is BreakerState.OPEN:
            if self.clock.now - self.opened_at >= self.config.reset_timeout:
                self._transition(BreakerState.HALF_OPEN)
            else:
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_outstanding >= self.config.half_open_probes:
                return False
            self._probes_outstanding += 1
        return True

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_outstanding = max(0, self._probes_outstanding - 1)
            self._transition(BreakerState.CLOSED)
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_outstanding = max(0, self._probes_outstanding - 1)
            self._open()
            return
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._open()

    @property
    def retry_at(self) -> float:
        """Earliest simulated time an OPEN circuit admits a probe."""
        return self.opened_at + self.config.reset_timeout

    # ------------------------------------------------------------------
    def _open(self) -> None:
        self.opened_at = self.clock.now
        self.consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    def _transition(self, new_state: BreakerState) -> None:
        if new_state is self.state:
            return
        old = self.state
        self.state = new_state
        if new_state is not BreakerState.HALF_OPEN:
            self._probes_outstanding = 0
        if self.on_transition is not None:
            self.on_transition(self, old, new_state)


@dataclass
class ResilienceConfig:
    """What the client path does about transient failures.

    Any of the three mechanisms may be disabled by setting it to ``None``
    (retry/breaker) or leaving it unset (deadline).
    """

    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    breaker: BreakerConfig | None = field(default_factory=BreakerConfig)
    default_deadline: float | None = None
    seed: int = 0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResilienceConfig":
        """From JSON-native data (scenario ``params``): ``retry`` and
        ``breaker`` are field mappings, ``null`` to disable, absent for
        the defaults."""
        fields = dict(data)
        for key, part in (("retry", RetryPolicy), ("breaker", BreakerConfig)):
            if fields.get(key) is not None:
                fields[key] = part(**fields[key])
        return cls(**fields)


class ResilienceInterceptor(Interceptor):
    """Client-chain interceptor: deadline, breaker, retry around transport.

    Sits between the cost interceptor and the transport interceptor.  The
    ``router`` callback (the transport's routing function) is consulted to
    key the circuit breaker by destination *before* paying a network
    attempt; routing errors there are ignored — ``proceed()`` will raise
    the same error through the normal path.
    """

    name = "resilience"

    def __init__(
        self,
        node: Node,
        network: "SimNetwork",
        config: ResilienceConfig,
        router: Callable[[Invocation], NodeId] | None = None,
        obs: Any = None,
    ) -> None:
        self.node = node
        self.network = network
        self.config = config
        self.router = router
        self.obs = ensure_obs(obs)
        self._rng = random.Random(f"{config.seed}:{node.node_id}")
        self._breakers: dict[NodeId, CircuitBreaker] = {}
        self._m_retries = self.obs.registry.counter(
            "resilience_retries_total", "client-side retry attempts, by error"
        )
        self._m_exhausted = self.obs.registry.counter(
            "resilience_retries_exhausted_total", "invocations that ran out of attempts"
        )
        self._m_deadline = self.obs.registry.counter(
            "resilience_deadline_exceeded_total", "invocations abandoned at their deadline"
        )
        self._m_breaker = self.obs.registry.counter(
            "resilience_breaker_transitions_total",
            "circuit state changes, by target state and transition",
        )
        self._m_fast_fail = self.obs.registry.counter(
            "resilience_breaker_fast_fails_total", "calls refused by an open circuit"
        )
        self._g_open = self.obs.registry.gauge(
            "resilience_breaker_open", "circuits currently open, per client node"
        )

    # ------------------------------------------------------------------
    def breaker_for(self, destination: NodeId) -> CircuitBreaker:
        breaker = self._breakers.get(destination)
        if breaker is None:
            breaker = CircuitBreaker(
                self.node.services.clock,
                self.config.breaker or BreakerConfig(),
                destination=destination,
                on_transition=self._on_breaker_transition,
            )
            self._breakers[destination] = breaker
        return breaker

    def breaker_states(self) -> dict[NodeId, BreakerState]:
        """Current circuit state per destination (introspection)."""
        return {dest: breaker.state for dest, breaker in sorted(self._breakers.items())}

    # ------------------------------------------------------------------
    def intercept(self, invocation: Invocation, proceed: "Proceed") -> Any:
        clock = self.node.services.clock
        if self.config.default_deadline is not None and invocation.deadline is None:
            invocation.deadline = clock.now + self.config.default_deadline
        retry = self.config.retry
        attempts = retry.max_attempts if retry is not None else 1
        attempt = 1
        while True:
            self._check_deadline(invocation, clock)
            breaker = self._admit(invocation)
            try:
                result = proceed()
            except UnreachableError as exc:
                self._record_failure(breaker, exc)
                if attempt >= attempts:
                    if retry is not None and attempts > 1:
                        self._m_exhausted.inc()
                    raise
                delay = retry.delay_for(attempt, self._rng)
                deadline = invocation.deadline
                if deadline is not None and clock.now + delay > deadline:
                    self._note_deadline(invocation, clock)
                    raise DeadlineExceededError(
                        invocation.ref, deadline, clock.now
                    ) from exc
                if self.obs.enabled:
                    self._m_retries.inc(error=type(exc).__name__)
                    self.obs.emit(
                        "retry",
                        node=str(self.node.node_id),
                        ref=invocation.ref,
                        method=invocation.method_name,
                        attempt=attempt,
                        delay=delay,
                        destination=exc.destination,
                    )
                # Back off through the scheduler so scripted faults and
                # heals fire while this caller waits.
                self.network.scheduler.run_until(clock.now + delay)
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, invocation: Invocation) -> CircuitBreaker | None:
        """Check the destination's circuit; raise when it refuses."""
        if self.config.breaker is None or self.router is None:
            return None
        try:
            target = self.router(invocation)
        except Exception:
            return None  # proceed() will surface the routing error itself
        if target == self.node.node_id:
            return None  # local execution needs no circuit
        breaker = self.breaker_for(target)
        if not breaker.allow():
            if self.obs.enabled:
                self._m_fast_fail.inc()
                self.obs.emit(
                    "breaker_fast_fail",
                    node=str(self.node.node_id),
                    destination=target,
                    retry_at=breaker.retry_at,
                )
            raise CircuitOpenError(self.node.node_id, target, breaker.retry_at)
        return breaker

    def _record_failure(self, breaker: CircuitBreaker | None, exc: UnreachableError) -> None:
        # The exception names the failing hop, which may differ from the
        # admitted target (e.g. a server-side redirect failed); prefer it.
        destination = exc.destination
        if destination in self.network.nodes and self.config.breaker is not None:
            self.breaker_for(destination).record_failure()
        elif breaker is not None:
            breaker.record_failure()

    def _check_deadline(self, invocation: Invocation, clock: Any) -> None:
        deadline = invocation.deadline
        if deadline is not None and clock.now > deadline:
            self._note_deadline(invocation, clock)
            raise DeadlineExceededError(invocation.ref, deadline, clock.now)

    def _note_deadline(self, invocation: Invocation, clock: Any) -> None:
        if self.obs.enabled:
            self._m_deadline.inc()
            self.obs.emit(
                "deadline_exceeded",
                node=str(self.node.node_id),
                ref=invocation.ref,
                method=invocation.method_name,
                deadline=invocation.deadline,
            )

    def open_circuits(self) -> int:
        """How many of this node's circuits are currently OPEN."""
        return sum(
            1 for breaker in self._breakers.values() if breaker.state is BreakerState.OPEN
        )

    def _on_breaker_transition(
        self, breaker: CircuitBreaker, old: BreakerState, new: BreakerState
    ) -> None:
        if self.obs.enabled:
            self._m_breaker.inc(
                state=new.value, transition=f"{old.value}->{new.value}"
            )
            self._g_open.set(self.open_circuits(), node=str(self.node.node_id))
            self.obs.emit(
                "breaker_transition",
                node=str(self.node.node_id),
                destination=breaker.destination,
                previous=old.value,
                current=new.value,
            )
