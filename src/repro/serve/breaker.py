"""Circuit breakers: stop hammering a sick device.

A :class:`CircuitBreaker` guards one device of a
:class:`repro.sched.DevicePool`, whatever executor a request runs on
it.  It is the classic three-state machine:

- **closed** — traffic flows; consecutive device-class failures are
  counted, and reaching ``failure_threshold`` trips the breaker;
- **open** — traffic is refused (``allow()`` is False) so a request
  goes to the interpreter floor (or another device) instead, until
  ``recovery_s`` of wall time has passed;
- **half-open** — exactly *one* probe request is let through.  If it
  succeeds the breaker closes; if it fails the breaker re-opens for
  another full recovery window.

The state machine lives here; the *protocol* — ``allow()`` before a
device stint, exactly one ``record_*`` after it — has one caller,
:func:`repro.runtime.run_resilient`, which finds the breaker on the
device a pool's shard hands it.  Everybody else reads
:attr:`CircuitBreaker.state`/:meth:`snapshot`.

All transitions are lock-protected (every thread that runs a stint on
a device — a caller, a server worker, a split's shard thread — shares
that device's one breaker), and the clock is
injectable so the state machine can be property-tested
deterministically (``tests/property/test_breaker.py``).
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Any, Callable, Dict

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trip after consecutive failures; probe once after a cooldown."""

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 3,
        recovery_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: Lifetime accounting, for ``Server.health()``.
        self.trips = 0
        self.refusals = 0
        #: Per-edge state-transition counts (``"closed->open"``,
        #: ``"open->half-open"``, ...), so routing decisions driven by
        #: breaker state stay auditable after the fact.
        self.transitions: Dict[str, int] = {}

    # -- queries ------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state_locked()

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-serialisable view ``health()`` reports."""
        return {
            "state": self.state.value,
            "trips": self.trips,
            "refusals": self.refusals,
            "transitions": dict(self.transitions),
        }

    def _state_locked(self) -> BreakerState:
        """Resolve OPEN -> HALF_OPEN lazily once the cooldown elapsed
        (no background timer thread needed)."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.recovery_s
        ):
            self._set_state_locked(BreakerState.HALF_OPEN)
            self._probe_inflight = False
        return self._state

    def _set_state_locked(self, new: BreakerState) -> None:
        old = self._state
        if old is new:
            return
        edge = f"{old.value}->{new.value}"
        self.transitions[edge] = self.transitions.get(edge, 0) + 1
        self._state = new

    # -- the serving-path API ----------------------------------------------

    def allow(self) -> bool:
        """May a request be sent to this backend right now?

        In half-open state the first caller wins the single probe slot;
        everyone else is refused until the probe's outcome is recorded.
        """
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.CLOSED:
                return True
            if state is BreakerState.HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            self.refusals += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state_locked() is not BreakerState.CLOSED:
                self._set_state_locked(BreakerState.CLOSED)
            self._probe_inflight = False

    def record_neutral(self) -> None:
        """Release a granted slot without judging the backend.

        For requests that ``allow()`` let through but whose outcome
        says nothing about backend health — the request's own deadline
        expired mid-run, or the program itself was broken.  In
        half-open state this frees the single probe slot so the next
        request can probe (otherwise the breaker would wedge with the
        slot held forever); in any other state it is a no-op.
        """
        with self._lock:
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.HALF_OPEN:
                # The probe failed: back to a full recovery window.
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if (
                state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._set_state_locked(BreakerState.OPEN)
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_inflight = False
        self.trips += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker({self.name!r}, state={self.state.value}, "
            f"trips={self.trips})"
        )
