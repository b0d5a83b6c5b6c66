"""Circuit-breaker state machine, driven by a fake clock."""

import threading

import pytest

from repro.serve import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make(threshold=3, recovery=1.0):
    clock = FakeClock()
    b = CircuitBreaker(
        "jit", failure_threshold=threshold, recovery_s=recovery,
        clock=clock,
    )
    return b, clock


class TestClosed:
    def test_starts_closed_and_allows(self):
        b, _ = make()
        assert b.state is BreakerState.CLOSED
        assert b.allow()

    def test_trips_at_threshold(self):
        b, _ = make(threshold=3)
        b.record_failure()
        b.record_failure()
        assert b.state is BreakerState.CLOSED
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.trips == 1

    def test_success_resets_consecutive_count(self):
        b, _ = make(threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state is BreakerState.CLOSED  # never 2 *consecutive*

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestOpen:
    def test_open_refuses_and_counts(self):
        b, _ = make(threshold=1)
        b.record_failure()
        assert not b.allow()
        assert not b.allow()
        assert b.refusals == 2

    def test_stays_open_through_cooldown(self):
        b, clock = make(threshold=1, recovery=1.0)
        b.record_failure()
        clock.advance(0.99)
        assert b.state is BreakerState.OPEN
        assert not b.allow()


class TestHalfOpen:
    def test_half_open_after_recovery(self):
        b, clock = make(threshold=1, recovery=1.0)
        b.record_failure()
        clock.advance(1.0)
        assert b.state is BreakerState.HALF_OPEN

    def test_exactly_one_probe(self):
        b, clock = make(threshold=1)
        b.record_failure()
        clock.advance(b.recovery_s)
        assert b.allow()       # the probe slot
        assert not b.allow()   # everyone else refused
        assert not b.allow()

    def test_probe_success_closes(self):
        b, clock = make(threshold=1)
        b.record_failure()
        clock.advance(b.recovery_s)
        assert b.allow()
        b.record_success()
        assert b.state is BreakerState.CLOSED
        assert b.allow() and b.allow()  # traffic flows again

    def test_probe_failure_reopens_full_window(self):
        b, clock = make(threshold=1, recovery=1.0)
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.trips == 2
        clock.advance(0.5)  # half the new window: still open
        assert not b.allow()
        clock.advance(0.5)
        assert b.allow()  # new probe slot

    def test_close_after_probe_frees_probe_slot_state(self):
        b, clock = make(threshold=2)
        b.record_failure()
        b.record_failure()
        clock.advance(b.recovery_s)
        assert b.allow()
        b.record_success()
        # A later trip must grant a fresh probe after its cooldown.
        b.record_failure()
        b.record_failure()
        clock.advance(b.recovery_s)
        assert b.allow()


class TestNeutralOutcomes:
    """A granted request whose outcome says nothing about backend
    health (deadline expiry, program error) must release the probe
    slot without moving the state machine."""

    def test_neutral_frees_the_probe_slot(self):
        b, clock = make(threshold=1)
        b.record_failure()
        clock.advance(b.recovery_s)
        assert b.allow()       # the probe slot
        assert not b.allow()   # held
        b.record_neutral()
        assert b.state is BreakerState.HALF_OPEN  # no verdict yet
        assert b.allow()       # a fresh probe, not a wedged breaker
        assert not b.allow()

    def test_neutral_probe_then_failure_reopens(self):
        b, clock = make(threshold=1, recovery=1.0)
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        b.record_neutral()
        assert b.allow()
        b.record_failure()  # the re-probe's real verdict
        assert b.state is BreakerState.OPEN
        assert b.trips == 2

    def test_neutral_probe_then_success_closes(self):
        b, clock = make(threshold=1)
        b.record_failure()
        clock.advance(b.recovery_s)
        assert b.allow()
        b.record_neutral()
        assert b.allow()
        b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_neutral_is_noop_when_closed(self):
        b, _ = make(threshold=2)
        b.record_failure()
        b.record_neutral()
        assert b.state is BreakerState.CLOSED
        # Not a success: the consecutive-failure count survives.
        b.record_failure()
        assert b.state is BreakerState.OPEN

    def test_neutral_is_noop_when_open(self):
        b, clock = make(threshold=1, recovery=1.0)
        b.record_failure()
        b.record_neutral()
        assert b.state is BreakerState.OPEN
        clock.advance(0.5)
        assert not b.allow()  # still inside the recovery window


class TestConcurrency:
    def test_concurrent_probe_race_grants_one(self):
        b, clock = make(threshold=1)
        b.record_failure()
        clock.advance(b.recovery_s)
        grants = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            if b.allow():
                grants.append(1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(grants) == 1
