"""Property tests for the circuit breaker's state machine.

Random interleavings of failures, successes and clock advances must
never violate the breaker's two core guarantees:

1. **trip safety** — the breaker never serves traffic once it has seen
   ``failure_threshold`` consecutive failures, until a recovery window
   has elapsed;
2. **single probe** — in the half-open state exactly one request is
   allowed through until its outcome is recorded.

And the *protocol* around it has one caller,
``repro.runtime.run_resilient``: whatever a request's outcome —
including being cancelled before it starts — the probe slot is never
left held, and only device-class outcomes count against the breaker.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import array_value
from repro.core.prim import F32
from repro.errors import (
    DeadlineExceeded,
    DeviceFault,
    DeviceOOM,
    KernelTimeout,
    ReproError,
)
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.pipeline import compile_source
from repro.runtime import ExecutionPolicy, run_resilient
from repro.serve import BreakerState, CircuitBreaker, Deadline

#: One step of a random schedule.  ``advance`` moves the fake clock by
#: the given fraction of the recovery window.
STEP = st.one_of(
    st.just(("fail",)),
    st.just(("success",)),
    st.just(("allow",)),
    st.just(("neutral",)),
    st.tuples(st.just("advance"), st.floats(0.0, 2.0)),
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class BreakerModel:
    """Reference interpretation of the schedule, tracking only what
    the properties need: consecutive failures and open windows."""

    def __init__(self, threshold, recovery, clock):
        self.threshold = threshold
        self.recovery = recovery
        self.clock = clock
        self.consecutive = 0
        self.opened_at = None  # None = not in an open window

    def cooled_down(self):
        return (
            self.opened_at is not None
            and self.clock() - self.opened_at >= self.recovery
        )

    def fail(self):
        if self.opened_at is not None:
            if self.cooled_down():
                # Half-open probe failing re-opens a fresh window.
                self.opened_at = self.clock()
            return
        self.consecutive += 1
        if self.consecutive >= self.threshold:
            self.opened_at = self.clock()
            self.consecutive = 0

    def success(self):
        self.consecutive = 0
        self.opened_at = None


@given(
    threshold=st.integers(1, 5),
    steps=st.lists(STEP, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_never_serves_past_trip_threshold(threshold, steps):
    """After tripping, allow() must refuse until a full recovery
    window has elapsed — under any schedule."""
    clock = FakeClock()
    recovery = 1.0
    b = CircuitBreaker(
        failure_threshold=threshold, recovery_s=recovery, clock=clock
    )
    model = BreakerModel(threshold, recovery, clock)
    for step in steps:
        if step[0] == "fail":
            b.record_failure()
            model.fail()
        elif step[0] == "success":
            b.record_success()
            model.success()
        elif step[0] == "neutral":
            # Releases a probe slot, never moves the state machine:
            # the model is untouched.
            b.record_neutral()
        elif step[0] == "advance":
            clock.t += step[1] * recovery
        else:  # allow
            allowed = b.allow()
            if model.opened_at is not None and not model.cooled_down():
                assert not allowed, (
                    f"breaker served inside an open window "
                    f"(t={clock.t}, opened_at={model.opened_at})"
                )
            if model.opened_at is None:
                # Fully closed per the model: traffic must flow.  (The
                # real breaker may additionally be refusing only when
                # it is inside an open/half-open window.)
                assert allowed


@given(
    threshold=st.integers(1, 4),
    extra_calls=st.integers(1, 10),
    advance_frac=st.floats(1.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_half_open_probes_exactly_one_request(
    threshold, extra_calls, advance_frac
):
    """Once the cooldown elapses, the first allow() wins the probe
    slot and every further allow() is refused until the probe's
    outcome is recorded."""
    clock = FakeClock()
    b = CircuitBreaker(
        failure_threshold=threshold, recovery_s=1.0, clock=clock
    )
    for _ in range(threshold):
        b.record_failure()
    assert b.state is BreakerState.OPEN
    clock.t += advance_frac  # >= recovery window
    grants = sum(1 for _ in range(1 + extra_calls) if b.allow())
    assert grants == 1
    # Recording the probe's outcome resolves the state.
    b.record_success()
    assert b.state is BreakerState.CLOSED
    assert b.allow()


@given(
    threshold=st.integers(1, 4),
    neutrals=st.integers(1, 5),
    extra_calls=st.integers(1, 10),
    advance_frac=st.floats(1.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_neutral_outcomes_never_wedge_the_probe_slot(
    threshold, neutrals, extra_calls, advance_frac
):
    """A probe that ends neutrally (deadline expiry, program error)
    must release the slot: the breaker stays half-open and grants
    exactly one fresh probe — it never wedges refusing forever."""
    clock = FakeClock()
    b = CircuitBreaker(
        failure_threshold=threshold, recovery_s=1.0, clock=clock
    )
    for _ in range(threshold):
        b.record_failure()
    clock.t += advance_frac  # >= recovery window: half-open
    for _ in range(neutrals):
        assert b.allow(), "probe slot not released after a neutral"
        b.record_neutral()
        assert b.state is BreakerState.HALF_OPEN
    grants = sum(1 for _ in range(1 + extra_calls) if b.allow())
    assert grants == 1  # still exactly one probe at a time
    b.record_success()
    assert b.state is BreakerState.CLOSED


@given(
    threshold=st.integers(1, 4),
    failures=st.integers(0, 12),
)
@settings(max_examples=200, deadline=None)
def test_trip_count_matches_failure_runs(threshold, failures):
    """N uninterrupted failures trip the breaker exactly
    ``N // threshold`` times... as long as it never cools down."""
    clock = FakeClock()  # never advances: no half-open transitions
    b = CircuitBreaker(
        failure_threshold=threshold, recovery_s=1.0, clock=clock
    )
    for _ in range(failures):
        b.record_failure()
    assert b.trips == (1 if failures >= threshold else 0)
    # Consecutive failures beyond the threshold are absorbed by the
    # already-open breaker, not double-counted.


# -- the protocol, as its one caller drives it ------------------------------

_FOREVER = 1_000_000_000
_TINY = dataclasses.replace(NVIDIA_GTX780TI, memory_bytes=8)
#: outcome -> (run_resilient overrides, the error a device step that
#: was admitted ends in; None = it succeeds).
OUTCOMES = {
    "ok": ({}, None),
    "transient": (
        {"fault_plan": FaultPlan(
            seed=1, launch_failure_rate=1.0, max_consecutive=_FOREVER)},
        DeviceFault,
    ),
    "fatal": (
        {"fault_plan": FaultPlan(
            seed=2, launch_failure_rate=1.0, fatal_rate=1.0,
            max_consecutive=_FOREVER)},
        DeviceFault,
    ),
    "timeout": (
        {"fault_plan": FaultPlan(
            seed=3, timeout_rate=1.0, max_consecutive=_FOREVER)},
        KernelTimeout,
    ),
    "oom": ({"device": _TINY}, DeviceOOM),
    "deadline": ({"expired": True}, DeadlineExceeded),
    "program-error": ({"args": []}, ReproError),  # wrong arity
    # Chosen for a device, then cancelled before the worker starts it
    # (a hedge sibling won, the request was aborted): the attempt loop
    # never runs.  A coordinator that claimed the probe slot when it
    # *chose* the device leaked it here.
    "cancelled": (None, None),
}
DEVICE_CLASS = {"transient", "fatal", "timeout", "oom"}


@pytest.fixture(scope="module")
def compiled():
    return compile_source(
        r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x + 1.0f32) xs"
    )


def _drive(compiled, breaker, outcome, executor, fallback):
    """One request through the attempt loop: ``(report, None)`` when
    it was served, ``(None, error)`` when it raised."""
    overrides = dict(OUTCOMES[outcome][0])
    deadline = None
    if overrides.pop("expired", False):
        late = FakeClock()
        deadline = Deadline(1.0, clock=late)
        late.t = 2.0
    try:
        _values, _cost, report = run_resilient(
            compiled.host,
            compiled.core,
            overrides.pop("args", [array_value([1.0, 2.0, 3.0], F32)]),
            overrides.pop("device", NVIDIA_GTX780TI),
            policy=ExecutionPolicy(
                executor=executor, fallback=fallback, max_retries=1
            ),
            deadline=deadline,
            breaker=breaker,
            **overrides,
        )
    except ReproError as e:
        return None, e
    return report, None


@given(
    threshold=st.integers(1, 3),
    steps=st.lists(
        st.tuples(
            st.sampled_from(sorted(OUTCOMES)),
            st.sampled_from(["sim", "jit"]),
            st.booleans(),  # with the interpreter floor?
            st.floats(0.0, 2.0),  # clock advance, in recovery windows
        ),
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_attempt_loop_never_holds_the_probe_slot(compiled, threshold, steps):
    clock = FakeClock()
    b = CircuitBreaker(
        failure_threshold=threshold, recovery_s=1.0, clock=clock
    )
    model = BreakerModel(threshold, 1.0, clock)
    for outcome, executor, fallback, advance in steps:
        clock.t += advance
        admitted = model.opened_at is None or model.cooled_down()
        trips = b.trips
        if outcome != "cancelled":
            device_error = OUTCOMES[outcome][1]
            report, raised = _drive(compiled, b, outcome, executor, fallback)
            if outcome in ("deadline", "program-error"):
                # Never rescued by the floor, admitted or not.
                assert isinstance(raised, device_error)
            elif admitted and device_error is None:
                assert report.backend == executor and not report.abandoned
            elif fallback:
                assert report.backend == "interp" and report.fallbacks == 1
                assert (report.abandoned == f"{executor}:open") == (
                    not admitted
                )
            elif admitted:
                assert isinstance(raised, device_error)
            else:  # refused: typed, transient, the device untouched
                assert isinstance(raised, DeviceFault) and raised.transient
                assert raised.report.attempts == 0
            if admitted and outcome == "ok":
                model.success()
            elif admitted and outcome in DEVICE_CLASS:
                model.fail()
        # Only device-class outcomes the breaker admitted can trip it.
        assert b.trips == trips or (admitted and outcome in DEVICE_CLASS)
        assert (b.state is BreakerState.CLOSED) == (model.opened_at is None)
        # Whatever happened, the slot is free: half-open grants a probe.
        if b.state is BreakerState.HALF_OPEN:
            assert b.allow(), f"probe slot held after {outcome!r}"
            b.record_neutral()
