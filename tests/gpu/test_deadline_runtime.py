"""Deadline propagation through the resilient executor and simulator.

The serving layer's deadlines only work if every lower layer honours
them: the executor must stop retrying (and skip the interpreter
fallback), clamp its backoff to the remaining budget, and the
simulator must refuse kernel launches past expiry.
"""

import pytest

from repro.core import array_value
from repro.core.prim import F32
from repro.errors import DeadlineExceeded
from repro.gpu.device import NVIDIA_GTX780TI
from repro.gpu.faults import FaultPlan
from repro.pipeline import compile_source
from repro.runtime import (
    BACKOFF_FACTOR,
    BACKOFF_JITTER,
    BASE_BACKOFF_US,
    EXECUTORS,
    ExecutionPolicy,
    run_resilient,
)
from repro.serve import Deadline

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(x: f32) -> x * 2.0f32 + 1.0f32) xs
"""


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture(scope="module")
def compiled():
    return compile_source(SRC)


def _run(compiled, **kw):
    return run_resilient(
        compiled.host,
        compiled.core,
        [array_value([1.0, 2.0, 3.0, 4.0], F32)],
        NVIDIA_GTX780TI,
        **kw,
    )


class TestExpiredDeadline:
    def test_raises_typed_error_with_report(self, compiled):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)  # expired before the first attempt
        with pytest.raises(DeadlineExceeded) as exc:
            _run(compiled, deadline=deadline)
        report = exc.value.report
        assert report.deadline_exceeded
        assert report.gave_up_reason == "deadline exceeded"
        assert report.attempts == 0  # never touched the device

    def test_no_interpreter_fallback_past_deadline(self, compiled):
        # fallback=True would normally rescue any failure; a missed
        # deadline must NOT be rescued (the answer would be late).
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            _run(
                compiled,
                deadline=deadline,
                policy=ExecutionPolicy(fallback=True),
            )

    def test_simulator_checks_before_launch(self, compiled):
        # Expire between admission and the first kernel launch: the
        # engine-level check must trip (where names the kernel).
        class ExpireOnSecondRead:
            def __init__(self):
                self.reads = 0

            def __call__(self):
                self.reads += 1
                return 0.0 if self.reads <= 1 else 100.0

        deadline = Deadline(1.0, clock=ExpireOnSecondRead())
        with pytest.raises(DeadlineExceeded) as exc:
            _run(compiled, deadline=deadline)
        assert exc.value.report.deadline_exceeded


class ExpireAfterReads:
    """Returns 0.0 for the first ``n`` reads, then jumps past any
    budget — sliding the expiry point through the executor's clock
    checks one read at a time."""

    def __init__(self, n):
        self.n = n
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return 0.0 if self.reads <= self.n else 100.0


class TestExpiryDuringRetries:
    ALWAYS_FAIL = FaultPlan(
        seed=5, launch_failure_rate=1.0, max_consecutive=1_000_000_000
    )

    @pytest.mark.parametrize("reads", range(1, 12))
    def test_expiry_anywhere_never_falls_back(self, compiled, reads):
        # Regression: a deadline expiring *between* a failed attempt
        # and the backoff computation used to take the plain
        # 'retry budget exhausted' branch and then run the interpreter
        # fallback past the expired deadline.  Wherever the expiry
        # lands — before an attempt, mid-run, or in the backoff
        # window — the contract is one typed DeadlineExceeded and no
        # fallback.
        deadline = Deadline(1.0, clock=ExpireAfterReads(reads))
        with pytest.raises(DeadlineExceeded) as exc:
            _run(
                compiled,
                fault_plan=self.ALWAYS_FAIL,
                deadline=deadline,
                policy=ExecutionPolicy(fallback=True, max_retries=4),
            )
        report = exc.value.report
        assert report.deadline_exceeded
        assert report.gave_up_reason == "deadline exceeded"
        assert report.fallbacks == 0


class TestGenerousDeadline:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_run_completes_within_budget(self, compiled, executor):
        values, _cost, report = _run(
            compiled,
            deadline=Deadline(60.0),
            policy=ExecutionPolicy(executor=executor),
        )
        assert not report.deadline_exceeded
        assert report.gave_up_reason is None
        assert list(values[0].data) == [3.0, 5.0, 7.0, 9.0]


class TestRetryBudget:
    FLAKY = FaultPlan(seed=5, launch_failure_rate=1.0, max_consecutive=2)

    def test_unlimited_budget_retries_through(self, compiled):
        # max_consecutive=2 means the transient clears: with free
        # retries the device eventually succeeds, no fallback.
        _values, _cost, report = _run(
            compiled,
            fault_plan=self.FLAKY,
            policy=ExecutionPolicy(fallback=False, max_retries=8),
        )
        assert report.fallbacks == 0
        assert report.retries >= 1

    def test_without_a_deadline_each_backoff_is_the_schedules(
        self, compiled
    ):
        # Nothing but a deadline caps the backoff: two failures wait
        # the first two steps of the jittered schedule.
        _values, _cost, report = _run(
            compiled,
            fault_plan=self.FLAKY,
            policy=ExecutionPolicy(fallback=False, max_retries=8),
        )
        assert report.retries == 2 and report.gave_up_reason is None
        steps = [BASE_BACKOFF_US * BACKOFF_FACTOR**a for a in range(2)]
        assert (
            sum(steps) * (1.0 - BACKOFF_JITTER)
            <= report.backoff_us
            <= sum(steps) * (1.0 + BACKOFF_JITTER)
        )

    def test_a_live_deadline_caps_each_backoff_at_its_remaining_time(
        self, compiled
    ):
        # 2**-15 s (30.517578125 us, exact in binary) is left and the
        # clock stands still: each of the two backoffs, at least
        # 37.5 us on the schedule, waits exactly what is left, and the
        # run still succeeds on the device.
        deadline = Deadline(2.0**-15, clock=FakeClock())
        values, _cost, report = _run(
            compiled,
            fault_plan=self.FLAKY,
            deadline=deadline,
            policy=ExecutionPolicy(fallback=True, max_retries=8),
        )
        assert report.retries == 2 and report.fallbacks == 0
        assert report.backoff_us == 2 * 30.517578125
        assert not report.deadline_exceeded
        assert list(values[0].data) == [3.0, 5.0, 7.0, 9.0]

    def test_deadline_clamps_backoff(self, compiled):
        # A deadline that expires right after the first failure: the
        # executor must stop (deadline branch), not burn more retries.
        class ClockAfterFirstFault:
            """Expires once ~any backoff would be computed."""

            def __init__(self):
                self.t = 0.0

            def __call__(self):
                self.t += 0.6  # each read advances well past budget
                return self.t

        deadline = Deadline(1.0, clock=ClockAfterFirstFault())
        with pytest.raises(DeadlineExceeded) as exc:
            _run(
                compiled,
                fault_plan=self.FLAKY,
                deadline=deadline,
                policy=ExecutionPolicy(fallback=True, max_retries=8),
            )
        report = exc.value.report
        assert report.deadline_exceeded
