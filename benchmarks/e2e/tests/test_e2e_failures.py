"""A wrong answer, or an answer from the wrong rung, is a failed
operation."""

import numpy as np
import pytest

import workloads
from repro.core.values import ArrayValue
from repro.gpu.faults import FaultPlan


class _TwoPrograms(workloads.RunSmall):
    programs = ("NN", "MRI-Q")
    warmup_rounds = 0


@pytest.fixture
def workload():
    wl = _TwoPrograms(seed=5)
    wl.set_up()
    workloads.run_oracle(wl.cases, wl.speed)
    return wl


def test_a_clean_run_has_no_failures(workload):
    phase = workload.measure(seconds=0, rounds=2)
    assert phase.attempted == 4 and phase.failures == []


def test_a_corrupted_expected_value_raises_failed_share(workload):
    case = workload.cases[0]
    first = case.expected[0]
    assert isinstance(first, ArrayValue)
    bad = first.data.copy()
    bad.flat[0] += 1
    case.expected = (ArrayValue(bad, first.elem),) + tuple(case.expected[1:])
    phase = workload.measure(seconds=0, rounds=2)
    assert len(phase.failures) == 2
    assert {name for name, _ in phase.failures} == {case.name}
    assert "reference interpreter" in phase.failures[0][1]


def test_a_forced_interpreter_fallback_raises_failed_share(workload):
    fatal = FaultPlan(seed=0, launch_failure_rate=1.0, fatal_rate=1.0)

    def operate(case):
        return case.compiled.execute(
            case.args, workloads.DEVICE, fault_plan=fatal,
            policy=workload.policy,
        )

    workload.operate = operate
    phase = workload.measure(seconds=0, rounds=1)
    # the values are still right (the interpreter computed them) ...
    values, _, report = operate(workload.cases[0])
    assert workloads.differs_from_oracle(workload.cases[0], values) is None
    assert report.fallbacks > 0
    # ... but the operation measured a different rung than it names
    assert len(phase.failures) == phase.attempted == 2
    assert "fallback" in phase.failures[0][1]


def test_an_operation_that_raises_is_a_failed_operation(workload):
    def operate(case):
        raise RuntimeError("boom")

    workload.operate = operate
    phase = workload.measure(seconds=0, rounds=1)
    assert len(phase.failures) == 2
    assert "RuntimeError: boom" in phase.failures[0][1]
    assert phase.rates() == [0.0]


def test_a_degraded_or_misrouted_serve_result_fails():
    class _Serve(workloads.ServeSeq):
        programs = ("NN",)
        warmup_rounds = 0

    wl = _Serve(seed=5)
    wl.set_up()
    try:
        workloads.run_oracle(wl.cases, wl.speed)
        case = wl.cases[0]
        good = wl.operate(case)
        assert wl.verify(case, good) is None
        wl.executor = "vector"  # asked for jit above, so this is the wrong rung
        assert "served on 'jit'" in wl.verify(case, good)
        wl.executor = "jit"
        good.degraded_from = ["jit"]
        assert "degraded" in wl.verify(case, good)
    finally:
        wl.tear_down()
