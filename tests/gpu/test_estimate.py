"""Tests of the analytic estimator over host programs: loop trip
resolution, host-scalar propagation, branch handling, and the
LOOP_TRIP_DEFAULT fallback."""

import functools

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.types import Array
from repro.core.values import ScalarValue
from repro.gpu.costmodel import LOOP_TRIP_DEFAULT, size_env_from_args
from repro.pipeline import compile_program, compile_source
from repro.runtime import DEFAULT_EXECUTOR, EXECUTORS, ExecutionPolicy


class TestLoopTrips:
    SRC = """
    fun main (xs: [n]f32) (k: i32): [n]f32 =
      loop (ys = xs) for i < k do
        map (\\(y: f32) -> y * 2.0f32) ys
    """

    def test_resolved_trip_count_scales(self):
        compiled = compile_source(self.SRC)
        t10 = compiled.estimate({"n": 1_000_000, "k": 10}).total_us
        t100 = compiled.estimate({"n": 1_000_000, "k": 100}).total_us
        assert t100 == pytest.approx(t10 * 10, rel=0.05)

    def test_unresolved_trip_uses_default(self):
        compiled = compile_source(self.SRC)
        default = compiled.estimate({"n": 1_000_000}).total_us
        explicit = compiled.estimate(
            {"n": 1_000_000, "k": LOOP_TRIP_DEFAULT}
        ).total_us
        assert default == pytest.approx(explicit, rel=0.01)


class TestScalarPropagation:
    def test_derived_size_is_priced(self):
        # The reduce runs over a reshaped array of size r*c, computed
        # by a host scalar: the estimator must resolve it.
        src = """
        fun main (m: [r][c]f32): f32 =
          let rc = r * c
          let flat = reshape (rc) m
          in reduce (\\(a: f32) (b: f32) -> a + b) 0.0f32 flat
        """
        compiled = compile_source(src)
        small = compiled.estimate({"r": 100, "c": 100})
        large = compiled.estimate({"r": 4000, "c": 4000})
        mem = lambda rep: sum(k.mem_us for k in rep.kernel_costs)
        # 1600x the elements: memory time must scale accordingly
        # (total time at the small size is launch-dominated).
        assert mem(large) > mem(small) * 100


class TestBranches:
    def test_if_estimates_then_branch(self):
        src = """
        fun main (xs: [n]f32) (c: i32): f32 =
          if c > 0
          then reduce (\\(a: f32) (b: f32) -> a + b) 0.0f32 xs
          else 0.0f32
        """
        compiled = compile_source(src)
        est = compiled.estimate({"n": 10_000_000})
        # The reduce kernel inside the branch is priced.
        assert any(k.kind == "reduce" for k in est.kernel_costs)


class TestManifestCosting:
    def test_manifest_is_device_relative(self):
        from repro.gpu.device import AMD_W8100, NVIDIA_GTX780TI

        src = """
        fun main (m: [a][b]f32): [a]f32 =
          map (\\(row: [b]f32) ->
            loop (acc = 0.0f32) for j < b do acc + row[j]) m
        """
        compiled = compile_source(src)
        sizes = {"a": 4096, "b": 4096}
        nv = compiled.estimate(sizes, NVIDIA_GTX780TI)
        amd = compiled.estimate(sizes, AMD_W8100)
        assert nv.manifest_us > 0
        # Transpositions are relatively slower on the AMD profile.
        assert (
            amd.manifest_us / amd.total_us
            > nv.manifest_us / nv.total_us
        )


class TestPriceMemoEviction:
    """The per-program price memo is bounded at 64 entries and evicts
    the oldest one: clearing the memo at the bound would make a server
    that sees varied batch sizes re-walk every program every few
    requests."""

    SRC = "fun main (xs: [n]f32): [n]f32 = map (\\(x: f32) -> x + 1.0f32) xs"

    @pytest.mark.parametrize(
        "memoised, cache", [("request_price_us", "price_cache")]
    )
    def test_the_65th_insert_evicts_only_the_oldest(self, memoised, cache):
        from repro.gpu import costmodel
        from repro.gpu.device import NVIDIA_GTX780TI

        host = compile_source(self.SRC).host
        price = getattr(costmodel, memoised)
        memo = getattr(host, cache)
        for n in range(1, 66):
            price(host, {"n": n}, NVIDIA_GTX780TI)
        assert len(memo) == 64
        sizes = [dict(key[2])["n"] for key in memo]
        assert sizes == list(range(2, 66))  # entry 1 is gone
        before = list(memo.items())
        for n in range(2, 66):
            price(host, {"n": n}, NVIDIA_GTX780TI)
        # ...and entries 2-65 all hit: nothing was re-priced or moved.
        assert all(
            k1 == k2 and v1 is v2
            for (k1, v1), (k2, v2) in zip(before, memo.items())
        )


@functools.lru_cache(maxsize=None)
def _small_run(name, executor):
    """``(compiled, args, executed CostReport)`` of one benchmark at
    validation sizes, every launch on ``executor``."""
    spec = BENCHMARKS[name]
    compiled = compile_program(spec.program())
    args = spec.small_args(np.random.default_rng(0))
    _, ran, report = compiled.execute(
        args, policy=ExecutionPolicy(executor=executor)
    )
    assert not report.fallbacks
    return compiled, args, ran


def _by_kernel(report):
    """``kernel name -> [time_us, launches, bytes_effective]``, summed
    over the report's rows (a run has one per launch, an estimate one
    per statement scaled by its trip count)."""
    out = {}
    for k in report.kernel_costs:
        row = out.setdefault(k.name, [0.0, 0.0, 0.0])
        row[0] += k.time_us
        row[1] += k.launches
        row[2] += k.bytes_effective
    return out


def assert_agree(ran, estimated):
    close = lambda x: pytest.approx(x, rel=1e-9, abs=0.0)
    for field in (
        "manifest_us", "host_us", "copy_us", "total_us", "mem_peak_bytes",
    ):
        assert getattr(estimated, field) == close(getattr(ran, field)), field
    ran_kernels, estimated_kernels = _by_kernel(ran), _by_kernel(estimated)
    assert estimated_kernels.keys() == ran_kernels.keys()
    for name, row in ran_kernels.items():
        assert estimated_kernels[name] == close(row), name


# The default executor keeps the id this test had when it ran on that
# executor alone.
@pytest.mark.parametrize(
    "name, executor",
    [
        pytest.param(
            name, executor,
            id=name if executor == DEFAULT_EXECUTOR else f"{name}-{executor}",
        )
        for name in BENCHMARKS.names()
        for executor in EXECUTORS
    ],
)
def test_a_run_and_its_estimate_agree_on_the_non_kernel_prices(
    name, executor
):
    """The model admission (``request_price_us``) and placement
    (``Placer.plan``) price with is the model a run is charged by.
    Kernels, manifestations, host statements and double-buffer copies
    are each priced by one function (``costmodel.kernel_cost``,
    ``manifest_price``, ``host_stmt_us``, ``loop_copy_us``) that the
    engine charges per statement executed and the estimator per
    statement times trip count, and both replay the same alloc/free
    schedule through a ``DeviceHeap``.  So at sizes where every trip
    count resolves the two walks differ by float association alone —
    on every executor, and on the kernel prices too (the test's name
    predates that)."""
    compiled, args, ran = _small_run(name, executor)
    assert_agree(
        ran, compiled.estimate(size_env_from_args(compiled.host, args))
    )


def test_an_estimate_without_the_array_dimensions_disagrees_with_the_run():
    """The equality above is not vacuous: with the size environment it
    replaced (integral scalar parameters only, so every array dimension
    prices as 1) the comparison fails on each benchmark whose entry
    point has an array-dimension size."""
    have_dimensions, still_agree = [], []
    for name in BENCHMARKS.names():
        compiled, args, ran = _small_run(name, DEFAULT_EXECUTOR)
        if not any(
            isinstance(dim, str)
            for p in compiled.host.params
            if isinstance(p.type, Array)
            for dim in p.type.shape
        ):
            continue
        have_dimensions.append(name)
        scalars_only = {
            p.name: int(v.value)
            for p, v in zip(compiled.host.params, args)
            if isinstance(v, ScalarValue) and v.type.is_integral
        }
        try:
            assert_agree(ran, compiled.estimate(scalars_only))
        except AssertionError:
            continue
        still_agree.append(name)
    assert len(have_dimensions) >= 14, have_dimensions
    assert still_agree == []
