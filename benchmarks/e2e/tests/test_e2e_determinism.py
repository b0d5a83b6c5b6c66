"""Inputs and count metrics are functions of the seed alone."""

import workloads

#: Metrics that are counts (or simulated time): identical for a fixed seed.
COUNTS = (
    "gpu.launches_per_op", "gpu.sim_us_run", "gpu.mem_allocs_per_op",
    "fusion.fused_count", "backend.kernel_count", "vm.jit.transpiles",
    "pipeline.artifact_bytes", "sched.makespan_us", "sched.shards_per_op",
)


class _Few(workloads.RunSmall):
    programs = ("NN", "MRI-Q", "K-means")
    warmup_rounds = 0


def _hashes(seed):
    wl = _Few(seed)
    wl.set_up()
    orders = [[c.name for c in wl.round_order(i)] for i in range(8)]
    assert len({tuple(o) for o in orders}) > 1  # reshuffled per round
    return wl.config()["input_hashes"], orders


def test_same_seed_same_inputs_and_order():
    assert _hashes(11) == _hashes(11)


def test_other_seed_other_inputs():
    a, _ = _hashes(11)
    b, _ = _hashes(12)
    assert all(a[name] != b[name] for name in a)


def test_simulated_cost_metrics_repeat_exactly(smoke):
    a = smoke("run_small", 0, seed=0)[1]["metrics"]
    b = smoke("run_small", 0, seed=1)[1]["metrics"]
    # priced at paper scale: independent even of the seed
    for name in ("sim_us_geomean", "sim_peak_mb_geomean"):
        assert a[name]["value"] == b[name]["value"]


def test_count_metrics_repeat_exactly_for_a_fixed_seed(smoke):
    from conftest import run_cli

    first = smoke("serve_pool", 1)[1]["metrics"]
    _, again = run_cli(
        "--workload", "serve_pool", "--seed", 0, "--rounds", 1, "--trace", 1
    )
    for name in COUNTS:
        assert first[name]["value"] == again["metrics"][name]["value"], name
