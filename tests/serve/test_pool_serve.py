"""Server-level integration of the device pool: pooled requests, health
surface, flight-record placement, and chaos routing."""

import numpy as np

from repro.bench.suite import BENCHMARKS
from repro.core.values import values_equal
from repro.gpu.device import AMD_W8100, NVIDIA_GTX780TI, SIM_SMALL
from repro.gpu.faults import FaultPlan, broken_device
from repro.interp import run_program
from repro.obs.export import validate_flight_bundle
from repro.obs.flight import FlightRecorder
from repro.sched import ShardPlanner
from repro.serve.breaker import BreakerState
from repro.serve.server import Server, ServeRequest
from tests.helpers import split_friendly, tune

BROKEN = FaultPlan(seed=0, launch_failure_rate=1.0, max_consecutive=10**9)


def _backprop(h=512):
    spec = BENCHMARKS["Backprop"]
    prog = spec.program()
    args = spec.args_at(np.random.default_rng(9), {"n": 16, "h": h})
    return prog, args


def test_pooled_server_shards_and_reports_placement():
    prog, args = _backprop()
    expected = run_program(prog, args)
    with tune(
        Server(
            devices=[
                split_friendly(p)
                for p in (NVIDIA_GTX780TI, AMD_W8100, SIM_SMALL)
            ],
        ),
        planner=ShardPlanner(16),
    ) as server:
        result = server.call(
            ServeRequest(prog, args), timeout=60
        ).raise_for_status()
        health = server.health()
    assert result.ok and result.backend == "jit"
    assert result.placement is not None
    assert result.placement["mode"] == "sharded"
    assert len(result.placement["shards"]) > 1
    assert all(
        values_equal(e, g) for e, g in zip(expected, result.values)
    )
    pool = health["pool"]
    assert pool["requests"] == 1 and pool["sharded"] == 1
    assert len(pool["devices"]) == 3
    for d in pool["devices"]:
        assert "transitions" in d["breaker"]
        assert "heap_lifetime" in d
    # One registry: the server reports the pool's own breakers.
    assert health["breakers"] == {
        f"dev{d['id']}": d["breaker"] for d in pool["devices"]
    }


def test_one_device_server_places_the_request_whole_on_dev0():
    prog, args = _backprop(h=64)
    with Server() as server:
        result = server.call(
            ServeRequest(prog, args), timeout=60
        ).raise_for_status()
        health = server.health()
    placement = result.placement
    assert placement["mode"] == "whole"
    assert [c["device"] for c in placement["candidates"]] == [0]
    assert placement["decision"]["considered"] == [
        placement["decision"]["chosen"]
    ]
    assert placement["decision"]["chosen"]["devices"] == [0]
    (shard,) = placement["shards"]
    assert shard["device"] == 0 and shard["replacements"] == 0
    assert placement["makespan_us"] == shard["sim_us"] > 0
    pool = health["pool"]
    assert [d["profile"] for d in pool["devices"]] == [NVIDIA_GTX780TI.name]
    assert pool["requests"] == pool["whole"] == pool["shards_executed"] == 1
    assert health["breakers"] == {"dev0": pool["devices"][0]["breaker"]}


def test_flight_record_carries_placement(tmp_path):
    prog, args = _backprop()
    recorder = FlightRecorder(dump_dir=str(tmp_path))
    with tune(
        Server(
            devices=[split_friendly(NVIDIA_GTX780TI)] * 2,
            flight_recorder=recorder,
        ),
        planner=ShardPlanner(16),
    ) as server:
        result = server.call(
            ServeRequest(prog, args), timeout=60
        ).raise_for_status()
    (record,) = recorder.records()
    assert record.result is result
    assert record.result.placement["mode"] == "sharded"
    bundle = recorder.bundle(record)
    assert bundle["placement"]["mode"] == "sharded"
    assert validate_flight_bundle(bundle) == []
    # The decision is inspectable, and the same from all three views:
    # everything weighed (whole on each device, then the 2-way split),
    # each with its price, and the one chosen.
    decision = result.placement["decision"]
    assert record.result.placement["decision"] == decision
    assert bundle["placement"]["decision"] == decision
    assert [c["k"] for c in decision["considered"]] == [1, 1, 2]
    for c in decision["considered"]:
        assert set(c) == {
            "k", "devices", "makespan_us", "split_cost_us", "completion_us"
        }
        assert c["completion_us"] == c["makespan_us"] + c["split_cost_us"]
        assert c["completion_us"] >= decision["chosen"]["completion_us"]
    assert decision["chosen"] == decision["considered"][2]
    assert decision["chosen"]["devices"] == [
        s["device"] for s in result.placement["shards"]
    ]
    # Per-device shard spans landed on the device's own track.
    tracks = {
        s.track for s in record.tracer.spans if s.name.startswith("shard#")
    }
    assert tracks and all(t.startswith("gpu.dev") for t in tracks)


def test_a_re_placed_request_reports_the_attempts_on_every_device():
    """Regression: a request re-placed after its stint on a broken
    device reported only the winning device's run (attempts=1,
    retries=0, no faults, not degraded).  Its one report counts the
    three failed attempts on dev0 and the one on dev1."""
    spec = BENCHMARKS["Backprop"]
    prog, args = spec.program(), spec.small_args(np.random.default_rng(0))
    with Server(
        devices=[NVIDIA_GTX780TI] * 2, fault_plans=[broken_device(0), None]
    ) as server:
        assert server.pool.retries == 2
        result = server.call(ServeRequest(prog, args), timeout=60)
        dev0 = server.pool.devices[0]
    assert result.ok and result.placement["replacements"] == 1
    assert [s["device"] for s in result.placement["shards"]] == [1]
    report = result.run_report
    assert (report.attempts, report.retries, report.transient_faults) == (
        4, 2, 3
    )
    assert report.degraded and report.fallbacks == 0
    assert (dev0.failures, dev0.executed) == (1, 0)


def test_pooled_server_survives_broken_device_chaos():
    prog, args = _backprop()
    expected = run_program(prog, args)
    with tune(
        Server(
            devices=[split_friendly(NVIDIA_GTX780TI)] * 4,
            fault_plans=[BROKEN, None, None, None],
        ),
        planner=ShardPlanner(16),
        breaker=dict(failure_threshold=2, recovery_s=600.0),
    ) as server:
        handles = [
            server.submit(ServeRequest(prog, args, request_id=f"chaos-{i}"))
            for i in range(6)
        ]
        results = [h.result(timeout=120) for h in handles]
        health = server.health()
    for r in results:
        assert r.ok, f"{r.request_id}: {r.error}"
        # The pool healed internally: nothing degraded to the floor.
        assert r.backend == "jit"
        assert not r.degraded_from
        assert all(
            values_equal(e, g) for e, g in zip(expected, r.values)
        )
    pool = health["pool"]
    dev0 = pool["devices"][0]
    assert dev0["failures"] >= 2 and dev0["executed"] == 0
    assert dev0["breaker"]["state"] == BreakerState.OPEN.value
    assert pool["replacements"] >= 2
