"""Saturation behaviour: overload must shed, not collapse.

At 4x the admission-queue capacity the server must (a) shed the excess
with typed errors, (b) keep the latency of *accepted* requests close
to the unloaded baseline (the whole point of bounding the queue), and
(c) shut down cleanly with no stuck worker threads.
"""

import threading
import time

import numpy as np

from repro.bench.suite import BENCHMARKS
from repro.errors import ServiceOverloaded
from repro.serve import Server, ServeRequest

NAME = "NN"
CAPACITY = 4
OVERLOAD = 4 * CAPACITY


def _request(seed):
    spec = BENCHMARKS[NAME]
    rng = np.random.default_rng(seed)
    return ServeRequest(spec.program(), spec.small_args(rng))


def _p50(server, lane_stats):
    for lane in ("interactive", "batch"):
        if lane_stats[lane]["count"]:
            return lane_stats[lane]["p50_ms"]
    raise AssertionError("no latency samples recorded")


class TestSaturation:
    def test_overload_sheds_but_does_not_collapse(self):
        prog = BENCHMARKS[NAME].program()

        # Baseline: sequential, unloaded requests.
        with Server(queue_capacity=CAPACITY) as server:
            server.load(prog)
            for i in range(6):
                r = server.call(_request(i), timeout=120)
                assert r.ok, r.error
            unloaded_p50 = _p50(server, server.health()["lanes"])

        # Overload: 4x capacity offered before any worker runs.
        # submit() needs only the queue, so what is shed is exactly
        # the excess over its capacity, however fast workers drain it
        # (a burst raced against running workers shed 0-7 of 12).
        threads_before = threading.active_count()
        server = Server(queue_capacity=CAPACITY)
        server.load(prog)
        handles = [
            server.submit(_request(100 + cid)) for cid in range(OVERLOAD)
        ]
        with server:
            results = [h.result(timeout=120) for h in handles]
            health = server.health()

        accepted = [r for r in results if r.ok]
        shed = [r for r in results if r.status == "shed"]
        assert len(results) == OVERLOAD
        # Load shedding happened: the queue bound was enforced...
        assert len(shed) == OVERLOAD - CAPACITY, (len(shed), len(accepted))
        for r in shed:
            assert isinstance(r.error, ServiceOverloaded)
        # ...and it protected the accepted requests: their median
        # latency stays within 2x the unloaded median (plus a fixed
        # scheduling allowance so the bound is robust on slow CI).
        assert accepted, "overload accepted nothing"
        loaded_p50 = _p50(server, health["lanes"])
        assert loaded_p50 <= 2.0 * unloaded_p50 + 250.0, (
            f"accepted p50 {loaded_p50:.1f}ms vs "
            f"unloaded p50 {unloaded_p50:.1f}ms: saturation collapsed "
            f"latency instead of shedding load"
        )
        # Clean exit: stop() joined every worker.
        assert health["queue_depth"] == 0
        deadline = time.monotonic() + 10
        while (
            threading.active_count() > threads_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before, (
            "worker threads leaked past stop()"
        )

    def test_accepted_plus_shed_accounts_for_everything(self):
        prog = BENCHMARKS[NAME].program()
        with Server(queue_capacity=CAPACITY) as server:
            server.load(prog)
            handles = [
                server.submit(_request(200 + i)) for i in range(OVERLOAD)
            ]
            results = [h.result(timeout=120) for h in handles]
            health = server.health()
        assert len(results) == OVERLOAD
        assert all(r.status in ("ok", "shed") for r in results)
        assert health["admitted"] + health["shed"] == OVERLOAD
        assert health["completed"] == sum(1 for r in results if r.ok)
