"""The service chaos suite (acceptance harness for the serving layer).

32 concurrent clients hammer the server across the full benchmark
suite under seeded per-device fault injection.  The contract:

- every *accepted* request completes with values identical to the
  reference interpreter (within the suite's standard float tolerance);
- every *rejected* request carries a typed error
  (:class:`ServiceOverloaded` or :class:`DeadlineExceeded`) — nothing
  is silently dropped and no untyped exception escapes;
- with the device at a 100% fault rate the breaker trips and requests
  are served by the interpreter floor with zero outright failures.

The headline run's fault seeds come from ``CHAOS_SEEDS`` (default
``1234``; CI's ``chaos`` job runs three more).
"""

import os
import threading

import numpy as np
import pytest

from repro.core.values import values_equal
from repro.bench.suite import BENCHMARKS
from repro.errors import DeadlineExceeded, ServiceOverloaded
from repro.gpu.faults import broken_device, chaos_plans
from repro.interp import run_program
from repro.serve import Server, ServeRequest
from tests.helpers import tune

CLIENTS = 32
ALL_NAMES = list(BENCHMARKS.names())
SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "1234").split(",")
]


def _expected(name, seed):
    spec = BENCHMARKS[name]
    rng = np.random.default_rng(seed)
    args = spec.small_args(rng)
    return args, run_program(spec.program(), args, in_place=True)


class TestServiceChaos:
    def test_32_clients_under_chaos_all_benchmarks(self):
        """The headline run: every accepted request is correct, every
        rejected one is typed, under per-device injected faults — one
        server per seed in ``CHAOS_SEEDS`` (default: 1234 alone)."""
        for seed in SEEDS:
            self._32_clients_under_chaos(seed)

    def _32_clients_under_chaos(self, seed):
        # Precompute per-(client) benchmark, args and expected values;
        # one benchmark per client, covering all 16 twice over.
        cases = []
        for cid in range(CLIENTS):
            name = ALL_NAMES[cid % len(ALL_NAMES)]
            args, expected = _expected(name, seed=cid)
            cases.append((name, args, expected))

        results = [None] * CLIENTS
        with tune(
            Server(queue_capacity=CLIENTS, fault_plans=chaos_plans(seed, 1)),
            retries=1,
        ) as server:
            for name in ALL_NAMES:
                server.load(BENCHMARKS[name].program())
            barrier = threading.Barrier(CLIENTS)

            def client(cid):
                name, args, _ = cases[cid]
                barrier.wait()
                handle = server.submit(
                    ServeRequest(
                        BENCHMARKS[name].program(),
                        args,
                        request_id=f"chaos-c{cid}-{name}",
                    )
                )
                results[cid] = handle.result(timeout=300)

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads)
            health = server.health()

        for cid, r in enumerate(results):
            name, _, expected = cases[cid]
            assert r is not None, f"client {cid} got no result"
            if r.status == "ok":
                assert len(r.values) == len(expected)
                for got, want in zip(r.values, expected):
                    assert values_equal(
                        got, want, rtol=1e-4, atol=1e-4
                    ), f"seed {seed}, {name}: served values diverge"
            else:
                # Under chaos with no deadline and an interp floor,
                # nothing should outright fail; tolerate only typed
                # rejections, never untyped errors.
                assert isinstance(
                    r.error, (ServiceOverloaded, DeadlineExceeded)
                ), f"seed {seed}, {name}: untyped failure {r.error!r}"
        ok = sum(1 for r in results if r.status == "ok")
        assert ok == CLIENTS  # capacity == CLIENTS: nothing shed
        assert health["completed"] == CLIENTS

    def test_breaker_routes_around_dead_backend_zero_failures(self):
        """With the device 100% faulty, the breaker trips and
        every request is still served, by the interpreter floor."""
        names = ALL_NAMES[:6]
        cases = [(n,) + _expected(n, seed=i) for i, n in enumerate(names)]
        with tune(
            Server(queue_capacity=32, fault_plans=[broken_device(seed=7)]),
            retries=1,
            # Stays open for the whole test.
            breaker=dict(failure_threshold=2, recovery_s=300.0),
        ) as server:
            for n in names:
                server.load(BENCHMARKS[n].program())
            handles = [
                server.submit(
                    ServeRequest(BENCHMARKS[n].program(), args)
                )
                for n, args, _ in cases
            ]
            results = [h.result(timeout=300) for h in handles]
            health = server.health()

        for (name, _, expected), r in zip(cases, results):
            assert r.ok, f"{name}: {r.error}"
            assert r.backend == "interp"
            for got, want in zip(r.values, expected):
                assert values_equal(got, want, rtol=1e-4, atol=1e-4)
        # The breaker guards the server's one device.
        assert health["breakers"]["dev0"]["state"] == "open"
        assert health["breakers"]["dev0"]["trips"] >= 1
        assert health["errors"] == 0

    def test_rejections_are_typed(self):
        """Shed and expired requests surface the right error class."""
        name = "NN"
        args, _ = _expected(name, seed=0)
        prog = BENCHMARKS[name].program()
        # Shed: an unstarted server, so nothing drains a tiny queue.
        server = Server(queue_capacity=1)
        try:
            server.load(prog)
            handles = [
                server.submit(ServeRequest(prog, args)) for _ in range(3)
            ]
            sheds = [h.result(timeout=10) for h in handles[1:]]
            for r in sheds:
                assert r.status == "shed"
                assert isinstance(r.error, ServiceOverloaded)
        finally:
            server.stop()
        # Deadline: a budget no benchmark can meet.
        with Server(queue_capacity=4) as server:
            server.load(prog)
            r = server.call(
                ServeRequest(prog, args, deadline_ms=0.0), timeout=60
            )
            assert r.status == "deadline"
            assert isinstance(r.error, DeadlineExceeded)
