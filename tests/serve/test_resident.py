"""Resident programs: ``Server.load`` returns a handle, and a program
the server already holds is not fingerprinted, compiled or analysed
again.

A ``ServeRequest`` names a :class:`ProgramHandle` or a program object;
an object resolves through the server's identity memo, which holds
each program weakly and never outlives it.  A request binds its sizes
once, at admission, and the pool places with them.
"""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.core.prim import F32
from repro.core.values import array_value, values_equal
from repro.errors import ArgumentError, exit_code_for
from repro.frontend.parser import parse
from repro.gpu import costmodel
from repro.pipeline import compile_program
from repro.runtime import EXECUTORS, ExecutionPolicy
from repro.sched import pool as pool_mod
from repro.serve import BreakerState, ProgramHandle, Server, ServeRequest
from repro.serve import server as server_mod

MAP_SRC = r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x + 1.0f32) xs"
NAMES = list(BENCHMARKS.names())


def xs(*vals):
    return [array_value(list(vals), F32)]


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` in a spy; returns the list of its calls."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestIdentityMemo:
    def test_one_program_object_is_fingerprinted_once(self, monkeypatch):
        keys = _counting(monkeypatch, server_mod, "compile_cache_key")
        analyses = _counting(monkeypatch, server_mod, "analyze_shardable")
        prog = parse(MAP_SRC)
        with Server(queue_capacity=8) as s:
            for i in range(6):
                r = s.call(ServeRequest(prog, xs(float(i))), timeout=30)
                assert r.ok, r.error
            stats = s.cache.stats.snapshot()
            assert s.load(prog) is s.load(prog)
        assert len(keys) == 1
        assert len(analyses) == 1
        # Every request after the first found its program resident,
        # and that counts as a compile-cache hit.
        assert stats["misses"] == 1
        assert stats["hits"] == 5

    def test_an_equal_but_distinct_object_is_fingerprinted_again(
        self, monkeypatch
    ):
        keys = _counting(monkeypatch, server_mod, "compile_cache_key")
        first, second = parse(MAP_SRC), parse(MAP_SRC)
        assert first == second and first is not second
        with Server(queue_capacity=8) as s:
            a = s.load(first)
            r = s.call(ServeRequest(second, xs(1.0)), timeout=30)
            assert r.ok, r.error
            b = s.load(second)
            assert len(s._resident) == 2
            stats = s.cache.stats.snapshot()
        assert len(keys) == 2
        assert stats["misses"] == 1
        assert a is not b
        assert a.key == b.key and a.compiled is b.compiled

    def test_a_collected_program_leaves_the_memo(self):
        prog = parse(MAP_SRC)
        with Server(queue_capacity=8) as s:
            for i in range(3):
                r = s.call(ServeRequest(prog, xs(float(i))), timeout=30)
                assert r.ok, r.error
            assert len(s._resident) == 1
        del prog
        gc.collect()
        assert len(s._resident) == 0

    def test_an_idle_worker_holds_no_finished_request(self):
        """A worker waiting for its next request does not keep the
        last one's program alive (nor, with it, its memo entry)."""
        prog = parse(MAP_SRC)
        with Server(queue_capacity=8) as s:
            r = s.call(ServeRequest(prog, xs(1.0)), timeout=30)
            assert r.ok, r.error
            del prog
            # The result is delivered just before the worker lets go.
            deadline = time.monotonic() + 10.0
            while len(s._resident) and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.01)
            assert len(s._resident) == 0

    def test_a_handle_outlives_its_program_object(self):
        prog = parse(MAP_SRC)
        with Server(queue_capacity=8) as s:
            handle = s.load(prog)
            del prog
            gc.collect()
            assert len(s._resident) == 0
            r = s.call(ServeRequest(handle, xs(2.0)), timeout=30)
        assert r.ok, r.error
        assert values_equal(r.values[0], xs(3.0)[0])

    def test_concurrent_first_submits_compile_once(self, monkeypatch):
        compiles = _counting(monkeypatch, server_mod, "compile_program")
        prog = parse(MAP_SRC)
        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n
        with Server(queue_capacity=16) as s:

            def client(i):
                barrier.wait()
                results[i] = s.submit(
                    ServeRequest(prog, xs(float(i)))
                ).result(timeout=60)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            resident = len(s._resident)
            stats = s.cache.stats.snapshot()
        assert all(r.ok for r in results), [r.error for r in results]
        assert len(compiles) == 1
        assert stats["misses"] == 1
        assert resident == 1

    def test_concurrent_loads_share_one_handle_and_count_every_hit(self):
        """Stress: more threads than cores, a short switch interval.
        Every thread gets the one handle stored first, and no memo hit
        is lost from the compile-cache stats."""
        prog = parse(MAP_SRC)
        n, rounds = 8, 50
        barrier = threading.Barrier(n)
        handles = [[] for _ in range(n)]
        s = Server(queue_capacity=8)  # loads only: never started

        def client(i):
            barrier.wait()
            for _ in range(rounds):
                handles[i].append(s.load(prog))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            s.stop()
        assert not any(t.is_alive() for t in threads)
        first = handles[0][0]
        assert all(h is first for hs in handles for h in hs)
        assert len(s._resident) == 1
        stats = s.cache.stats.snapshot()
        assert stats["misses"] == 1
        # Each load is a hit except the leader's miss: a lookup for
        # those that fingerprinted, a memo hit for the rest.
        assert stats["hits"] + stats["waits"] == n * rounds - 1

    def test_a_failing_program_is_not_memoised(self):
        empty = A.Prog(funs=())  # no main: the compile raises
        with Server(queue_capacity=8) as s:
            first = s.call(ServeRequest(empty, []), timeout=30)
            second = s.call(ServeRequest(empty, []), timeout=30)
            resident = len(s._resident)
            stats = s.cache.stats.snapshot()
        assert first.status == second.status == "error"
        assert resident == 0
        # The second request was fingerprinted again and served the
        # negatively cached failure: a clone chained to the first.
        assert stats["misses"] == 1
        assert stats["negative_hits"] == 1
        assert second.error is not first.error
        assert second.error.__cause__ is first.error


class TestHandles:
    def test_a_handle_from_another_server_is_an_argument_error(self):
        prog = parse(MAP_SRC)
        with Server(queue_capacity=8) as other:
            foreign = other.load(prog)
        with Server(queue_capacity=8) as s:
            r = s.call(ServeRequest(foreign, xs(1.0)), timeout=30)
            breaker = s.pool.devices[0].breaker
            health = s.health()
        self._refused(r, "another server", breaker, health)

    def test_a_handle_for_another_entry_is_an_argument_error(self):
        prog = parse(
            MAP_SRC + "\nfun twice (xs: [n]f32): [n]f32 = "
            r"map (\(x: f32) -> x * 2.0f32) xs"
        )
        with Server(queue_capacity=8) as s:
            handle = s.load(prog, entry="twice")
            r = s.call(ServeRequest(handle, xs(1.0)), timeout=30)
            breaker = s.pool.devices[0].breaker
            health = s.health()
            ok = s.call(
                ServeRequest(handle, xs(1.0, 2.0), entry="twice"), timeout=30
            )
        self._refused(r, "'twice', not 'main'", breaker, health)
        assert ok.ok, ok.error
        assert values_equal(ok.values[0], xs(2.0, 4.0)[0])

    @staticmethod
    def _refused(r, why, breaker, health):
        assert r.status == "error"
        assert isinstance(r.error, ArgumentError)
        assert why in str(r.error)
        assert exit_code_for(r.error) == 2
        # Refused at admission: never ran, never retried, and the
        # device's breaker never heard of it.
        assert r.run_report is None
        assert health["admitted"] == 0 and health["errors"] == 1
        assert health["pool"]["devices"][0]["executed"] == 0
        assert breaker.state is BreakerState.CLOSED
        assert breaker.trips == 0


def test_warm_is_the_load_key_the_frozen_harness_reads():
    """``benchmarks/e2e/`` (which no change may edit) makes programs
    resident with ``server.warm(prog)``; it is ``load(prog).key``."""
    prog = parse(MAP_SRC)
    with Server(queue_capacity=8) as s:
        assert s.warm(prog) == s.load(prog).key
        assert s.cache.stats.snapshot()["misses"] == 1


def test_a_request_binds_its_sizes_once(monkeypatch):
    """Admission binds the request's sizes, and the pool places with
    the same binding instead of making its own."""
    calls = []
    real = costmodel.size_env_from_args

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (costmodel, server_mod, pool_mod):
        monkeypatch.setattr(module, "size_env_from_args", spy)
    spec = BENCHMARKS["NN"]
    prog = spec.program()
    rng = np.random.default_rng(0)
    with Server() as s:
        handle = s.load(prog)
        for k in range(4):
            program = handle if k % 2 else prog
            r = s.call(ServeRequest(program, spec.small_args(rng)), timeout=60)
            assert r.ok, r.error
            assert len(calls) == k + 1


@pytest.mark.parametrize("executor", EXECUTORS)
def test_handle_and_program_requests_equal_compiled_execute(executor):
    rng = np.random.default_rng(3)
    with Server() as s:
        for name in NAMES:
            spec = BENCHMARKS[name]
            prog = spec.program()
            args = spec.small_args(rng)
            handle = s.load(prog)
            assert isinstance(handle, ProgramHandle)
            want, _, _ = compile_program(prog).execute(
                args, policy=ExecutionPolicy(executor=executor)
            )
            for program in (handle, prog):
                r = s.call(
                    ServeRequest(program, args, executor=executor),
                    timeout=120,
                )
                assert r.ok, f"{name}: {r.error}"
                assert r.backend == executor and not r.degraded_from, name
                assert len(r.values) == len(want), name
                for got, exp in zip(r.values, want):
                    assert values_equal(got, exp, rtol=0.0, atol=0.0), name
