"""Compile cache: single-flight dedup and negative TTL."""

import threading

import pytest

from repro.errors import CompilerBug
from repro.serve import CompileCache


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestBasics:
    def test_builds_once_then_hits(self):
        cache = CompileCache()
        calls = []
        build = lambda: calls.append(1) or "compiled"
        assert cache.get_or_compile("k", build) == "compiled"
        assert cache.get_or_compile("k", build) == "compiled"
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_distinct_keys_build_separately(self):
        cache = CompileCache()
        assert cache.get_or_compile("a", lambda: 1) == 1
        assert cache.get_or_compile("b", lambda: 2) == 2
        assert len(cache) == 2

    def test_peek_never_builds(self):
        cache = CompileCache()
        assert cache.peek("k") is None
        cache.get_or_compile("k", lambda: "v")
        assert cache.peek("k") == "v"

    def test_invalidate(self):
        cache = CompileCache()
        cache.get_or_compile("k", lambda: "v1")
        cache.invalidate("k")
        assert cache.get_or_compile("k", lambda: "v2") == "v2"


class TestNegativeCaching:
    def test_failure_is_cached_inside_ttl(self):
        clock = FakeClock()
        cache = CompileCache(negative_ttl_s=5.0, clock=clock)
        calls = []

        def build():
            calls.append(1)
            raise CompilerBug("fusion", "simplify", "boom")

        with pytest.raises(CompilerBug):
            cache.get_or_compile("k", build)
        clock.advance(1.0)
        with pytest.raises(CompilerBug):
            cache.get_or_compile("k", build)
        assert len(calls) == 1  # second caller served the cached error
        assert cache.stats.negative_hits == 1

    def test_failure_retried_after_ttl(self):
        clock = FakeClock()
        cache = CompileCache(negative_ttl_s=5.0, clock=clock)
        calls = []

        def build():
            calls.append(1)
            if len(calls) == 1:
                raise CompilerBug("fusion", "simplify", "boom")
            return "fixed"

        with pytest.raises(CompilerBug):
            cache.get_or_compile("k", build)
        clock.advance(5.0)
        assert cache.get_or_compile("k", build) == "fixed"
        assert len(calls) == 2
        assert cache.stats.expirations == 1

    def test_cached_error_is_cloned_per_caller(self):
        # The shared cached instance must never be raised directly:
        # concurrent raises would race on its mutable __traceback__,
        # and attributes one caller attaches (e.g. error.report) would
        # leak to every other caller.
        cache = CompileCache(negative_ttl_s=60.0)
        original = CompilerBug("fusion", "simplify", "boom")

        def build():
            raise original

        with pytest.raises(CompilerBug):  # the leader
            cache.get_or_compile("k", build)
        with pytest.raises(CompilerBug) as exc1:
            cache.get_or_compile("k", build)
        with pytest.raises(CompilerBug) as exc2:
            cache.get_or_compile("k", build)
        assert exc1.value is not original
        assert exc2.value is not original
        assert exc1.value is not exc2.value
        # Same type and payload, original chained for provenance.
        assert exc1.value.__cause__ is original
        assert exc1.value.pass_name == "fusion"
        assert str(exc1.value) == str(original)
        # Attribute attachment stays private to one caller's clone.
        exc1.value.report = "mine"
        assert not hasattr(exc2.value, "report")
        assert not hasattr(original, "report")

    def test_peek_hides_failures(self):
        cache = CompileCache()
        with pytest.raises(CompilerBug):
            cache.get_or_compile(
                "k", lambda: (_ for _ in ()).throw(
                    CompilerBug("p", "ph", "x")
                )
            )
        assert cache.peek("k") is None


class TestInterruptedBuild:
    """A ``KeyboardInterrupt``/``SystemExit`` in one caller's compile is
    that caller's: it is not cached as a failure of the program."""

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_the_next_caller_builds(self, exc):
        cache = CompileCache()

        def interrupted():
            raise exc

        with pytest.raises(exc):
            cache.get_or_compile("k", interrupted)
        assert cache.peek("k") is None
        try:
            got = cache.get_or_compile("k", lambda: "compiled")
        except BaseException as ex:  # a replayed interrupt
            pytest.fail(f"the interrupt was cached: {ex!r}")
        assert got == "compiled"
        assert cache.stats.negative_hits == 0
        assert cache.stats.misses == 2

    def test_a_waiter_becomes_the_leader(self):
        cache = CompileCache()
        entered, release = threading.Event(), threading.Event()
        outcomes = {}

        def interrupted():
            entered.set()
            release.wait(timeout=10)
            raise KeyboardInterrupt

        def leader():
            try:
                cache.get_or_compile("k", interrupted)
            except KeyboardInterrupt:
                outcomes["leader"] = "interrupted"

        def waiter():
            try:
                outcomes["waiter"] = cache.get_or_compile(
                    "k", lambda: "compiled"
                )
            except BaseException as ex:  # a replayed interrupt
                outcomes["waiter"] = ex

        first = threading.Thread(target=leader)
        first.start()
        assert entered.wait(timeout=10)
        second = threading.Thread(target=waiter)
        second.start()
        while cache.stats.waits == 0:
            pass
        release.set()
        for t in (first, second):
            t.join(timeout=10)
        assert outcomes == {"leader": "interrupted", "waiter": "compiled"}
        assert cache.stats.negative_hits == 0
        assert cache.peek("k") == "compiled"


class TestSingleFlight:
    def test_concurrent_same_key_builds_once(self):
        cache = CompileCache()
        n = 8
        barrier = threading.Barrier(n)
        release = threading.Event()
        build_calls = []
        results = []

        def build():
            build_calls.append(1)
            release.wait(timeout=10)  # hold every waiter in-flight
            return "compiled"

        def work():
            barrier.wait()
            results.append(cache.get_or_compile("k", build))

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        # Give the leader time to enter build and the rest to pile up,
        # then release the build.
        while not build_calls:
            pass
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(build_calls) == 1
        assert results == ["compiled"] * n
        assert cache.stats.misses == 1
        assert cache.stats.waits + cache.stats.hits == n - 1

    def test_waiters_share_the_leaders_error(self):
        cache = CompileCache()
        n = 6
        barrier = threading.Barrier(n)
        release = threading.Event()
        outcomes = []

        def build():
            release.wait(timeout=10)
            raise CompilerBug("fusion", "simplify", "boom")

        def work():
            barrier.wait()
            try:
                cache.get_or_compile("k", build)
            except CompilerBug:
                outcomes.append("raised")

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert outcomes == ["raised"] * n
