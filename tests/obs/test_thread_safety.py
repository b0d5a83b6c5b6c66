"""Concurrent hammer tests: the observability layer under threads.

The serving layer's worker pool shares one ambient tracer, and its
per-lane latency histograms are always on, so span and instant
emission, the fold of a live tracer and histogram observations must
not lose updates or corrupt internal state under concurrency.  These
tests drive enough iterations that the unlocked read-modify-write
implementations reliably fail them.
"""

import threading

from repro.obs import Histogram, Tracer
from repro.obs.metrics import fold

THREADS = 8
ITERS = 4_000


def _hammer(n_threads, fn):
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as e:  # surfaced below; threads swallow otherwise
            errors.append(e)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestMetricsThreadSafety:
    def test_concurrent_events_fold_to_exact_counts(self):
        tracer = Tracer()

        def work(_):
            for _ in range(ITERS):
                tracer.instant("backoff", "runtime", us=1.0)

        _hammer(THREADS, work)
        counters = fold(tracer)["counters"]
        assert counters["runtime.retries"] == THREADS * ITERS
        assert counters["runtime.backoff_us"] == THREADS * ITERS

    def test_histogram_observations_are_not_lost(self):
        h = Histogram()

        def work(i):
            for k in range(ITERS):
                h.observe(float(k % 100))

        _hammer(THREADS, work)
        assert h.count == THREADS * ITERS
        assert sum(h.counts) == THREADS * ITERS

    def test_fold_during_emission_does_not_crash(self):
        tracer = Tracer()
        per_thread = 1_000
        done = threading.Event()

        def emit(i):
            for k in range(per_thread):
                tracer.instant(f"fault:kind{k % 64}", "runtime", t=i)

        def snapshot(_):
            while not done.is_set():
                fold(tracer)

        emitters = [
            threading.Thread(target=emit, args=(i,)) for i in range(4)
        ]
        reader = threading.Thread(target=snapshot, args=(0,))
        for t in emitters + [reader]:
            t.start()
        for t in emitters:
            t.join()
        done.set()
        reader.join()
        counters = fold(tracer)["counters"]
        assert sum(counters.values()) == 4 * per_thread


class TestTracerThreadSafety:
    def test_concurrent_span_emission_keeps_every_span(self):
        tracer = Tracer()
        per_thread = 500

        def work(i):
            for k in range(per_thread):
                with tracer.span(f"work-{i}", "hammer"):
                    pass

        _hammer(THREADS, work)
        assert len(tracer.spans) == THREADS * per_thread
        assert all(s.finished for s in tracer.spans)

    def test_concurrent_complete_instant_counter(self):
        tracer = Tracer()
        per_thread = 500

        def work(i):
            for k in range(per_thread):
                tracer.complete(
                    f"c-{i}", "hammer", ts_us=k, dur_us=1.0,
                    track=f"worker-{i}",
                )
                tracer.instant(f"i-{i}", "hammer")
                tracer.counter(f"n-{i}", float(k), track=f"worker-{i}")

        _hammer(THREADS, work)
        assert len(tracer.spans) == THREADS * per_thread
        assert len(tracer.instants) == THREADS * per_thread
        assert len(tracer.counters) == THREADS * per_thread
        # Every per-worker track is visible.
        tracks = tracer.tracks()
        for i in range(THREADS):
            assert f"worker-{i}" in tracks
