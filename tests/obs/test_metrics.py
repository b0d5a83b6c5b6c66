"""Metrics unit tests: histogram bucketing and percentiles, and the
fold of a tracer's records into a snapshot (label rendering, the
``namespace`` of the books, killed launches, last-write gauges)."""

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, fold, metering
from repro.obs.trace import Tracer, get_tracer


def test_histogram_bucketing():
    h = Histogram(bounds=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0, 5000.0):
        h.observe(v)
    assert h.counts == [1, 1, 1, 2]  # last bucket is +inf overflow
    assert h.count == 5
    assert h.sum == 5555.5
    assert h.mean == 5555.5 / 5


def test_histogram_boundary_values_fall_in_lower_bucket():
    h = Histogram(bounds=(1.0, 10.0))
    h.observe(1.0)
    h.observe(10.0)
    assert h.counts == [1, 1, 0]


def _launch(tracer, name="map_1", namespace="gpu", **attrs):
    fields = dict(
        namespace=namespace, runner="interp", kind="map", launches=1,
        cycles=100.0, bytes_effective=64.0, bytes_raw=64.0, flops=8.0,
        occupancy=0.5, watchdog_consumed=0.1,
    )
    fields.update(attrs)
    tracer.complete(
        f"kernel:{name}", "kernel", ts_us=0.0, dur_us=2.5,
        track="sim-gpu", **fields,
    )


def test_snapshot_shape_and_label_rendering():
    tr = Tracer()
    tr.instant("backoff", "runtime", us=1.5)
    tr.instant("backoff", "runtime", us=1.5)
    tr.instant("fault:transient", "runtime")
    _launch(tr)
    snap = fold(tr)
    assert snap["counters"]["runtime.retries"] == 2
    assert snap["counters"]["runtime.backoff_us"] == 3.0
    assert snap["counters"]["runtime.faults{kind=transient}"] == 1
    assert snap["counters"]["gpu.launches{kind=map}"] == 1
    assert snap["counters"]["gpu.sim_time_us"] == 2.5
    h = snap["histograms"]["gpu.occupancy"]
    assert h["bounds"] == [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    assert h["counts"] == [0, 0, 1, 0, 0, 0, 0]
    assert h["count"] == 1
    assert list(snap) == ["counters", "gauges", "histograms"]


def test_labels_render_sorted_by_name():
    tr = Tracer()
    tr.instant(
        "finished", "serve", run_id="r1", status="ok", backend="sim",
        lane="batch", latency_us=5.0, queue_depth=3,
    )
    snap = fold(tr)
    assert snap["counters"] == {"serve.requests{backend=sim,status=ok}": 1.0}
    assert snap["gauges"] == {"serve.queue_depth": 3.0}


def test_served_runs_fold_to_one_series_per_lane():
    tr = Tracer()
    for run_id in ("r1", "r2"):
        tr.instant("admitted", "serve", run_id=run_id, lane="batch",
                   queue_depth=1)
        tr.instant(
            "finished", "serve", run_id=run_id, status="ok", backend="sim",
            lane="batch", latency_us=5.0, queue_depth=0,
        )
    tr.instant("shed", "serve", run_id="r3")
    snap = fold(tr)
    assert snap["counters"] == {
        "serve.admitted{lane=batch}": 2.0,
        "serve.requests{backend=sim,status=ok}": 2.0,
        "serve.shed": 1.0,
    }
    assert list(snap["histograms"]) == ["serve.latency_us{lane=batch}"]
    assert snap["histograms"]["serve.latency_us{lane=batch}"]["count"] == 2


def test_the_books_namespace_names_the_metrics():
    tr = Tracer()
    _launch(tr)
    _launch(tr, namespace="gpu.dev1", kind="reduce", launches=2)
    counters = fold(tr)["counters"]
    assert counters["gpu.launches{kind=map}"] == 1
    assert counters["gpu.dev1.launches{kind=reduce}"] == 2
    # A kernel span the books did not record folds to nothing.
    bare = Tracer()
    bare.complete("kernel:k", "kernel", ts_us=0.0, dur_us=1.0)
    assert fold(bare)["counters"] == {}


def test_a_killed_launch_counts_as_jitted_and_as_no_launch():
    tr = Tracer()
    _launch(tr, runner="jit")
    _launch(tr, runner="jit", watchdog_consumed=3.0, error="killed")
    counters = fold(tr)["counters"]
    assert counters["jit.kernels{kind=map}"] == 2
    assert counters["gpu.launches{kind=map}"] == 1


def test_the_last_heap_instant_sets_the_peak():
    tr = Tracer()
    for peak in (512, 256):
        tr.instant(
            "heap", "mem", namespace="gpu", peak_bytes=peak, allocs=2,
            frees=1, reuses=0, alloc_bytes=peak,
        )
    snap = fold(tr)
    assert snap["gauges"] == {"gpu.mem.peak_bytes": 256.0}
    assert snap["counters"]["gpu.mem.allocs"] == 4
    assert snap["counters"]["gpu.mem.alloc_bytes"] == 768


def test_an_errored_span_is_not_a_finished_one():
    tr = Tracer()
    tr.complete("pass:fusion", "pipeline", phase="fusion", fused_vertical=2)
    tr.complete(
        "pass:tiling", "pipeline", phase="memory", error="CompilerBug: x"
    )
    tr.complete("compile", "pipeline", error="CompilerBug: x")
    counters = fold(tr)["counters"]
    assert counters == {
        "pipeline.passes{phase=fusion}": 1.0,
        "fusion.vertical": 2.0,
    }


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    h = Histogram()
    h.observe(2_000_000.0)
    assert h.counts[-1] == 1


def test_metering_installs_a_tracer_and_views_it():
    before = get_tracer()
    with metering() as m:
        assert get_tracer() is m.tracer
        get_tracer().instant("fault:oom", "runtime")
    assert get_tracer() is before
    assert m.snapshot()["counters"] == {"runtime.faults{kind=oom}": 1.0}


class TestPercentile:
    def test_empty_histogram_is_zero(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        assert h.percentile(50.0) == 0.0

    def test_interpolates_within_bucket(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        # rank 2 of 4 lands at the top of the (1, 2] bucket.
        assert h.percentile(50.0) == 2.0
        # rank 1 of 4 is the whole (0, 1] bucket.
        assert h.percentile(25.0) == 1.0
        assert h.percentile(100.0) == 4.0
        assert h.percentile(0.0) == 0.0

    def test_overflow_bucket_reports_last_finite_bound(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.percentile(50.0) == 2.0

    def test_out_of_range_quantile_rejected(self):
        h = Histogram(bounds=(1.0,))
        try:
            h.percentile(101.0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_median_of_uniform_stream_is_close(self):
        bounds = tuple(float(b) for b in range(10, 1010, 10))
        h = Histogram(bounds=bounds)
        for v in range(1, 1001):
            h.observe(float(v))
        assert abs(h.percentile(50.0) - 500.0) <= 10.0
        assert abs(h.percentile(95.0) - 950.0) <= 10.0
