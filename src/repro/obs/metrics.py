"""Metrics: a view of the trace.

Every event is recorded once, on the trace.  A metrics snapshot is
:func:`fold` of one tracer's spans and instants into the
``repro.metrics/v1`` sections — ``counters``, ``gauges`` and
``histograms``, keyed ``name{label=value,...}`` with the labels sorted.
Each record kind folds by one branch of :class:`_Fold` (DESIGN.md §7
lists the rules); a span is "finished" when it carries no ``error``.  Sums
run in emission order, so a snapshot holds the floats an
event-by-event count would.  ``repro.obs.export`` writes snapshots; the
test of the CI artefacts job validates the file that job uploads.

:class:`Histogram` is also the serving layer's always-on per-lane
latency distribution (``Server.health()``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .trace import tracing

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsView",
    "fold",
    "metering",
]

#: Default histogram bucket upper bounds — log-spaced, suitable for
#: microsecond timings from sub-microsecond kernels to second-scale
#: compiles.  The implicit final bucket is +inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
)

_OCCUPANCY_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
_WATCHDOG_BUCKETS = (0.05, 0.125, 0.25, 0.5, 0.75, 1.0)

#: The books' summed launch attributes, by metric suffix.
_LAUNCH_SUMS = ("cycles", "bytes_effective", "bytes_raw", "flops")
_HEAP_SUMS = ("allocs", "frees", "reuses", "alloc_bytes")


class Histogram:
    """A bucketed distribution: ``counts[i]`` observations fell at or
    below ``bounds[i]``; ``counts[-1]`` is the +inf overflow bucket."""

    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in bounds))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        with self._lock:
            self.sum += v
            self.count += 1
            for i, bound in enumerate(self.bounds):
                if v <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``), estimated by
        linear interpolation within the bucket that holds the target
        rank.  With no observations returns 0.0; a target landing in
        the +inf overflow bucket returns the last finite bound (the
        best available lower estimate).  Shared by ``Server.health()``
        and the flight recorder's SLO trigger, so both agree on what
        "p99" means.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        with self._lock:
            total = self.count
            if total == 0:
                return 0.0
            rank = (q / 100.0) * total
            cumulative = 0
            for i, n in enumerate(self.counts):
                if n == 0:
                    continue
                if cumulative + n >= rank:
                    if i >= len(self.bounds):
                        return self.bounds[-1]
                    lo = self.bounds[i - 1] if i > 0 else 0.0
                    hi = self.bounds[i]
                    frac = (rank - cumulative) / n
                    return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
                cumulative += n
            return self.bounds[-1]


def _key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class _Fold:
    """The three snapshot sections, filled one record at a time."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def count(self, name: str, n: float = 1.0, **labels: Any) -> None:
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0.0) + n

    def observe(
        self, name: str, v: float, bounds=DEFAULT_BUCKETS, **labels: Any
    ) -> None:
        key = _key(name, labels)
        h = self.histograms.get(key)
        if h is None:
            h = self.histograms[key] = Histogram(bounds)
        h.observe(v)

    def span(self, s) -> None:
        a, name, cat = s.attrs, s.name, s.category
        finished = "error" not in a
        if cat == "kernel" and "namespace" in a:
            # A launch on one device's books (``gpu``, or ``gpu.dev<id>``
            # on a pooled device); one the watchdog killed ran, but was
            # never accounted.
            if a["runner"] == "jit":
                self.count("jit.kernels", kind=a["kind"])
            if not finished:
                return
            ns = a["namespace"]
            self.count(f"{ns}.launches", a["launches"], kind=a["kind"])
            self.count(f"{ns}.sim_time_us", s.dur_us)
            for field in _LAUNCH_SUMS:
                self.count(f"{ns}.{field}", a[field])
            self.observe(f"{ns}.kernel_time_us", s.dur_us)
            self.observe(f"{ns}.occupancy", a["occupancy"], _OCCUPANCY_BUCKETS)
            self.observe(
                f"{ns}.watchdog_consumed", a["watchdog_consumed"],
                _WATCHDOG_BUCKETS,
            )
        elif cat == "manifest" and "namespace" in a:
            self.count(f"{a['namespace']}.manifests")
            self.count(f"{a['namespace']}.manifest_bytes", a["bytes_moved"])
        elif cat == "pipeline" and name.startswith("pass:"):
            if finished and "phase" in a:
                self.count("pipeline.passes", phase=a["phase"])
            for field in ("vertical", "horizontal"):
                if f"fused_{field}" in a:
                    self.count(f"fusion.{field}", a[f"fused_{field}"])
        elif cat == "pipeline" and name == "compile" and finished:
            self.count("pipeline.compiles")
        elif cat == "vm" and name == "jit.transpile" and "kernel" in a:
            self.count("jit.transpiles", kernel=a["kernel"])
        elif cat == "vm" and name == "jit.compile" and "kernel" in a:
            if finished:
                self.count("jit.compiles", kernel=a["kernel"])
        elif cat == "runtime" and name == "interpreter-fallback":
            self.count("runtime.fallbacks")
        elif cat == "runtime" and name == "execute" and "refused" in a:
            self.count("runtime.breaker_refusals", backend=a["refused"])

    def instant(self, s) -> None:
        a, name, cat = s.attrs, s.name, s.category
        kind, _, what = name.partition(":")
        if cat == "runtime" and kind == "fault":
            self.count("runtime.faults", kind=what)
        elif cat == "runtime" and name == "backoff":
            self.count("runtime.retries")
            self.count("runtime.backoff_us", a["us"])
        elif cat == "pipeline" and kind == "rollback":
            self.count("pipeline.rollbacks", pass_name=what, phase=a["phase"])
        elif cat == "pipeline" and kind.startswith("artifact-") and what:
            self.count(
                "pipeline.artifacts", stage=what, event=kind[len("artifact-"):]
            )
        elif cat == "vm" and kind == "vm.fallback":
            self.count("vm.fallback", kernel=what, kind=a["kind"])
        elif cat == "mem" and name == "heap":
            ns = a["namespace"]
            self.gauges[f"{ns}.mem.peak_bytes"] = float(a["peak_bytes"])
            for field in _HEAP_SUMS:
                self.count(f"{ns}.mem.{field}", a[field])
        elif cat == "serve" and name == "shed":
            self.count("serve.shed")
        elif cat == "serve" and name == "admitted":
            self.count("serve.admitted", lane=a["lane"])
            self.gauges["serve.queue_depth"] = float(a["queue_depth"])
        elif cat == "serve" and name == "finished":
            self.count(
                "serve.requests", status=a["status"], backend=a["backend"]
            )
            self.observe("serve.latency_us", a["latency_us"], lane=a["lane"])
            self.gauges["serve.queue_depth"] = float(a["queue_depth"])

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for k, h in sorted(self.histograms.items())
            },
        }


def fold(tracer) -> Dict[str, Any]:
    """The metrics snapshot of ``tracer``'s records: a flat
    JSON-serialisable dict."""
    f = _Fold()
    for s in list(tracer.spans):
        f.span(s)
    for s in list(tracer.instants):
        f.instant(s)
    return f.snapshot()


@dataclass(frozen=True)
class MetricsView:
    """The metrics of one tracer: :meth:`snapshot` folds its records
    as they stand."""

    tracer: Any

    def snapshot(self) -> Dict[str, Any]:
        return fold(self.tracer)


@contextmanager
def metering(tracer: Optional[Any] = None):
    """Install a tracer for the duration of the block; yields the
    :class:`MetricsView` of it."""
    with tracing(tracer) as tr:
        yield MetricsView(tr)
