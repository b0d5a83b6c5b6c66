"""``repro.obs`` — the zero-dependency observability layer.

* :mod:`repro.obs.trace` — span-based tracing, opt-in with a no-op
  default.  The pipeline wraps a span around every optimisation pass
  (with IR-size-delta attributes and rollback instants); the GPU
  simulator stamps one span per kernel launch on a simulated-time
  track; the resilient executor spans each attempt, backoff and
  fallback; the server marks each admission, shed and finish.
* :mod:`repro.obs.metrics` — metrics as a view of the trace: a
  snapshot is the fold of one tracer's records into counters, gauges
  and histograms with labels (launches, cycles, memory traffic,
  occupancy, watchdog budget, retries, faults, fallbacks, ...).
* :mod:`repro.obs.flight` — the serving layer's opt-in flight
  recorder: a record is a request's result plus its own tracer, which
  the serving thread records into and the ambient tracer (if any)
  absorbs when the request's capture window closes; a failing or slow
  request dumps a self-contained bundle.

The trace is the one event channel: a launch, a fault, a rollback, a
jit hand-over or a shard re-placement is recorded once, on it, and
nothing else records it again.

Exporters (:mod:`repro.obs.export`): Chrome ``trace.json`` for
chrome://tracing / Perfetto, a flat JSON metrics dump, and a terminal
summary table (whose events section lists the instants).  The CLI
surface is ``python -m repro ... --trace-out trace.json --metrics-out
metrics.json``, or ``--verbose`` for the summary alone.

Typical embedding::

    from repro.obs import metering
    from repro.obs.export import write_chrome_trace, write_metrics

    with metering() as m:
        compiled = compile_program(prog)
        compiled.execute(args)
    print(m.snapshot()["counters"])
    write_chrome_trace(m.tracer, "trace.json")
    write_metrics(m.tracer, "metrics.json")

(:func:`tracing` installs a tracer the same way and yields the tracer
itself.)
"""

from __future__ import annotations

from .flight import (  # noqa: F401
    DUMP_TRIGGERS,
    FLIGHT_SCHEMA,
    FlightRecord,
    FlightRecorder,
)
from .metrics import (  # noqa: F401
    DEFAULT_BUCKETS,
    Histogram,
    MetricsView,
    metering,
)
from .trace import (  # noqa: F401
    NULL_TRACER,
    PassTiming,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    thread_tracing,
    tracing,
)

__all__ = [
    "Tracer",
    "Span",
    "PassTiming",
    "Histogram",
    "MetricsView",
    "FlightRecord",
    "FlightRecorder",
    "DUMP_TRIGGERS",
    "FLIGHT_SCHEMA",
    "get_tracer",
    "set_tracer",
    "tracing",
    "thread_tracing",
    "metering",
]

