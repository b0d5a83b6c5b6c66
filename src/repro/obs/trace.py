"""Span-based tracing: the timeline half of the observability layer.

A :class:`Tracer` records a tree of *spans* (named, nested intervals
with wall-clock and monotonic timestamps and structured attributes)
plus *instant* events (zero-duration markers such as pass rollbacks or
injected faults) and *complete* events stamped with an explicit clock
(used by the GPU simulator, whose timeline runs on simulated rather
than wall time, on its own track).

The default ambient tracer is :data:`NULL_TRACER`, whose ``span()``
returns a shared singleton context manager: with tracing disabled the
hot path pays one attribute load and a truthiness check, and *zero*
span allocations (asserted by ``tests/obs/test_trace.py``).

Usage::

    from repro.obs import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        compiled = compile_program(prog)   # pass spans recorded
        compiled.execute(args)             # kernel/runtime spans too
    write_chrome_trace(tracer, "trace.json")
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "PassTiming",
    "get_tracer",
    "set_tracer",
    "tracing",
    "thread_tracing",
    "span_allocations",
]

#: Module-wide count of Span objects ever constructed; the no-op-mode
#: test asserts this does not move when only NULL_TRACER is used.
_SPAN_ALLOCATIONS = 0


def span_allocations() -> int:
    """How many :class:`Span` objects have been allocated, ever."""
    return _SPAN_ALLOCATIONS


#: The default track (Chrome-trace thread) for ordinary wall-clock
#: spans; the simulator emits onto its own named tracks.
MAIN_TRACK = "main"


class Span:
    """One traced interval.  Also its own context manager: created by
    :meth:`Tracer.span`, finished on ``__exit__``.

    ``ts_us``/``dur_us`` are microseconds relative to the tracer's
    epoch (monotonic clock); ``wall_s`` is the absolute wall-clock
    start (``time.time()``), recorded so exported traces can be
    correlated with logs from other systems.
    """

    __slots__ = (
        "name",
        "category",
        "track",
        "ts_us",
        "dur_us",
        "wall_s",
        "depth",
        "attrs",
        "_tracer",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        category: str,
        track: str,
        ts_us: float,
        wall_s: float,
        depth: int,
        attrs: Dict[str, Any],
    ) -> None:
        global _SPAN_ALLOCATIONS
        _SPAN_ALLOCATIONS += 1
        self.name = name
        self.category = category
        self.track = track
        self.ts_us = ts_us
        self.dur_us: Optional[float] = None
        self.wall_s = wall_s
        self.depth = depth
        self.attrs = attrs
        self._tracer = tracer

    def set(self, **attrs: Any) -> "Span":
        """Attach structured attributes (exported as Chrome ``args``)."""
        self.attrs.update(attrs)
        return self

    @property
    def finished(self) -> bool:
        return self.dur_us is not None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._tracer is not None:
            if exc is not None:
                self.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            self._tracer._finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f"{self.dur_us:.1f}us" if self.dur_us is not None else "open"
        return f"Span({self.name!r}, cat={self.category!r}, {dur})"


class _NullSpan:
    """The shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans and instants.  Emission is thread-safe (span
    lists and the nesting stack are lock-protected) so every thread
    serving requests can share one ambient tracer; note the nesting
    *stack* is still one per tracer — concurrent threads should prefer
    :meth:`complete` with explicit timestamps on their own tracks over
    deeply interleaved ``span()`` nesting."""

    #: Cheap guard for callers that want to skip attribute computation
    #: entirely when tracing is off.
    enabled = True

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        #: Finished spans, in *finish* order (children before parents).
        self.spans: List[Span] = []
        #: Instant events, in emission order.
        self.instants: List[Span] = []
        #: Counter samples (memory tracks etc.), in emission order.
        self.counters: List[Span] = []
        self._stack: List[Span] = []
        #: Trace-level metadata (run id, seed, ...) carried into exports.
        self.metadata: Dict[str, Any] = {}
        #: Guards every mutation of the lists above (reentrant: a
        #: span's ``__exit__`` may fire while the lock is already held
        #: by an exception unwinding through nested spans).
        self._lock = threading.RLock()

    # -- clocks -------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch (monotonic)."""
        return (time.perf_counter() - self._t0) * 1e6

    def fork(self) -> "Tracer":
        """An empty tracer on this tracer's epoch, whose records
        :meth:`absorb` can take over unchanged."""
        child = Tracer()
        child._t0 = self._t0
        return child

    def absorb(self, other: "Tracer") -> None:
        """Take over ``other``'s records — the same objects, each once,
        after this tracer's own.  ``other`` is a :meth:`fork` of this
        tracer, so their timestamps are already on its epoch."""
        with self._lock:
            self.spans.extend(other.spans)
            self.instants.extend(other.instants)
            self.counters.extend(other.counters)

    # -- recording ----------------------------------------------------------

    def span(
        self,
        name: str,
        category: str = "",
        track: str = MAIN_TRACK,
        **attrs: Any,
    ) -> Span:
        """Open a nested span (use as a context manager)."""
        with self._lock:
            s = Span(
                self,
                name,
                category,
                track,
                self.now_us(),
                time.time(),
                len(self._stack),
                attrs,
            )
            self._stack.append(s)
        return s

    def _finish(self, s: Span) -> None:
        with self._lock:
            s.dur_us = self.now_us() - s.ts_us
            # Tolerate out-of-order exits (an exception unwinding
            # through several spans finishes them innermost-first, and
            # concurrent threads interleave their pushes).
            if s in self._stack:
                while self._stack and self._stack[-1] is not s:
                    self._stack.pop()
                if self._stack:
                    self._stack.pop()
            self.spans.append(s)

    def instant(
        self,
        name: str,
        category: str = "",
        track: str = MAIN_TRACK,
        **attrs: Any,
    ) -> Span:
        """A zero-duration marker event."""
        s = Span(
            None,
            name,
            category,
            track,
            self.now_us(),
            time.time(),
            len(self._stack),
            attrs,
        )
        s.dur_us = 0.0
        with self._lock:
            self.instants.append(s)
        return s

    def complete(
        self,
        name: str,
        category: str = "",
        ts_us: float = 0.0,
        dur_us: float = 0.0,
        track: str = MAIN_TRACK,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span with explicit timestamps —
        the simulated-GPU timeline uses this with simulated
        microseconds on a dedicated track."""
        s = Span(None, name, category, track, ts_us, time.time(), 0, attrs)
        s.dur_us = dur_us
        with self._lock:
            self.spans.append(s)
        return s

    def counter(
        self,
        name: str,
        value: float,
        ts_us: Optional[float] = None,
        track: str = MAIN_TRACK,
        **attrs: Any,
    ) -> Span:
        """Sample a counter series (exported as a Chrome ``"C"`` event
        — e.g. the live device-memory track of the GPU simulator)."""
        s = Span(
            None,
            name,
            "counter",
            track,
            self.now_us() if ts_us is None else ts_us,
            time.time(),
            0,
            attrs,
        )
        s.dur_us = 0.0
        s.attrs["value"] = value
        with self._lock:
            self.counters.append(s)
        return s

    # -- inspection ---------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All finished spans/instants with the given name."""
        with self._lock:
            everything = (
                list(self.spans) + list(self.instants) + list(self.counters)
            )
        return [s for s in everything if s.name == name]

    def tracks(self) -> List[str]:
        """All track names, main track first."""
        with self._lock:
            spans = self.spans + self.counters + self.instants
        seen = [MAIN_TRACK]
        for s in spans:
            if s.track not in seen:
                seen.append(s.track)
        return seen


class NullTracer:
    """The disabled tracer: every operation is a no-op and ``span()``
    returns one shared singleton, so the uninstrumented hot path
    allocates nothing."""

    enabled = False

    def now_us(self) -> float:
        return 0.0

    def span(self, name: str, category: str = "", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def complete(
        self,
        name: str,
        category: str = "",
        ts_us: float = 0.0,
        dur_us: float = 0.0,
        track: str = MAIN_TRACK,
        **attrs: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def counter(
        self,
        name: str,
        value: float,
        ts_us: Optional[float] = None,
        track: str = MAIN_TRACK,
        **attrs: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def find(self, name: str) -> List[Span]:
        return []

    def tracks(self) -> List[str]:
        return []


NULL_TRACER = NullTracer()

_CURRENT: Any = NULL_TRACER

#: Thread-local tracer override: lets one thread (the thread serving
#: a request under a flight-recorder capture) divert its own telemetry
#: without disturbing the process-wide ambient tracer.
_TLS = threading.local()


def get_tracer():
    """The ambient tracer for the calling thread.

    A thread-local override installed by :func:`thread_tracing` wins
    over the process-wide tracer; otherwise the global one (default
    :data:`NULL_TRACER`) is returned.
    """
    override = getattr(_TLS, "tracer", None)
    return override if override is not None else _CURRENT


def set_tracer(tracer) -> None:
    """Install ``tracer`` as the ambient tracer (None resets)."""
    global _CURRENT
    _CURRENT = tracer if tracer is not None else NULL_TRACER


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Install a tracer for the duration of the block; yields it."""
    tracer = tracer if tracer is not None else Tracer()
    previous = _CURRENT
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def thread_tracing(tracer):
    """Install ``tracer`` as *this thread's* ambient tracer.

    Unlike :func:`tracing` (which swaps the process-wide tracer), the
    override is invisible to other threads — the flight recorder uses
    this so the thread serving a request (a worker, or a caller running
    its own) records exactly that request's spans in its capture, while
    other threads keep writing to the global tracer; a split request's
    shard threads install the caller's tracer the same way.  Nests: the
    previous thread-local override (if any) is restored on exit.
    """
    previous = getattr(_TLS, "tracer", None)
    _TLS.tracer = tracer
    try:
        yield tracer
    finally:
        _TLS.tracer = previous


@dataclass
class PassTiming:
    """Wall-clock and IR-size accounting for one pipeline pass.

    Collected for *every* compile (two monotonic-clock reads per pass),
    so :class:`repro.runtime.RunReport` can always carry the per-pass
    breakdown; the IR-size fields are populated only when a tracer is
    installed (counting bindings costs a full IR walk).
    """

    name: str
    phase: str
    duration_us: float
    bindings_before: Optional[int] = None
    bindings_after: Optional[int] = None
    soacs_before: Optional[int] = None
    soacs_after: Optional[int] = None
    rolled_back: bool = False

    @property
    def bindings_delta(self) -> Optional[int]:
        if self.bindings_before is None or self.bindings_after is None:
            return None
        return self.bindings_after - self.bindings_before

    @property
    def soacs_delta(self) -> Optional[int]:
        if self.soacs_before is None or self.soacs_after is None:
            return None
        return self.soacs_after - self.soacs_before

    def __str__(self) -> str:
        out = f"[{self.phase}/{self.name}] {self.duration_us:.0f}us"
        if self.bindings_delta is not None:
            out += (
                f" bindings {self.bindings_before}->{self.bindings_after}"
                f" soacs {self.soacs_before}->{self.soacs_after}"
            )
        if self.rolled_back:
            out += " (rolled back)"
        return out
