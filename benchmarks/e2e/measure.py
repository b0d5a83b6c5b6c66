"""Timing loops, the host-speed reference, statistics and the in-memory
span recorder.

Everything here is workload-agnostic: a workload supplies ``operate``
(the one timed public call) and ``verify`` (run outside the timed
interval); the loops below decide how often and from how many threads
those are called, and hand back samples.
"""

from __future__ import annotations

import bisect
import collections
import gc
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# -- host speed ---------------------------------------------------------------
#
# The benchmark runs on shared cores whose speed changes by up to a
# factor of two for seconds to minutes at a time: ten back-to-back 12 s
# runs of ``compile_cold`` read 37.7 to 64.9 ms of raw wall time per
# operation (README.md, "Host-speed reference", has the measurements).
# Every statistic of a run moves with it — fastest sample, quartiles,
# median — so no estimator and no affordable run length makes ten raw
# runs of one commit agree.  What does is timing a fixed loop next to
# the operations and dividing by how much slower than nominal it ran.

#: The reference loop's time on the seed host when idle (2.1 GHz x86-64
#: VM, CPython 3.11, NumPy 2.4).  It only fixes the scale: reported
#: times read as "milliseconds at the speed where the reference loop
#: takes 0.40 ms".
REFERENCE_NOMINAL_S = 400e-6


class _Item:
    __slots__ = ("index", "label")

    def __init__(self, index: int, label: str) -> None:
        self.index = index
        self.label = label

    def total(self) -> int:
        return self.index + len(self.label)


_CELL = np.arange(64, dtype=np.float32)


def reference_loop() -> float:
    """What the system's own hot paths are made of — small-object
    allocation, dictionary traffic, method calls and NumPy calls on tiny
    arrays — so that a busy neighbour slows this loop and the measured
    operations by about the same factor.  It imports nothing from the
    system under test."""
    t0 = time.perf_counter()
    table = {}
    for i in range(700):
        item = _Item(i, str(i))
        table[item.label] = [item.total(), (i, i + 1)]
    cell = _CELL
    for _ in range(70):
        cell = np.where(cell > 3.0, cell * 0.5, cell + _CELL)
        cell.sum()
    return time.perf_counter() - t0


class HostSpeed:
    """Readings of how much slower than nominal the host is (1.0 = the
    seed host, idle), taken between the benchmark's operations."""

    #: Operations closer together than this share a reading: the host's
    #: speed changes over hundreds of milliseconds, and a reading costs
    #: about 1.5 ms.
    MIN_GAP_S = 0.02

    def __init__(self) -> None:
        self.times: List[float] = []
        self.factors: List[float] = []

    def read(self, min_gap_s: float = 0.0) -> None:
        if self.times and time.perf_counter() - self.times[-1] < min_gap_s:
            return
        # The fastest of three, so one preemption does not count as a
        # slow host; with the collector off, so the reading does not
        # depend on the heap the system under test has built.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            fastest = min(reference_loop() for _ in range(3))
        finally:
            if was_enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.factors.append(fastest / REFERENCE_NOMINAL_S)

    def during(self, start: float, end: float) -> float:
        """The mean of the last reading before ``start``, the first
        after ``end`` and any in between."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return statistics.fmean(self.factors[first:last + 1])


# -- statistics ---------------------------------------------------------------


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the contract's definition of spread); a single value is its own
    quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of the pooled samples."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean_of_medians(samples: Dict[str, List[float]]) -> float:
    """The suite-level number the paper's evaluation style calls for:
    one median per program, averaged geometrically so no single slow
    program dominates."""
    return geomean(statistics.median(v) for v in samples.values() if v)


# -- spans --------------------------------------------------------------------


class Spans:
    """In-memory span log of the harness's own calls into each layer.

    Spans are appended *after* the timed interval they describe, from
    timestamps the loop took anyway, and written out as a Chrome trace
    when the run ends.  They carry raw wall-clock times.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self.events: List[tuple] = []
        self.origin = time.perf_counter()

    def new_id(self) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        return sid

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        layer: str,
        parent: Optional[int] = None,
        op: Optional[int] = None,
        sid: Optional[int] = None,
        track: int = 0,
        **attrs: Any,
    ) -> int:
        """``op`` is the identifier every span of one operation shares
        (the operation's own span id)."""
        if sid is None:
            sid = self.new_id()
        # Flat tuples of atoms: the collector stops tracking them, so a
        # long trace does not make every later collection slower.
        event = (name, layer, start, end, track, sid, parent, op,
                 tuple(attrs.items()))
        with self._lock:
            self.events.append(event)
        return sid

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": process_name},
        }]
        for name, layer, start, end, track, sid, parent, op, attrs in self.events:
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": track,
                "args": {"id": sid, "parent": parent, "op": op, **dict(attrs)},
            })
        return {"traceEvents": events}

    def write(self, path, process_name: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(process_name)))


# -- measured phases ----------------------------------------------------------


@dataclass
class Round:
    """One pass over the workload's programs (closed loop) or one burst
    of requests (in flight)."""

    #: ``(program, start, end)`` per operation, raw ``perf_counter``.
    ops: List[Tuple[str, float, float]] = field(default_factory=list)
    #: First submit to last completion where operations overlap; None
    #: for one closed-loop client, whose busy time is the sum of its
    #: operations.
    span: Optional[Tuple[float, float]] = None
    failed: int = 0


@dataclass
class Phase:
    """Everything one measured phase observed."""

    #: The workload's host-speed readings.
    speed: HostSpeed
    rounds: List[Round] = field(default_factory=list)
    #: ``(program, reason)`` per failed operation.
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(r.ops) for r in self.rounds)

    @property
    def started(self) -> float:
        """When the first operation started."""
        return self.rounds[0].ops[0][1]

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` at nominal host speed."""
        return (end - start) / self.speed.during(start, end)

    def samples(self) -> Dict[str, List[float]]:
        """program -> operation times in seconds."""
        out: Dict[str, List[float]] = collections.defaultdict(list)
        for r in self.rounds:
            for name, start, end in r.ops:
                out[name].append(self.seconds(start, end))
        return out

    def rates(self) -> List[float]:
        """Passing operations per second of busy time, per round."""
        return [
            (len(r.ops) - r.failed) / (
                self.seconds(*r.span) if r.span is not None
                else sum(self.seconds(t0, t1) for _, t0, t1 in r.ops)
            )
            for r in self.rounds
        ]

    def host_factors(self) -> List[float]:
        return [self.speed.during(*(r.span or (r.ops[0][1], r.ops[-1][2])))
                for r in self.rounds]


def _keep_going(done: int, rounds: Optional[int], deadline: float) -> bool:
    if rounds is not None:
        return done < rounds
    return done == 0 or time.perf_counter() < deadline


def run_rounds(
    workload,
    seconds: float,
    rounds: Optional[int] = None,
    spans: Optional[Spans] = None,
) -> Phase:
    """One closed-loop client: each round is one pass over the
    workload's programs; the next operation starts when the previous
    one's result has been checked."""
    phase = Phase(workload.speed)
    results: Dict[str, Any] = {}
    deadline = time.perf_counter() + seconds
    while _keep_going(len(phase.rounds), rounds, deadline):
        rnd = Round()
        round_id = spans.new_id() if spans is not None else None
        round_start = time.perf_counter()
        for case in workload.round_order(len(phase.rounds)):
            phase.speed.read(HostSpeed.MIN_GAP_S)
            # An operation that raises is a failed operation, not a
            # failed benchmark: this is the boundary that keeps running.
            t0 = time.perf_counter()
            try:
                result, reason = workload.operate(case), None
            except Exception as exc:  # noqa: BLE001
                result, reason = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            rnd.ops.append((case.name, t0, t1))
            reason = reason or workload.verify(case, result)
            if reason is not None:
                rnd.failed += 1
                phase.failures.append((case.name, reason))
            results[case.name] = result
            if spans is not None:
                op = spans.new_id()
                spans.add(
                    workload.op_name, t0, t1, layer=workload.layer,
                    parent=round_id, op=op, sid=op, program=case.name,
                    failed=reason,
                )
        if spans is not None:
            spans.add(
                "round", round_start, time.perf_counter(), layer="bench",
                sid=round_id, index=len(phase.rounds),
            )
        phase.rounds.append(rnd)
    phase.speed.read()
    # The expensive half of verification (see Workload.verify_final)
    # runs once per program, on the last round's results.
    for case in workload.order:
        reason = workload.verify_final(case, results[case.name])
        if reason is not None:
            phase.rounds[-1].failed += 1
            phase.failures.append((case.name, reason))
    return phase


#: Passes over the programs each in-flight client makes per round: long
#: enough that filling and draining the window at the round's edges is
#: a few per cent of it.
IN_FLIGHT_PASSES = 3


def run_in_flight(
    workload,
    seconds: float,
    rounds: Optional[int] = None,
    spans: Optional[Spans] = None,
    clients: int = 2,
    depth: int = 4,
) -> Phase:
    """``clients`` closed-loop threads that each keep ``depth`` requests
    in flight: a client waits for its *oldest* request, records the
    latency it observed (``submit`` to ``result()``), and tops the
    window back up.  Results are verified after the round so the load
    generator does nothing but generate load.  Between rounds the
    window drains and the host's speed is read on the idle process.
    """
    phase = Phase(workload.speed)
    deadline = time.perf_counter() + seconds

    def client(index: int, mine: list) -> None:
        window: collections.deque = collections.deque()
        todo: collections.deque = collections.deque()
        for i in range(IN_FLIGHT_PASSES):
            todo.extend(workload.round_order(
                (len(phase.rounds) * clients + index) * IN_FLIGHT_PASSES + i
            ))
        while window or todo:
            while todo and len(window) < depth:
                case = todo.popleft()
                t0 = time.perf_counter()
                try:
                    handle, error = workload.submit(case), None
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    handle, error = None, f"raised {type(exc).__name__}: {exc}"
                window.append((case, handle, error, t0, time.perf_counter()))
            case, handle, error, t0, t1 = window.popleft()
            result = None
            if handle is not None:
                try:
                    result = handle.result(timeout=workload.result_timeout_s)
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    error = f"raised {type(exc).__name__}: {exc}"
            mine.append((case, result, error, t0, t1, time.perf_counter()))

    phase.speed.read()
    while _keep_going(len(phase.rounds), rounds, deadline):
        rnd = Round()
        records: List[list] = [[] for _ in range(clients)]
        threads = [
            threading.Thread(
                target=client, args=(i, records[i]), name=f"e2e-client-{i}"
            )
            for i in range(clients)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.speed.read()
        round_id = spans.new_id() if spans is not None else None
        end = start
        for index, mine in enumerate(records):
            for case, result, error, t0, t1, t2 in mine:
                rnd.ops.append((case.name, t0, t2))
                end = max(end, t2)
                reason = error or workload.verify(case, result)
                if reason is not None:
                    rnd.failed += 1
                    phase.failures.append((case.name, reason))
                if spans is not None:
                    op = spans.new_id()
                    spans.add(
                        workload.op_name, t0, t2, layer=workload.layer,
                        parent=round_id, op=op, sid=op, track=index + 1,
                        program=case.name, failed=reason,
                    )
                    spans.add(
                        "serve.submit", t0, t1, layer="serve", parent=op,
                        op=op, track=index + 1,
                    )
        rnd.span = (start, end)
        if spans is not None:
            spans.add(
                "round", start, end, layer="bench", sid=round_id,
                index=len(phase.rounds),
            )
        phase.rounds.append(rnd)
    return phase
