"""The device pool: N simulated devices, placement, sharding.

A :class:`DevicePool` owns N heterogeneous simulated devices (a
:class:`repro.serve.Server` runs every request on one) and no thread.
Each :class:`PoolDevice` has its own run lock, persistent
:class:`~repro.gpu.heap.DeviceHeap`
(lifetime-accumulating), :class:`~repro.serve.breaker.CircuitBreaker`,
optional :class:`~repro.gpu.faults.FaultPlan` (the only plan its
stints run under), and its own observability namespace — kernel spans
land on the ``gpu.dev{id}`` trace track, and their metrics fold under
``gpu.dev{id}.*``.

:meth:`DevicePool.run` executes one request:

- the :class:`Placer` asks the cost model how to run it: whole on the
  least-estimated-completion-time device (with a program-affinity
  bonus for devices that already ran this compile key), or — for a
  **shardable** request (per :func:`repro.sched.shard.
  analyze_shardable`) whose split is predicted to finish sooner even
  after paying one more launch per extra device — ``k`` ways by the
  :class:`ShardPlanner` (weights = per-device speed from the cost
  model), executed concurrently, and merged bit-identically.  Its
  verdict is memoised on the host program (``HostProgram.placements``),
  keyed by everything it reads — placer, planner and ``min_shard``,
  sizes, batch, and each healthy device's id, profile, backlog and
  affinity — so a request that repeats one (an idle pool's every
  request, once affinity settles) is placed by a lookup;
- each shard (a whole placement is one) is booked on its device at the
  price the placer computed and run by
  :func:`repro.runtime.run_resilient`, the one attempt loop, as its
  ``placement`` and its ``deadline``: a sequence of device stints that
  retries in place first, then asks the shard for a healthy device it
  has not tried.  With none left, the loop's interpreter floor
  evaluates the shard's rows (``fallback=True``) or raises the typed
  error; a request whose every breaker is open is a placement with no
  device;
- every shard runs on the **thread that needs its result**: a whole
  placement, and shard 0 of a split, on the thread that called
  ``run``; each other shard of a ``k``-way split on one of ``k - 1``
  threads started for the request, which adopt the caller's tracer
  and have all finished when ``run`` returns its result.

A stint holds its device's run lock, waited for no longer than the
deadline, so a device runs one stint at a time.  The shard books each
stint's end on its device, and its success closes it (under the pool
lock).  A request that gives up — on an error on any of its threads,
or at its deadline — closes all its shards; the attempt loop and the
device's books check the shard before every attempt and every launch,
so a closed shard is skipped if it has not started and stops at its
next launch boundary if it has.  Placement only *reads* breaker
state; the pool has no retry, breaker or floor logic of its own.

A pool is built from its ``profiles`` and their ``fault_plans``; each
other setting has one home, the part that reads it —
``devices[i].breaker`` (a default
:class:`~repro.serve.breaker.CircuitBreaker`), ``planner`` (a default
:class:`ShardPlanner`), ``placer`` (a default :class:`Placer`) and
``retries`` (:data:`RETRIES`).  A caller that needs another swaps the
attribute before its first request.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.values import Value
from ..errors import DeadlineExceeded, DeviceFault, DeviceOOM, KernelTimeout
from ..gpu.costmodel import (
    CostReport, memo_insert, request_price_us, size_env_from_args,
)
from ..gpu.device import DeviceProfile
from ..gpu.faults import FaultPlan
from ..gpu.heap import DeviceHeap
from ..obs import get_tracer, thread_tracing
from ..runtime import ExecutionPolicy, RunReport, run_resilient
from ..serve.breaker import BreakerState, CircuitBreaker
from .placer import Placer, Plan
from .shard import BatchInfo, Shard, ShardPlanner, merge_results, slice_args

__all__ = ["PoolDevice", "DevicePool"]

#: Error classes that indicate *device* trouble (worth re-placing on
#: another device), as opposed to program errors or the request's own
#: deadline.
_DEVICE_ERRORS = (DeviceFault, DeviceOOM, KernelTimeout)

#: Retries after a stint's first attempt on its device, before the
#: shard is re-placed (or leaves the devices).
RETRIES = 2


class _Cancelled(Exception):
    """Raised at a launch boundary of a shard that is closed: no one
    wants its result any more.  Not a ``ReproError``, so the attempt
    loop neither retries it nor lets it count against the device's
    breaker."""


def _wait_s(deadline) -> float:
    """How long a thread may block for a device or a shard: until
    ``deadline``; without one, as long as a wait can be (its caller
    waits again)."""
    left = math.inf if deadline is None else deadline.remaining_us() / 1e6
    return min(max(0.0, left), threading.TIMEOUT_MAX)


class _Shard:
    """One shard of a request (a whole placement is one), and both the
    ``placement`` and the ``deadline`` :func:`repro.runtime.run_resilient`
    runs it under.  ``closed`` is set once, under the pool lock: by the
    shard's own success, which leaves its ``result``, or by a request
    that gives up."""

    def __init__(
        self, pool: "DevicePool", rows: Shard, run_id: str,
        args: Sequence[Value], ran_on: str, shared: Dict[str, Any],
        key: Optional[str], deadline, price,
    ) -> None:
        self.pool = pool
        self.rows = rows
        self.run_id = run_id
        self.args = args
        #: ``"caller"`` on the thread that called ``run``, ``"split"``
        #: on one started for a shard of a split.
        self.ran_on = ran_on
        #: What every shard of the request hands ``run_resilient``:
        #: host, core, policy, entry, pass_timings.
        self.shared = shared
        self.key = key
        self.deadline = deadline
        #: The request's memoised ``price(device_id, rows)``.
        self.price = price
        #: The current stint's device, booked at ``est_us``; None
        #: between stints.
        self.device: Optional[PoolDevice] = None
        self.est_us = 0.0
        self.tried: set = set()
        self.replacements = 0
        self.closed = False
        #: ``(values, cost, report)``, once won; ``won_on`` is the
        #: winning stint's device (None: the interpreter floor's).
        self.result: Optional[Tuple[Any, CostReport, RunReport]] = None
        self.won_on: Optional[int] = None
        self.sim_us = 0.0
        self.wall_s = 0.0
        #: When the run lock was taken (trace µs, wall s); None while
        #: the shard holds none.
        self._started: Optional[Tuple[float, float]] = None

    # -- the deadline run_resilient checks ---------------------------------

    def check(self, where: str) -> None:
        if self.closed:
            raise _Cancelled(where)
        if self.deadline is not None:
            self.deadline.check(where)

    def remaining_us(self) -> float:
        if self.deadline is None:
            return math.inf
        return self.deadline.remaining_us()

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired

    # -- the placement run_resilient asks for devices ----------------------

    def book(self, dev: Optional[PoolDevice]) -> None:
        """Book the shard on ``dev`` (None: no device admitted it) at
        the price the placer computed for its rows there."""
        if dev is None:
            return
        self.device = dev
        self.tried.add(dev.id)
        # An unpriceable program still runs, just without a
        # meaningful estimate.
        self.est_us = self.price(dev.id, self.rows.size) or 0.0
        dev.book(self.est_us)

    def next(self, error) -> Optional["PoolDevice"]:
        """End the stint that gave up with ``error`` (None: before the
        first, there is none) and hand over the next device, its run
        lock held: first the booked one, then, after a device error,
        a healthy device the shard has not tried.  None when there is
        none; :class:`DeadlineExceeded` when the deadline passes while
        it waits for the device's run lock."""
        if error is not None:
            failed = self.device
            self._end(type(error).__name__)
            if self.closed:
                raise _Cancelled(self.run_id)  # the request gave up
            new = (
                self.pool._admit(None, self.tried)
                if isinstance(error, _DEVICE_ERRORS) else None
            )
            if new is None:
                return None
            self.replacements += 1
            with self.pool._lock:
                self.pool.counters["replacements"] += 1
            get_tracer().instant(
                "shard-replaced", "sched", run_id=self.run_id,
                shard=self.rows.index, failed_device=failed.id,
                new_device=new.id,
            )
            self.book(new)
        return self._take()

    def _take(self) -> Optional["PoolDevice"]:
        """Wait for the booked device's run lock, no longer than the
        deadline.  A shard that is closed, or whose deadline passes
        first, is skipped, having touched neither the device nor its
        breaker."""
        dev = self.device
        if dev is None:
            return None
        acquire = dev.run_lock.acquire
        while not (locked := acquire(timeout=_wait_s(self.deadline))):
            if self.closed or self.expired:
                break
        if locked and not self.closed:
            self._started = (get_tracer().now_us(), time.monotonic())
            return dev
        if locked:
            dev.run_lock.release()
        self.device = None
        dev.settle(self.est_us)
        with self.pool._lock:
            self.pool.counters["cancelled_before_start"] += 1
        where = f"{self.run_id} waiting for {dev.trace_track}"
        if self.closed:
            raise _Cancelled(where)
        raise DeadlineExceeded(where)

    def _end(self, outcome: str) -> None:
        """Book the end of the current stint on its device and give its
        run lock back: ``"ok"``, ``"cancelled"`` (stopped at a launch
        boundary: it says nothing about the device) or the class of
        the error that ended it."""
        dev, self.device = self.device, None
        tracer = get_tracer()
        (started_us, started_s), self._started = self._started, None
        self.wall_s = time.monotonic() - started_s
        tracer.complete(
            f"shard#{self.rows.index}", "sched", ts_us=started_us,
            dur_us=tracer.now_us() - started_us, track=dev.trace_track,
            run_id=self.run_id, device=dev.id, profile=dev.profile.name,
            rows=f"[{self.rows.lo}:{self.rows.hi})", ran_on=self.ran_on,
            outcome=outcome, sim_us=self.sim_us,
        )
        dev.settle(self.est_us)
        with dev.lock:
            if outcome == "ok":
                dev.executed += 1
                dev.busy_us += self.sim_us
                if self.key is not None:
                    dev.seen_keys.add(self.key)
            elif outcome != "cancelled":
                dev.failures += 1
        with self.pool._lock:
            self.pool.counters["shards_executed"] += 1
            if outcome == "cancelled":
                self.pool.counters["stopped_mid_flight"] += 1
        dev.run_lock.release()

    # -- running it ---------------------------------------------------------

    def run(self) -> None:
        """Run the shard on this thread until it ends: won (its
        ``result`` set, unless the request gave up meanwhile), or
        stopped because the request gave up.  Any other error — a
        program error, the deadline, or the device error with the
        floor off — is raised."""
        try:
            values, cost, report = run_resilient(
                args=self.args, device=None, run_id=self.run_id,
                deadline=self, placement=self, **self.shared,
            )
        except BaseException as e:
            cancelled = isinstance(e, _Cancelled)
            if self._started is not None:
                self._end("cancelled" if cancelled else type(e).__name__)
            elif self.device is not None:  # booked, never started
                self.device.settle(self.est_us)
                self.device = None
            if not cancelled:
                raise
            return
        won_on = self.device
        if won_on is not None:
            self.sim_us = cost.total_us
            self._end("ok")
        with self.pool._lock:
            if not self.closed:
                self.closed = True
                self.result = (values, cost, report)
                self.won_on = won_on.id if won_on is not None else None

    def record(self) -> Dict[str, Any]:
        """The shard's entry in ``placement["shards"]``."""
        rows = self.rows
        return dict(
            index=rows.index, lo=rows.lo, hi=rows.hi, device=self.won_on,
            sim_us=self.sim_us, wall_s=self.wall_s,
            replacements=self.replacements,
        )


class PoolDevice:
    """One simulated device and its scheduling state."""

    def __init__(
        self,
        dev_id: int,
        profile: DeviceProfile,
        breaker: CircuitBreaker,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.id = dev_id
        self.profile = profile
        self.breaker = breaker
        self.fault_plan = fault_plan
        #: Persistent across requests: per-run stats are folded into
        #: ``heap.lifetime`` at the start of every run.
        self.heap = DeviceHeap(profile.memory_bytes)
        #: Compile-cache keys this device has executed (the placer's
        #: program-affinity signal).
        self.seen_keys: set = set()
        #: Estimated simulated work waiting or in flight, µs.
        self.backlog_us = 0.0
        #: Stints behind ``backlog_us`` (waiting for the run lock or
        #: running).
        self.queued = 0
        #: Cumulative simulated execution time of completed work, µs.
        self.busy_us = 0.0
        self.executed = 0
        self.failures = 0
        #: Held for a whole stint: one run per heap at a time.
        self.run_lock = threading.Lock()
        self.lock = threading.Lock()
        self.trace_track = f"gpu.dev{dev_id}"
        self.metric_prefix = f"gpu.dev{dev_id}"

    def book(self, est_us: float) -> None:
        """Add one stint's estimate to the backlog."""
        with self.lock:
            self.queued += 1
            self.backlog_us += est_us

    def settle(self, est_us: float) -> None:
        """Take a finished or skipped stint's estimate back off.  A
        drained device reads exactly 0.0: float residue must not order
        it before or after an idle one."""
        with self.lock:
            self.queued -= 1
            self.backlog_us = (
                max(0.0, self.backlog_us - est_us) if self.queued else 0.0
            )

    def snapshot(self) -> Dict[str, Any]:
        with self.lock:
            backlog_us = self.backlog_us
            busy_us = self.busy_us
            executed = self.executed
            failures = self.failures
            seen = len(self.seen_keys)
        life = self.heap.lifetime
        return {
            "id": self.id,
            "profile": self.profile.name,
            "breaker": self.breaker.snapshot(),
            "executed": executed,
            "failures": failures,
            "busy_us": busy_us,
            "backlog_us": backlog_us,
            "programs_seen": seen,
            "heap_lifetime": {
                "runs": life.runs,
                "alloc_count": life.alloc_count,
                "reuse_count": life.reuse_count,
                "total_alloc_bytes": life.total_alloc_bytes,
                "peak_bytes": life.peak_bytes,
            },
        }




class DevicePool:
    """N simulated devices behind one placement/sharding scheduler."""

    def __init__(
        self,
        profiles: Sequence[DeviceProfile],
        fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
    ) -> None:
        if not profiles:
            raise ValueError("a device pool needs at least one device")
        if fault_plans is not None and len(fault_plans) != len(profiles):
            raise ValueError(
                "fault_plans must align with profiles "
                f"({len(fault_plans)} vs {len(profiles)})"
            )
        self.devices: List[PoolDevice] = [
            PoolDevice(
                i,
                profile,
                CircuitBreaker(f"dev{i}"),
                fault_plans[i] if fault_plans is not None else None,
            )
            for i, profile in enumerate(profiles)
        ]
        self.name = f"pool({len(self.devices)} devices)"
        self.planner = ShardPlanner()
        self.placer = Placer()
        self.retries = RETRIES
        self.counters: Dict[str, int] = {
            "requests": 0,
            "sharded": 0,
            "whole": 0,
            "shards_executed": 0,
            "cancelled_before_start": 0,
            "stopped_mid_flight": 0,
            "replacements": 0,
        }
        self._lock = threading.Lock()

    # Harness shims: a pool owns no thread, so there is nothing to
    # start or stop; benchmarks/e2e/probes.py still calls both.

    def start(self) -> "DevicePool":
        return self

    def stop(self) -> None:
        pass

    # -- placement helpers --------------------------------------------------

    def _healthy(self) -> List[PoolDevice]:
        """Devices whose breaker is not OPEN.  A read, not a claim:
        admission (and the half-open probe slot) belongs to the attempt
        loop that runs the stint."""
        return [
            d
            for d in self.devices
            if d.breaker.state is not BreakerState.OPEN
        ]

    def _admit(
        self,
        preferred: Optional[int],
        tried: set,
    ) -> Optional[PoolDevice]:
        """Choose a device for a shard's stint: the preferred one if
        healthy, else the least-backlogged healthy device not yet tried
        for this shard.  (Should its breaker refuse after all, the
        stint ends as a transient fault and the shard is re-placed.)"""
        if preferred is not None and preferred not in tried:
            dev = self.devices[preferred]
            if dev.breaker.state is not BreakerState.OPEN:
                return dev
        healthy = [d for d in self._healthy() if d.id not in tried]
        return min(healthy, key=lambda d: (d.backlog_us, d.id), default=None)

    def _place(
        self, host, healthy, size_env, batch, batch_info, key, price
    ) -> Tuple[Plan, List[Dict[str, Any]], Dict[str, Any]]:
        """The placer's verdict for one request — the chosen plan, the
        candidate records and ``placement["decision"]``, fresh objects
        every call — memoised on the host program
        (``HostProgram.placements``) under everything
        :meth:`Placer.plan` reads, the batch dimension included."""
        planner = self.planner if batch_info is not None else None
        state = []
        for d in healthy:
            with d.lock:
                affinity = key is not None and key in d.seen_keys
                state.append((d.id, d.profile, d.backlog_us, affinity))
        memo_key = (
            self.placer, planner,
            None if planner is None else planner.min_shard,
            None if batch_info is None else batch_info.dim,
            tuple(sorted(size_env.items())), batch, tuple(state),
        )
        candidates = [
            {
                "device": i,
                "profile": profile.name,
                "backlog_us": backlog,
                "affinity": affinity,
                "launch_overhead_us": profile.launch_overhead_us,
            }
            for i, profile, backlog, affinity in state
        ]
        verdict = host.placements.get(memo_key)
        if verdict is None:
            chosen, considered = self.placer.plan(
                candidates, price, batch, planner
            )
            scored = tuple((c["est_us"], c["score"]) for c in candidates)
            verdict = chosen, tuple(considered), scored
            memo_insert(host.placements, memo_key, verdict)
        else:
            chosen, considered, scored = verdict
            for c, (est, score) in zip(candidates, scored):
                c["est_us"] = est
                c["score"] = score
        decision = {
            "considered": [p.record() for p in considered],
            "chosen": chosen.record(),
        }
        return chosen, candidates, decision

    # -- the request path ---------------------------------------------------

    def run(
        self,
        host,
        core,
        args: Sequence[Value],
        *,
        executor: str,
        entry: str,
        run_id: str,
        coalescing=None,
        in_place=None,
        deadline=None,
        batch_info: Optional[BatchInfo] = None,
        key: Optional[str] = None,
        pass_timings=None,
        fallback: bool = False,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> Tuple[Tuple[Value, ...], CostReport, RunReport, Dict[str, Any]]:
        """Execute one request across the pool.

        Returns ``(values, cost, report, placement)`` where
        ``placement`` is a JSON-serialisable record of the decision
        (candidates, scores, shards, makespan) for the flight
        recorder, and ``report`` counts every attempt on every device
        the request tried.  When a shard has no device left, it ends
        on the attempt loop's interpreter floor: ``fallback`` decides
        between the interpreter's values for its rows and the
        underlying typed error.  ``size_env`` is the request's sizes
        when the caller has already bound them from ``args`` (a
        server's admission has); otherwise the pool binds them.
        ``coalescing`` and ``in_place`` are accepted and unused: the
        host program carries both decisions, and
        benchmarks/e2e/probes.py still passes them.
        """
        shared = dict(
            host=host,
            core=core,
            policy=ExecutionPolicy(
                executor=executor, fallback=fallback, max_retries=self.retries
            ),
            entry=entry,
            pass_timings=pass_timings,
        )
        healthy = self._healthy()
        if not healthy:
            # Every breaker is open: a placement with no device.
            nowhere = _Shard(
                self, Shard(0, 0, 0, -1), run_id, args, "caller", shared,
                key, deadline, None,
            )
            nowhere.run()
            return (*nowhere.result, {"mode": "refused"})
        if size_env is None:
            size_env = size_env_from_args(host, args)
        batch = (
            batch_info.batch_size(args) if batch_info is not None else 0
        )

        @functools.cache
        def price(dev_id: int, rows: int) -> Optional[float]:
            """The cost model's price of ``rows`` of the batch on one
            device (None for a program it cannot price), memoised: a
            shard is booked at the price the placer weighed."""
            env = size_env
            if batch_info is not None and rows != batch:
                env = {**size_env, batch_info.dim: rows}
            return request_price_us(host, env, self.devices[dev_id].profile)

        chosen, candidates, decision = self._place(
            host, healthy, size_env, batch, batch_info, key, price
        )
        sharded = len(chosen.shards) > 1
        with self._lock:
            self.counters["requests"] += 1
            self.counters["sharded" if sharded else "whole"] += 1
        shards = [
            _Shard(
                self, rows,
                f"{run_id}/s{rows.index}" if sharded else run_id,
                slice_args(args, batch_info, rows.lo, rows.hi)
                if sharded else args,
                "split" if rows.index else "caller",
                shared, key, deadline, price,
            )
            for rows in chosen.shards
        ]
        for shard in shards:
            shard.book(self._admit(shard.rows.device_id, set()))
        self._run_plan(shards, deadline, run_id)
        placement: Dict[str, Any] = {
            "mode": "sharded" if sharded else "whole",
            "batch_dim": batch_info.dim if batch_info is not None else None,
            "batch": batch if batch_info is not None else None,
            "candidates": candidates,
            "decision": decision,
            "skipped_open": [
                d.id for d in self.devices if d not in healthy
            ],
            "shards": [shard.record() for shard in shards],
            "makespan_us": 0.0,
            "replacements": sum(s.replacements for s in shards),
        }
        if not sharded:
            # A whole placement answers with its one run's values,
            # cost and report.
            (shard,) = shards
            placement["makespan_us"] = shard.sim_us
            return (*shard.result, placement)
        # Every shard has its result: merge in shard order, aggregate
        # the shards' cost/report, compute the parallel makespan.
        cost = CostReport(self.name)
        report = RunReport(self.name, run_id=run_id, backend=executor)
        per_device_us: Dict[int, float] = {}
        for shard in shards:
            _, shard_cost, shard_report = shard.result
            cost.merge(shard_cost)
            report.absorb(shard_report)
            if shard_report.abandoned is not None:
                # Its rows came from the floor.
                report.backend = shard_report.backend
                report.abandoned = shard_report.abandoned
            if shard.won_on is not None:
                per_device_us[shard.won_on] = (
                    per_device_us.get(shard.won_on, 0.0) + shard.sim_us
                )
        placement["makespan_us"] = max(per_device_us.values(), default=0.0)
        if pass_timings:
            report.pass_timings = list(pass_timings)
        values = merge_results(
            [shard.result[0] for shard in shards], batch_info.n_results
        )
        report.events.append(
            f"sharded over {len(shards)} devices "
            f"(batch {placement['batch']}, makespan "
            f"{placement['makespan_us']:.0f}us)"
        )
        return values, cost, report, placement

    def _run_plan(self, shards, deadline, run_id: str) -> None:
        """Run the plan's shards until each has its result.

        Shard 0 runs on this thread; each other shard of a split runs
        on a thread started for it, under this thread's tracer.  This
        thread then waits for them, no longer than the deadline.  An
        error on any of them closes every shard and is raised."""
        errors: List[BaseException] = []
        threads = [
            threading.Thread(
                target=self._run_split_shard, name=shard.run_id,
                daemon=True, args=(get_tracer(), errors, shards, shard),
            )
            for shard in shards[1:]
        ]
        for t in threads:
            t.start()
        try:
            shards[0].run()
        except BaseException:
            self._abort(shards)
            raise
        for t in threads:
            while t.is_alive():
                if deadline is not None and deadline.expired:
                    self._abort(shards)
                    late = DeadlineExceeded(f"{run_id} in the device pool")
                    late.report = RunReport(
                        self.name, run_id=run_id, deadline_exceeded=True,
                        gave_up_reason="deadline exceeded",
                    )
                    raise late
                t.join(_wait_s(deadline))
        if errors:
            raise errors[0]

    def _run_split_shard(self, tracer, errors, shards, shard) -> None:
        """:meth:`_Shard.run` on a thread started for a split: under the
        caller's tracer, its error handed back through ``errors``."""
        with thread_tracing(tracer):
            try:
                shard.run()
            except BaseException as e:
                self._abort(shards)
                errors.append(e)

    def _abort(self, shards: Sequence[_Shard]) -> None:
        """Close every shard of a request that gives up: a shard not
        yet started is skipped, a running one stops at its next launch
        boundary."""
        with self._lock:
            for shard in shards:
                shard.closed = True

    # -- health -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-serialisable snapshot for ``Server.health()``."""
        with self._lock:
            counters = dict(self.counters)
        return {
            "devices": [d.snapshot() for d in self.devices],
            "min_shard": self.planner.min_shard,
            **counters,
            # Nothing is hedged; benchmarks/e2e/probes.py still reads
            # this key.
            "hedges_launched": 0,
        }
