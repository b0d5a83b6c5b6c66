"""The device pool: N simulated devices, placement, sharding.

A :class:`DevicePool` owns N heterogeneous simulated devices (a
:class:`repro.serve.Server` runs every request on one) and no thread.
Each :class:`PoolDevice` has its own run lock, persistent
:class:`~repro.gpu.heap.DeviceHeap`
(lifetime-accumulating), :class:`~repro.serve.breaker.CircuitBreaker`,
optional :class:`~repro.gpu.faults.FaultPlan` (the only plan its tasks
run under), and its own observability namespace — kernel spans land on
the ``gpu.dev{id}`` trace track, and their metrics fold under
``gpu.dev{id}.*``.

:meth:`DevicePool.run` executes one request:

- the :class:`Placer` asks the cost model how to run it: whole on the
  least-estimated-completion-time device (with a program-affinity
  bonus for devices that already ran this compile key), or — for a
  **shardable** request (per :func:`repro.sched.shard.
  analyze_shardable`) whose split is predicted to finish sooner even
  after paying one more launch per extra device — ``k`` ways by the
  :class:`ShardPlanner` (weights = per-device speed from the cost
  model), executed concurrently, and merged bit-identically;
- every task runs on the **thread that needs its result**: a whole
  placement, and shard 0 of a split, on the thread that called
  ``run``; each other shard of a ``k``-way split on one of ``k - 1``
  threads started for the request, which adopt the caller's tracer
  and have all finished when ``run`` returns its result.  A task
  waits for its device's run lock, but no longer than its deadline;
- a task whose device *fails* (after the resilient executor's own
  retries) or *refuses* (its breaker is open) is re-placed, by the
  same thread, on another healthy device; only when every device has
  failed or refused does the request leave the devices — for the
  interpreter floor (``fallback=True``) or as the typed error.

A shard has one live task at a time, run by one loop
(:meth:`DevicePool._run_shard`): the next task is launched only after
the last one failed on its device.  Every task runs through
:meth:`DevicePool._run_task`, under its device's run lock, and its
success closes its shard (:meth:`DevicePool._record`, under the pool
lock).  A request that gives up — on an error on any of its threads,
or at its deadline — closes all its shards.  Each task has a
checkpoint in its deadline's place, which the attempt loop and the
device's books check before every attempt and every launch: a task of
a closed shard is skipped if it has not started and stops at its next
launch boundary if it has.  The pool keeps no retry or breaker logic
of its own: the task hands its device's breaker to
:func:`repro.runtime.run_resilient`, which claims and releases it
around the attempt it runs (so a task skipped before it starts never
touches it, and one stopped part-way counts as neutral); placement
only *reads* breaker state, and its floor is the loop's own.

A pool is built from its ``profiles`` and their ``fault_plans``; each
other setting has one home, the part that reads it —
``devices[i].breaker`` (a default
:class:`~repro.serve.breaker.CircuitBreaker`), ``planner`` (a default
:class:`ShardPlanner`), ``placer`` (a default :class:`Placer`) and
``retries`` (:data:`RETRIES`).  A caller that needs another swaps the
attribute before its first request.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.values import Value
from ..errors import DeadlineExceeded, DeviceFault, DeviceOOM, KernelTimeout
from ..gpu.costmodel import CostReport, request_price_us, size_env_from_args
from ..gpu.device import DeviceProfile
from ..gpu.faults import FaultPlan
from ..gpu.heap import DeviceHeap
from ..obs import get_tracer, thread_tracing
from ..runtime import (
    ExecutionPolicy,
    RunReport,
    interpreter_floor,
    run_resilient,
)
from ..serve.breaker import BreakerState, CircuitBreaker
from .placer import Placer
from .shard import BatchInfo, Shard, ShardPlanner, merge_results, slice_args

__all__ = ["PoolDevice", "DevicePool"]

#: Error classes that indicate *device* trouble (worth re-placing on
#: another device), as opposed to program errors or the request's own
#: deadline.
_DEVICE_ERRORS = (DeviceFault, DeviceOOM, KernelTimeout)

#: Retries after a task's first attempt on its device, before the
#: task is re-placed (or the request leaves the devices).
RETRIES = 2


class _Cancelled(Exception):
    """Raised at a launch boundary of a task whose shard is closed:
    no one wants its result any more.  Not a ``ReproError``, so the
    attempt loop neither retries it nor lets it count against the
    device's breaker."""


class _ShardState:
    """One shard of a request: the devices tried, the replacement
    count, and — set once, under the pool lock, by the task that
    finishes the shard — the ``closed`` flag and the winning outcome.
    A request that gives up closes its shards without a winner.  Every
    task of the shard points here."""

    __slots__ = ("shard", "tried", "replacements", "closed", "winner")

    def __init__(self, shard: Shard, dev_id: int) -> None:
        self.shard = shard
        self.tried = {dev_id}
        self.replacements = 0
        self.closed = False
        self.winner: Optional[_Outcome] = None


class _Checkpoint:
    """What a task's run checks, in its request deadline's place,
    before every attempt and every kernel launch (the attempt loop and
    the device's books check a deadline there): whether its shard is
    closed, then the request's deadline."""

    __slots__ = ("deadline", "state")

    def __init__(self, deadline, state: _ShardState) -> None:
        self.deadline = deadline
        self.state = state

    def check(self, where: str) -> None:
        if self.state.closed:
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


@dataclass
class _Task:
    """One unit of device work: a whole request or one shard of it."""

    run_id: str
    args: Sequence[Value]
    #: What every task of the request hands ``run_resilient``
    #: unchanged: host, core, policy, entry, pass_timings.
    shared: Dict[str, Any]
    est_us: float
    #: Handed to ``run_resilient`` as the task's deadline; its
    #: ``state`` is the task's shard.
    checkpoint: _Checkpoint
    key: Optional[str] = None
    #: ``"caller"`` on the thread that called ``run``, ``"split"`` on
    #: one started for a shard of a split (the shard span says which).
    ran_on: str = "caller"


@dataclass
class _Outcome:
    """How one task ran.  It does not point back at its task: a
    shard's winner is held by the shard, which its tasks point at, and
    that cycle would keep every request's values alive until the
    cyclic garbage collector ran."""

    device_id: int
    values: Optional[Tuple[Value, ...]] = None
    cost: Optional[CostReport] = None
    report: Optional[RunReport] = None
    error: Optional[BaseException] = None
    #: Skipped before its start, or stopped at a launch boundary.
    cancelled: bool = False
    wall_s: float = 0.0
    #: ``cost.total_us`` of a successful run.
    sim_us: float = 0.0


def _wait_s(deadline) -> float:
    """How long a thread may block for a device or a shard: until
    ``deadline``; without one, as long as a wait can be (its caller
    waits again)."""
    left = math.inf if deadline is None else deadline.remaining_us() / 1e6
    return min(max(0.0, left), threading.TIMEOUT_MAX)


def _shard_record(st: _ShardState) -> Dict[str, Any]:
    """A shard's entry in ``placement["shards"]``: its winner's."""
    out = st.winner
    return {
        "index": st.shard.index,
        "lo": st.shard.lo,
        "hi": st.shard.hi,
        "device": out.device_id,
        "sim_us": out.sim_us,
        "wall_s": out.wall_s,
        "replacements": st.replacements,
    }


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
        #: Tasks behind ``backlog_us`` (waiting for the run lock or
        #: running).
        self.queued = 0
        #: Cumulative simulated execution time of completed work, µs.
        self.busy_us = 0.0
        self.executed = 0
        self.failures = 0
        #: Held for a whole task on any thread: one run per heap at a time.
        self.run_lock = threading.Lock()
        self.lock = threading.Lock()
        self.trace_track = f"gpu.dev{dev_id}"
        self.metric_prefix = f"gpu.dev{dev_id}"

    def book(self, est_us: float) -> None:
        """Add one task's estimate to the backlog."""
        with self.lock:
            self.queued += 1
            self.backlog_us += est_us

    def settle(self, est_us: float) -> None:
        """Take a finished or cancelled task's estimate back off.  A
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

    # -- running a task -----------------------------------------------------

    def _run_task(self, dev: PoolDevice, task: _Task) -> _Outcome:
        """Run one booked task on ``dev`` — the only code that does — on
        the thread that needs its result, once the device's run lock is
        free.  The wait ends with the task's deadline: a task whose
        deadline passes first is skipped with :class:`DeadlineExceeded`,
        having touched neither the device nor its breaker."""
        cp, acquire = task.checkpoint, dev.run_lock.acquire
        while not (locked := acquire(timeout=_wait_s(cp.deadline))):
            if cp.state.closed or cp.expired:
                break
        try:
            if locked and not cp.state.closed:
                outcome = self._execute(dev, task)
                self._record(dev, task, outcome)
                return outcome
        finally:
            if locked:
                dev.run_lock.release()
        # Skipped before its start: its shard is closed, or its
        # deadline passed while it waited.
        dev.settle(task.est_us)
        with self._lock:
            self.counters["cancelled_before_start"] += 1
        where = f"{task.run_id} waiting for {dev.trace_track}"
        late = None if cp.state.closed else DeadlineExceeded(where)
        return _Outcome(dev.id, error=late, cancelled=True)

    def _execute(self, dev: PoolDevice, task: _Task) -> _Outcome:
        outcome = _Outcome(dev.id)
        shard = task.checkpoint.state.shard
        t0 = time.monotonic()
        with get_tracer().span(
            f"shard#{shard.index}",
            "sched",
            track=dev.trace_track,
            run_id=task.run_id,
            device=dev.id,
            profile=dev.profile.name,
            rows=f"[{shard.lo}:{shard.hi})",
            ran_on=task.ran_on,
        ) as span:
            try:
                outcome.values, outcome.cost, outcome.report = run_resilient(
                    args=task.args,
                    device=dev.profile,
                    fault_plan=dev.fault_plan,
                    run_id=task.run_id,
                    pool_device=dev,
                    breaker=dev.breaker,
                    deadline=task.checkpoint,
                    **task.shared,
                )
                outcome.sim_us = outcome.cost.total_us
                span.set(outcome="ok", sim_us=outcome.sim_us)
            except _Cancelled:
                outcome.cancelled = True
                span.set(outcome="cancelled")
            except BaseException as e:
                outcome.error = e
                span.set(outcome=type(e).__name__)
        outcome.wall_s = time.monotonic() - t0
        return outcome

    def _record(
        self, dev: PoolDevice, task: _Task, outcome: _Outcome
    ) -> None:
        """Book a finished run on its device and into its shard: a
        success closes the shard and wins it, unless the request has
        already given up."""
        dev.settle(task.est_us)
        with dev.lock:
            if outcome.cancelled:
                pass  # stopped part-way: says nothing about the device
            elif outcome.error is None:
                dev.executed += 1
                dev.busy_us += outcome.sim_us
                if task.key is not None:
                    dev.seen_keys.add(task.key)
            else:
                dev.failures += 1
        st = task.checkpoint.state
        with self._lock:
            self.counters["shards_executed"] += 1
            if outcome.cancelled:
                self.counters["stopped_mid_flight"] += 1
            elif outcome.error is not None:
                pass  # for the shard's loop: re-place it or give up
            elif not st.closed:
                st.closed, st.winner = True, outcome

    # -- placement helpers --------------------------------------------------

    def _healthy(self) -> List[PoolDevice]:
        """Devices whose breaker is not OPEN.  A read, not a claim:
        admission (and the half-open probe slot) belongs to the attempt
        loop that runs the task."""
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
        """Choose a device for one task: the preferred one if healthy,
        else the least-backlogged healthy device not yet tried for this
        shard.  (Should its breaker refuse after all, the task comes
        back as a transient fault and is re-placed.)"""
        if preferred is not None and preferred not in tried:
            dev = self.devices[preferred]
            if dev.breaker.state is not BreakerState.OPEN:
                return dev
        healthy = [d for d in self._healthy() if d.id not in tried]
        return min(healthy, key=lambda d: (d.backlog_us, d.id), default=None)

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
        recorder.  When every device has failed or refused, the
        request ends on :func:`repro.runtime.interpreter_floor`:
        ``fallback`` decides between the interpreter's values and the
        underlying typed error.  ``size_env`` is the request's sizes
        when the caller has already bound them from ``args`` (a
        server's admission has); otherwise the pool binds them.
        ``coalescing`` and ``in_place`` are accepted and unused: the
        host program carries both decisions, and
        benchmarks/e2e/probes.py still passes them.
        """
        def floor(error, placement):
            report = RunReport(self.name, run_id=run_id)
            if getattr(error, "report", None) is not None:
                report.absorb(error.report)
            if pass_timings:
                report.pass_timings = list(pass_timings)
            values, cost = interpreter_floor(
                host, core, args, report, error,
                executor=executor, fallback=fallback, entry=entry,
                deadline=deadline,
            )
            return values, cost, report, placement

        healthy = self._healthy()
        if not healthy:
            return floor(
                DeviceFault(
                    "breaker", "all device breakers open", transient=True
                ),
                {"mode": "refused"},
            )
        if size_env is None:
            size_env = size_env_from_args(host, args)
        batch = (
            batch_info.batch_size(args) if batch_info is not None else 0
        )

        def price(dev_id: int, rows: int) -> Optional[float]:
            """The cost model's price of ``rows`` of the batch on one
            device: the request's sizes with the batch dimension
            rebound.  None for a program it cannot price."""
            env = size_env
            if batch_info is not None and rows != batch:
                env = {**size_env, batch_info.dim: rows}
            return request_price_us(host, env, self.devices[dev_id].profile)

        candidates: List[Dict[str, Any]] = []
        for d in healthy:
            with d.lock:
                backlog = d.backlog_us
                affinity = key is not None and key in d.seen_keys
            candidates.append(
                {
                    "device": d.id,
                    "profile": d.profile.name,
                    "backlog_us": backlog,
                    "affinity": affinity,
                    "launch_overhead_us": d.profile.launch_overhead_us,
                }
            )
        chosen, considered = self.placer.plan(
            candidates,
            price,
            batch,
            self.planner if batch_info is not None else None,
        )
        shards = chosen.shards
        sharded = len(shards) > 1
        with self._lock:
            self.counters["requests"] += 1
            self.counters["sharded" if sharded else "whole"] += 1
        placement: Dict[str, Any] = {
            "mode": "sharded" if sharded else "whole",
            "batch_dim": batch_info.dim if batch_info is not None else None,
            "batch": batch if batch_info is not None else None,
            "candidates": candidates,
            "decision": {
                "considered": [p.record() for p in considered],
                "chosen": chosen.record(),
            },
            "skipped_open": [
                d.id for d in self.devices if d not in healthy
            ],
            "shards": [],
            "makespan_us": 0.0,
            "replacements": 0,
        }
        shared = dict(
            host=host,
            core=core,
            # Never the floor per device: another device may still
            # serve the shard, and the request's floor is above.
            policy=ExecutionPolicy(
                executor=executor, fallback=False, max_retries=self.retries
            ),
            entry=entry,
            pass_timings=pass_timings,
        )

        def make_task(st: _ShardState, dev: PoolDevice) -> _Task:
            shard = st.shard
            if sharded:
                task_args = slice_args(args, batch_info, shard.lo, shard.hi)
                suffix = f"/s{shard.index}"
            else:
                task_args = args
                suffix = ""
            return _Task(
                run_id=f"{run_id}{suffix}",
                args=task_args,
                shared=shared,
                # An unpriceable program still runs, just without a
                # meaningful estimate.
                est_us=price(dev.id, shard.size) or 0.0,
                checkpoint=_Checkpoint(deadline, st),
                key=key,
                ran_on="caller" if shard is shards[0] else "split",
            )

        try:
            states = self._run_plan(
                shards, make_task, placement, deadline, run_id
            )
        except (DeadlineExceeded, *_DEVICE_ERRORS) as e:
            return floor(e, placement)
        if not sharded:
            # A whole placement answers with its winning run's own
            # values, cost and report.
            (st,) = states
            out = st.winner
            placement["shards"].append(_shard_record(st))
            placement["makespan_us"] = out.sim_us
            return out.values, out.cost, out.report, placement
        # Every shard has a winner: merge in shard order, aggregate the
        # winning outcomes' cost/report, compute the parallel makespan.
        cost = CostReport(self.name)
        report = RunReport(self.name, run_id=run_id, backend=executor)
        per_device_us: Dict[int, float] = {}
        for st in states:
            out = st.winner
            cost.merge(out.cost)
            report.absorb(out.report)
            per_device_us[out.device_id] = (
                per_device_us.get(out.device_id, 0.0) + out.sim_us
            )
            placement["shards"].append(_shard_record(st))
        placement["makespan_us"] = max(per_device_us.values(), default=0.0)
        if pass_timings:
            report.pass_timings = list(pass_timings)
        values = merge_results(
            [st.winner.values for st in states], batch_info.n_results
        )
        report.events.append(
            f"sharded over {len(shards)} devices "
            f"(batch {placement['batch']}, makespan "
            f"{placement['makespan_us']:.0f}us)"
        )
        return values, cost, report, placement

    def _run_plan(
        self, shards, make_task, placement, deadline, run_id
    ) -> List[_ShardState]:
        """Run the plan's shards until each has a winner; their states.

        Shard 0 runs on this thread; each other shard of a split runs
        on a thread started for it, under this thread's tracer.  This
        thread then waits for them, no longer than the deadline."""
        devs = [self._admit(shard.device_id, set()) for shard in shards]
        if None in devs:
            raise DeviceFault(
                "breaker", "no device admitted the request", transient=True
            )
        runs = [
            (dev, make_task(_ShardState(shard, dev.id), dev))
            for shard, dev in zip(shards, devs)
        ]
        for dev, task in runs:
            dev.book(task.est_us)
        states = [task.checkpoint.state for _, task in runs]
        shard_loop = (make_task, states, placement, run_id)
        errors: List[BaseException] = []
        threads = [
            threading.Thread(
                target=self._run_split_shard, name=task.run_id, daemon=True,
                args=(get_tracer(), errors, dev, task, *shard_loop),
            )
            for dev, task in runs[1:]
        ]
        for t in threads:
            t.start()
        self._run_shard(*runs[0], *shard_loop)
        for t in threads:
            while t.is_alive():
                if deadline is not None and deadline.expired:
                    self._abort(states)
                    raise DeadlineExceeded(f"{run_id} in the device pool")
                t.join(_wait_s(deadline))
        if errors:
            raise errors[0]
        return states

    def _run_shard(
        self, dev: PoolDevice, task: _Task, make_task, states, placement,
        run_id: str,
    ) -> None:
        """Run one shard on this thread until it is closed: its booked
        ``task`` on ``dev``, then, after each device error, a new task on
        a healthy device the shard has not tried.  Any other error
        (deadline or program: identical everywhere), or a device error
        with no device left, closes every shard of the request and is
        raised."""
        st = task.checkpoint.state
        while True:
            out = self._run_task(dev, task)
            if st.closed:
                return  # won here, or the request gave up
            device_error = isinstance(out.error, _DEVICE_ERRORS)
            new = self._admit(None, st.tried) if device_error else None
            if new is None:
                self._abort(states)
                raise out.error
            st.tried.add(new.id)
            st.replacements += 1
            with self._lock:
                self.counters["replacements"] += 1
                placement["replacements"] += 1
            get_tracer().instant(
                "shard-replaced", "sched", run_id=run_id,
                shard=st.shard.index, failed_device=out.device_id,
                new_device=new.id,
            )
            dev, task = new, make_task(st, new)
            dev.book(task.est_us)

    def _run_split_shard(self, tracer, errors, *shard_loop) -> None:
        """:meth:`_run_shard` on a thread started for a split: under
        the caller's tracer, its error handed back through ``errors``."""
        with thread_tracing(tracer):
            try:
                self._run_shard(*shard_loop)
            except BaseException as e:
                errors.append(e)

    def _abort(self, states: Sequence[_ShardState]) -> None:
        """Close every shard of a request that gives up: its tasks not
        yet started are skipped, running ones stop at their next launch
        boundary."""
        with self._lock:
            for st in states:
                st.closed = True

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
