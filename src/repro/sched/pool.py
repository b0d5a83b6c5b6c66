"""The device pool: N simulated devices, placement, sharding, hedging.

A :class:`DevicePool` owns N heterogeneous simulated devices (a
:class:`repro.serve.Server` runs every request on one, with one server
worker per device).  Each :class:`PoolDevice` has its own serial
worker thread, run lock, persistent :class:`~repro.gpu.heap.DeviceHeap`
(lifetime-accumulating), :class:`~repro.serve.breaker.CircuitBreaker`,
optional :class:`~repro.gpu.faults.FaultPlan` (the only plan its tasks
run under), and its own observability namespace — kernel spans land on
the ``gpu.dev{id}`` trace track and metrics under ``gpu.dev{id}.*``.

:meth:`DevicePool.run` executes one request:

- the :class:`Placer` asks the cost model how to run it: whole on the
  least-estimated-completion-time device (with a program-affinity
  bonus for devices that already ran this compile key), or — for a
  **shardable** request (per :func:`repro.sched.shard.
  analyze_shardable`) whose split is predicted to finish sooner even
  after paying one more launch per extra device — ``k`` ways by the
  :class:`ShardPlanner` (weights = per-device speed from the cost
  model), executed concurrently, and merged bit-identically;
- a whole placement runs on the **caller's thread** when its device
  is idle (claimed atomically, so two callers never both take it) or
  is the only healthy one; a task for a busy device, and every shard
  of a split, goes to that device's worker;
- a task that exceeds the cost model's predicted wall time by
  :data:`HEDGE_FACTOR` gets a **hedged duplicate** on another device —
  first result wins, and the loser is cancelled: skipped if it has
  not started, stopped at its next launch boundary if it has;
- a task whose device *fails* (after the resilient executor's own
  retries) or *refuses* (its breaker is open) is re-placed on another
  healthy device; only when every device has failed or refused does
  the request leave the devices — for the interpreter floor
  (``fallback=True``) or as the typed error.

Every task runs through :meth:`DevicePool._run_task`, under its
device's run lock, with a checkpoint in its deadline's place: the
attempt loop and the device's books check it before every attempt and
every launch, so a cancelled task stops there, and the caller watches a
task it runs itself from there (it launches the hedge once due, and
stops once the hedge has won).  The pool keeps no retry or breaker
logic of its own: the task hands its device's breaker to
:func:`repro.runtime.run_resilient`, which claims and releases it
around the attempt it runs (so a task cancelled before it starts never
touches it, and one stopped part-way counts as neutral); the
coordinator only *reads* breaker state, and its floor is the loop's
own.

A pool is built from its ``profiles``, their ``fault_plans`` and a
``hedge_min_wall_s`` floor; each other setting has one home, the part
that reads it — ``devices[i].breaker`` (a default
:class:`~repro.serve.breaker.CircuitBreaker`), ``planner`` (a default
:class:`ShardPlanner`), ``placer`` (a default :class:`Placer`) and
``retries`` (:data:`RETRIES`).  A caller that needs another swaps the
attribute before the pool starts.
"""

from __future__ import annotations

import math
import queue as queue_mod
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
from ..obs import (
    get_logger,
    get_metrics,
    get_tracer,
    thread_metering,
    thread_tracing,
)
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

_log = get_logger("sched")

#: Error classes that indicate *device* trouble (worth re-placing on
#: another device), as opposed to program errors or the request's own
#: deadline.
_DEVICE_ERRORS = (DeviceFault, DeviceOOM, KernelTimeout)

#: A task is hedged once it has run this many times the wall time the
#: cost model predicts for it.
HEDGE_FACTOR = 4.0

#: Retries after a task's first attempt on its device, before the
#: task is re-placed (or the request leaves the devices).
RETRIES = 2


class _Cancelled(Exception):
    """Raised at a launch boundary of a task that has been cancelled:
    no one wants its result any more.  Not a ``ReproError``, so the
    attempt loop neither retries it nor lets it count against the
    device's breaker."""


class _Checkpoint:
    """What a task's run checks, in its request deadline's place,
    before every attempt and every kernel launch (the attempt loop and
    the device's books check a deadline there): ``poll`` first (the
    hedge monitor of a task the caller runs, which may cancel it), then
    the task's own cancel flag, then the request's deadline."""

    __slots__ = ("deadline", "cancelled", "poll")

    def __init__(self, deadline) -> None:
        self.deadline = deadline
        #: Set, never cleared, by the request's coordinator once no one
        #: wants the task's result.  A plain flag: nothing waits on it,
        #: and building a ``threading.Event`` per task was a measurable
        #: cost on the one-device serving path.
        self.cancelled = False
        self.poll = None

    def check(self, where: str) -> None:
        if self.poll is not None:
            self.poll()
        if self.cancelled:
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
    #: unchanged: host, core, policy, entry, coalescing, in_place,
    #: pass_timings.
    shared: Dict[str, Any]
    fault_plan: Optional[FaultPlan]
    est_us: float
    shard_index: int
    lo: int
    hi: int
    hedge: bool
    #: Handed to ``run_resilient`` as the task's deadline.
    checkpoint: _Checkpoint
    #: Worker outbox and adopted instruments (None on the caller's thread).
    results: "Optional[queue_mod.Queue[_Outcome]]"
    tracer: Any
    metrics: Any
    key: Optional[str] = None


@dataclass
class _Outcome:
    task: _Task
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


def _shard_record(out: _Outcome, replacements: int) -> Dict[str, Any]:
    """A winning outcome's entry in ``placement["shards"]``."""
    return {
        "index": out.task.shard_index,
        "lo": out.task.lo,
        "hi": out.task.hi,
        "device": out.device_id,
        "sim_us": out.sim_us,
        "wall_s": out.wall_s,
        "hedge_won": out.task.hedge,
        "replacements": replacements,
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
        #: Estimated simulated work queued or in flight, µs.
        self.backlog_us = 0.0
        #: Tasks behind ``backlog_us`` (queued or in flight).
        self.queued = 0
        #: Cumulative simulated execution time of completed work, µs.
        self.busy_us = 0.0
        self.executed = 0
        self.failures = 0
        #: EMA of wall seconds per simulated µs on this device — the
        #: bridge from cost-model predictions to wall-clock hedge
        #: deadlines.  None until the first completed task.
        self.wall_per_sim: Optional[float] = None
        self.queue: "queue_mod.Queue[Optional[_Task]]" = queue_mod.Queue()
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

    def claim(self, est_us: float) -> bool:
        """Book one task only if nothing is queued or running here —
        the caller then runs it itself.  Atomic: two callers never both
        find the device idle."""
        with self.lock:
            if self.queued:
                return False
            self.queued = 1
            self.backlog_us = est_us
            return True

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
            wall_per_sim = self.wall_per_sim
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
            "wall_per_sim_us": wall_per_sim,
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
        #: The wall-clock floor of a hedge budget, seconds.
        hedge_min_wall_s: float = 1.0,
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
        self.hedge_min_wall_s = hedge_min_wall_s
        self.retries = RETRIES
        self.counters: Dict[str, int] = {
            "requests": 0,
            "sharded": 0,
            "whole": 0,
            "shards_executed": 0,
            "hedges_launched": 0,
            "hedges_won": 0,
            "hedges_wasted": 0,
            "cancelled_before_start": 0,
            "stopped_mid_flight": 0,
            "replacements": 0,
        }
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "DevicePool":
        with self._lock:
            if self._started:
                return self
            self._started = True
        for dev in self.devices:
            t = threading.Thread(
                target=self._worker,
                args=(dev,),
                name=f"repro-sched-dev{dev.id}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        _log.info("pool-start", devices=len(self.devices))
        return self

    def stop(self, timeout: float = 10.0) -> None:
        with self._lock:
            if not self._started:
                return
            self._started = False
        for dev in self.devices:
            dev.queue.put(None)
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads.clear()
        _log.info("pool-stop")

    def __enter__(self) -> "DevicePool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the device workers -------------------------------------------------

    def _worker(self, dev: PoolDevice) -> None:
        while True:
            task = dev.queue.get()
            if task is None:
                return
            # Adopt the submitting request's ambient instruments so shard
            # spans and gpu.dev{id}.* metrics land in that request's
            # flight record, not whatever this worker saw last.
            with thread_tracing(task.tracer), thread_metering(task.metrics):
                task.results.put(self._run_task(dev, task))

    def _run_task(self, dev: PoolDevice, task: _Task) -> _Outcome:
        """Run one booked task on ``dev`` — the only code that does, on
        the device's worker thread or on the caller's."""
        with dev.run_lock:
            if task.checkpoint.cancelled:
                with self._lock:
                    self.counters["cancelled_before_start"] += 1
                dev.settle(task.est_us)
                return _Outcome(task, dev.id, cancelled=True)
            outcome = self._execute(dev, task)
            self._record(dev, task, outcome)
        return outcome

    def _execute(self, dev: PoolDevice, task: _Task) -> _Outcome:
        outcome = _Outcome(task, dev.id)
        t0 = time.monotonic()
        with get_tracer().span(
            f"shard#{task.shard_index}" + (" (hedge)" if task.hedge else ""),
            "sched",
            track=dev.trace_track,
            run_id=task.run_id,
            device=dev.id,
            profile=dev.profile.name,
            rows=f"[{task.lo}:{task.hi})",
            ran_on="caller" if task.results is None else "worker",
        ) as span:
            try:
                outcome.values, outcome.cost, outcome.report = run_resilient(
                    args=task.args,
                    device=dev.profile,
                    fault_plan=task.fault_plan,
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
        dev.settle(task.est_us)
        with dev.lock:
            if outcome.cancelled:
                pass  # stopped part-way: says nothing about the device
            elif outcome.error is None:
                dev.executed += 1
                dev.busy_us += outcome.sim_us
                if task.key is not None:
                    dev.seen_keys.add(task.key)
                if outcome.sim_us > 0:
                    obs = outcome.wall_s / outcome.sim_us
                    dev.wall_per_sim = (
                        obs
                        if dev.wall_per_sim is None
                        else 0.5 * dev.wall_per_sim + 0.5 * obs
                    )
            else:
                dev.failures += 1
        with self._lock:
            self.counters["shards_executed"] += 1
            if outcome.cancelled:
                self.counters["stopped_mid_flight"] += 1

    # -- placement helpers --------------------------------------------------

    def _healthy(self) -> List[PoolDevice]:
        """Devices whose breaker is not OPEN.  A read, not a claim:
        admission (and the half-open probe slot) belongs to the attempt
        loop on the device's own thread."""
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

    def _hedge_budget_s(self, dev: PoolDevice, est_us: float) -> float:
        """How long a task on ``dev`` may run (wall clock) before a
        hedged duplicate is launched: the cost model's predicted time,
        converted with the device's observed wall-per-simulated-µs
        rate, times :data:`HEDGE_FACTOR` — floored so cold pools and
        tiny requests don't hedge spuriously."""
        with dev.lock:
            rate = dev.wall_per_sim
        if rate is None or est_us <= 0.0:
            return self.hedge_min_wall_s
        return max(est_us * rate * HEDGE_FACTOR, self.hedge_min_wall_s)

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
        coalescing: bool = True,
        in_place: bool = True,
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
        (candidates, scores, shards, hedges, makespan) for the flight
        recorder.  When every device has failed or refused, the
        request ends on :func:`repro.runtime.interpreter_floor`:
        ``fallback`` decides between the interpreter's values and the
        underlying typed error.  ``size_env`` is the request's sizes
        when the caller has already bound them from ``args`` (a
        server's admission has); otherwise the pool binds them.
        """
        if not self._started:
            self.start()

        def floor(error, placement):
            report = RunReport(self.name, run_id=run_id)
            if getattr(error, "report", None) is not None:
                report.absorb(error.report)
            if pass_timings:
                report.pass_timings = list(pass_timings)
            values, cost = interpreter_floor(
                core, args, report, error,
                executor=executor, fallback=fallback, entry=entry,
                in_place=in_place, deadline=deadline,
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
            return request_price_us(
                host, env, self.devices[dev_id].profile, coalescing
            )

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
            "hedges_launched": 0,
            "hedges_won": 0,
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
            coalescing=coalescing,
            in_place=in_place,
            pass_timings=pass_timings,
        )
        try:
            values, cost, report = self._run_plan(
                shards,
                placement,
                price,
                shared,
                args=args,
                run_id=run_id,
                deadline=deadline,
                batch_info=batch_info if sharded else None,
                key=key,
                alone=len(healthy) == 1,
            )
        except (DeadlineExceeded, *_DEVICE_ERRORS) as e:
            return floor(e, placement)
        return values, cost, report, placement

    def _run_plan(
        self,
        shards: Sequence[Shard],
        placement: Dict[str, Any],
        price,
        shared: Dict[str, Any],
        *,
        args,
        run_id,
        deadline,
        batch_info,
        key,
        alone: bool,
    ) -> Tuple[Tuple[Value, ...], CostReport, RunReport]:
        """Run the plan's tasks until every shard has a winner.

        A whole placement runs on the caller's thread when its device
        is idle (claimed atomically) or is the only healthy one; every
        other task goes to its device's worker.  The caller watches its
        own task from the task's checkpoint: at each launch boundary it
        launches the hedge once due and stops once the hedge has won.
        Whatever is still open when the task returns — a re-placement
        after a device error, a hedge in flight — goes on in the
        coordinator loop below."""
        #: The workers' outbox, made with the first task one is handed.
        results: "Optional[queue_mod.Queue[_Outcome]]" = None

        def make_task(
            shard: Shard, dev: PoolDevice, hedge: bool
        ) -> _Task:
            if batch_info is not None:
                task_args = slice_args(args, batch_info, shard.lo, shard.hi)
                suffix = f"/s{shard.index}" + ("h" if hedge else "")
            else:
                task_args = args
                suffix = "/h" if hedge else ""
            return _Task(
                run_id=f"{run_id}{suffix}",
                args=task_args,
                shared=shared,
                fault_plan=dev.fault_plan,
                # An unpriceable program still runs, just without a
                # meaningful estimate.
                est_us=price(dev.id, shard.size) or 0.0,
                shard_index=shard.index,
                lo=shard.lo,
                hi=shard.hi,
                hedge=hedge,
                checkpoint=_Checkpoint(deadline),
                results=None,
                tracer=None,
                metrics=None,
                key=key,
            )

        def submit(dev: PoolDevice, task: _Task) -> None:
            """Book ``task`` on ``dev`` and queue it for the worker, with
            this request's outbox and instruments."""
            nonlocal results
            if results is None:
                results = queue_mod.Queue()
            task.results = results
            task.tracer, task.metrics = get_tracer(), get_metrics()
            dev.book(task.est_us)
            dev.queue.put(task)

        # Per-shard coordination state.
        state: Dict[int, Dict[str, Any]] = {}
        inline: Optional[_Task] = None
        for shard in shards:
            dev = self._admit(shard.device_id, set())
            if dev is None:
                self._abort(state)
                raise DeviceFault(
                    "breaker", "no device admitted the request",
                    transient=True,
                )
            task = make_task(shard, dev, hedge=False)
            state[shard.index] = {
                "shard": shard,
                "done": False,
                "outcome": None,
                "tasks": [task],
                "tried": {dev.id},
                "hedged": False,
                # (Nothing to hedge on with one healthy device.)
                "hedge_at": math.inf if alone else time.monotonic()
                + self._hedge_budget_s(dev, task.est_us),
                "replacements": 0,
            }
            if len(shards) > 1:
                submit(dev, task)
            elif alone:
                # No other device: wait for this one's run lock here.
                dev.book(task.est_us)
                inline = task
            elif dev.claim(task.est_us):
                inline = task
            else:
                submit(dev, task)
        pending = len(shards)

        def take(out: _Outcome) -> None:
            """Settle one finished task's outcome into its shard."""
            nonlocal pending
            st = state[out.task.shard_index]
            if out.cancelled:
                pass  # accounted by the device
            elif st["done"]:
                # A duplicate finishing after the shard's winner.
                if out.error is None:
                    with self._lock:
                        self.counters["hedges_wasted"] += 1
            elif out.error is None:
                st["done"] = True
                st["outcome"] = out
                pending -= 1
                if out.task.hedge:
                    with self._lock:
                        self.counters["hedges_won"] += 1
                    placement["hedges_won"] += 1
                for t in st["tasks"]:
                    if t is not out.task:
                        t.checkpoint.cancelled = True
            elif isinstance(out.error, _DEVICE_ERRORS):
                # Re-place the shard on another healthy device; the
                # error only propagates when every device failed.
                replacement = self._admit(None, st["tried"])
                if replacement is None:
                    self._abort(state)
                    raise out.error
                st["tried"].add(replacement.id)
                st["replacements"] += 1
                with self._lock:
                    self.counters["replacements"] += 1
                placement["replacements"] += 1
                task = make_task(
                    st["shard"], replacement, hedge=out.task.hedge
                )
                st["tasks"].append(task)
                submit(replacement, task)
                _log.debug(
                    "shard-replaced",
                    run_id=run_id,
                    shard=out.task.shard_index,
                    failed_device=out.device_id,
                    new_device=replacement.id,
                )
            else:
                # Deadline or program error: identical everywhere.
                self._abort(state)
                raise out.error

        def launch_hedge(st: Dict[str, Any]) -> None:
            """Straggler mitigation: one duplicate of a shard past its
            hedge deadline, on a device it has not tried."""
            dev = self._admit(None, st["tried"])
            st["hedged"] = True  # one hedge per shard, tops
            if dev is None:
                return
            st["tried"].add(dev.id)
            hedge_task = make_task(st["shard"], dev, hedge=True)
            st["tasks"].append(hedge_task)
            with self._lock:
                self.counters["hedges_launched"] += 1
            placement["hedges_launched"] += 1
            submit(dev, hedge_task)
            _log.debug(
                "hedge-launched",
                run_id=run_id,
                shard=st["shard"].index,
                device=dev.id,
            )

        if inline is not None:
            (st,) = state.values()
            early: List[_Outcome] = []

            def drain() -> None:
                """Take in the hedge's outcome: once it has won, the
                caller's own run stops at its next launch."""
                while results is not None:
                    try:
                        got = results.get_nowait()
                    except queue_mod.Empty:
                        return
                    early.append(got)
                    if got.error is None and not got.cancelled:
                        inline.checkpoint.cancelled = True

            def poll() -> None:
                if not st["hedged"]:
                    if time.monotonic() >= st["hedge_at"]:
                        launch_hedge(st)
                else:
                    drain()

            if not alone:
                inline.checkpoint.poll = poll
            out = self._run_task(dev, inline)  # the one shard's device
            inline.checkpoint.poll = None  # drop the task → poll → task cycle
            drain()  # a hedge that finished first wins
            early.append(out)
            # Wins first: a failure that lands after one leaves nothing
            # to re-place.
            for got in sorted(early, key=lambda o: o.error is not None):
                take(got)

        while pending > 0:
            if deadline is not None and deadline.expired:
                self._abort(state)
                raise DeadlineExceeded(f"{run_id} in the device pool")
            now = time.monotonic()
            next_hedge = min(
                (
                    st["hedge_at"]
                    for st in state.values()
                    if not st["done"] and not st["hedged"]
                ),
                default=now + 0.5,
            )
            timeout = min(max(next_hedge - now, 0.01), 0.5)
            try:
                take(results.get(timeout=timeout))
            except queue_mod.Empty:
                pass
            now = time.monotonic()
            for st in state.values():
                if not (st["done"] or st["hedged"] or now < st["hedge_at"]):
                    launch_hedge(st)

        if len(shards) == 1:
            # A whole placement answers with its winning run's own
            # values, cost and report.
            (st,) = state.values()
            out = st["outcome"]
            placement["shards"].append(
                _shard_record(out, st["replacements"])
            )
            placement["makespan_us"] = out.sim_us
            return out.values, out.cost, out.report
        # Every shard has a winner: merge in shard order, aggregate the
        # winning outcomes' cost/report, compute the parallel makespan.
        ordered = [state[s.index]["outcome"] for s in shards]
        cost = CostReport(self.name)
        report = RunReport(
            self.name, run_id=run_id, backend=shared["policy"].executor
        )
        per_device_us: Dict[int, float] = {}
        for out in ordered:
            cost.merge(out.cost)
            report.absorb(out.report)
            per_device_us[out.device_id] = (
                per_device_us.get(out.device_id, 0.0) + out.sim_us
            )
            placement["shards"].append(
                _shard_record(
                    out, state[out.task.shard_index]["replacements"]
                )
            )
        placement["makespan_us"] = max(per_device_us.values(), default=0.0)
        if shared["pass_timings"]:
            report.pass_timings = list(shared["pass_timings"])
        values = merge_results(
            [out.values for out in ordered], batch_info.n_results
        )
        report.events.append(
            f"sharded over {len(shards)} devices "
            f"(batch {placement['batch']}, makespan "
            f"{placement['makespan_us']:.0f}us)"
        )
        return values, cost, report

    def _abort(self, state: Dict[int, Dict[str, Any]]) -> None:
        """Cancel everything still outstanding for this request (tasks
        not yet started are skipped; running ones stop at their next
        launch boundary)."""
        for st in state.values():
            for t in st["tasks"]:
                t.checkpoint.cancelled = True

    # -- health -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-serialisable snapshot for ``Server.health()``."""
        with self._lock:
            counters = dict(self.counters)
        return {
            "devices": [d.snapshot() for d in self.devices],
            "min_shard": self.planner.min_shard,
            "hedge_factor": HEDGE_FACTOR,
            **counters,
        }
