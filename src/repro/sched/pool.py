"""The device pool: N simulated devices, placement, sharding, hedging.

A :class:`DevicePool` owns N heterogeneous simulated devices (a
:class:`repro.serve.Server` runs every request on one, with one server
worker per device).  Each :class:`PoolDevice` has its own serial
worker thread, run lock, persistent :class:`~repro.gpu.heap.DeviceHeap`
(lifetime-accumulating), :class:`~repro.serve.breaker.CircuitBreaker`,
optional :class:`~repro.gpu.faults.FaultPlan` (the only plan its tasks
run under), and its own observability namespace — kernel spans land on
the ``gpu.dev{id}`` trace track and metrics under ``gpu.dev{id}.*``.

:meth:`DevicePool.run` executes one request — with one healthy device,
whole on it and on the caller's thread.  Otherwise:

- the :class:`Placer` asks the cost model how to run it: whole on the
  least-estimated-completion-time device (with a program-affinity
  bonus for devices that already ran this compile key), or — for a
  **shardable** request (per :func:`repro.sched.shard.
  analyze_shardable`) whose split is predicted to finish sooner even
  after paying one more launch per extra device — ``k`` ways by the
  :class:`ShardPlanner` (weights = per-device speed from the cost
  model), executed concurrently, and merged bit-identically;
- a shard that exceeds the cost model's predicted wall time by
  :data:`HEDGE_FACTOR` gets a **hedged duplicate** on another device —
  first result wins, the loser is cancelled (before start) or
  discarded (mid-flight), with explicit accounting;
- a shard whose device *fails* (after the resilient executor's own
  retries) or *refuses* (its breaker is open) is re-placed on another
  healthy device; only when every device has failed or refused does
  the request leave the devices — for the interpreter floor
  (``fallback=True``) or as the typed error.

Either way a task runs through :meth:`DevicePool._run_task`, under its
device's run lock.  The pool keeps no retry or breaker logic of its
own: the task hands its device's breaker to
:func:`repro.runtime.run_resilient`, which claims and releases it
around the attempt it runs (so a task cancelled before it starts never
touches it); the coordinator only *reads* breaker state, and its floor
is the loop's own.

A pool is built from its ``profiles``, their ``fault_plans`` and a
``hedge_min_wall_s`` floor; each other setting has one home, the part
that reads it — ``devices[i].breaker`` (a default
:class:`~repro.serve.breaker.CircuitBreaker`), ``planner`` (a default
:class:`ShardPlanner`), ``placer`` (a default :class:`Placer`) and
``retries`` (:data:`RETRIES`).  A caller that needs another swaps the
attribute before the pool starts.
"""

from __future__ import annotations

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

#: The cancel event of a task the caller runs at once on its own thread.
_NEVER_CANCELLED = threading.Event()


@dataclass
class _Task:
    """One unit of device work: a whole request or one shard of it."""

    run_id: str
    args: Sequence[Value]
    #: What every task of the request hands ``run_resilient``
    #: unchanged: host, core, policy, entry, deadline, coalescing,
    #: in_place, pass_timings.
    shared: Dict[str, Any]
    fault_plan: Optional[FaultPlan]
    est_us: float
    shard_index: int
    lo: int
    hi: int
    hedge: bool
    cancel: threading.Event
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
            if task.cancel.is_set():
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
        ) as span:
            try:
                outcome.values, outcome.cost, outcome.report = run_resilient(
                    args=task.args,
                    device=dev.profile,
                    fault_plan=task.fault_plan,
                    run_id=task.run_id,
                    pool_device=dev,
                    breaker=dev.breaker,
                    **task.shared,
                )
                outcome.sim_us = outcome.cost.total_us
                span.set(outcome="ok", sim_us=outcome.sim_us)
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
            if outcome.error is None:
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
        healthy = [d for d in self._healthy() if d.id not in tried]
        return min(
            healthy,
            key=lambda d: (d.id != preferred, d.backlog_us, d.id),
            default=None,
        )

    def _submit(self, dev: PoolDevice, task: _Task) -> None:
        dev.book(task.est_us)
        dev.queue.put(task)

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
            deadline=deadline,
            coalescing=coalescing,
            in_place=in_place,
            pass_timings=pass_timings,
        )
        run = self._run_alone if len(healthy) == 1 else self._run_shards
        try:
            values, cost, report = run(
                shards,
                placement,
                price,
                shared,
                args=args,
                run_id=run_id,
                batch_info=batch_info if sharded else None,
                key=key,
            )
        except (DeadlineExceeded, *_DEVICE_ERRORS) as e:
            return floor(e, placement)
        return values, cost, report, placement

    def _run_alone(
        self, shards, placement, price, shared, *, args, run_id,
        batch_info, key,
    ) -> Tuple[Tuple[Value, ...], CostReport, RunReport]:
        """The one shard on the one healthy device, on the caller's
        thread: no hedge or re-placement, so no result queue, shard state
        or merge — the run's own values, cost and report are returned,
        even if the deadline expired after its last launch."""
        (shard,) = shards
        dev = self.devices[shard.device_id]
        est_us = placement["candidates"][0]["est_us"]
        task = _Task(
            run_id, args, shared, dev.fault_plan,
            est_us, shard.index, shard.lo, shard.hi, False,
            _NEVER_CANCELLED, None, None, None, key,
        )
        dev.book(est_us)
        out = self._run_task(dev, task)
        if out.error is not None:
            raise out.error
        placement["shards"].append(_shard_record(out, replacements=0))
        placement["makespan_us"] = out.sim_us
        return out.values, out.cost, out.report

    def _run_shards(
        self,
        shards: Sequence[Shard],
        placement: Dict[str, Any],
        price,
        shared: Dict[str, Any],
        *,
        args,
        run_id,
        batch_info,
        key,
    ) -> Tuple[Tuple[Value, ...], CostReport, RunReport]:
        results: "queue_mod.Queue[_Outcome]" = queue_mod.Queue()
        tracer, metrics = get_tracer(), get_metrics()
        deadline, pass_timings = shared["deadline"], shared["pass_timings"]

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
                cancel=threading.Event(),
                results=results,
                tracer=tracer,
                metrics=metrics,
                key=key,
            )

        # Per-shard coordination state.
        state: Dict[int, Dict[str, Any]] = {}
        for shard in shards:
            dev = self._admit(shard.device_id, set())
            if dev is None:
                self._abort(state)
                raise DeviceFault(
                    "breaker", "no device admitted the request",
                    transient=True,
                )
            task = make_task(shard, dev, hedge=False)
            st = {
                "shard": shard,
                "done": False,
                "outcome": None,
                "tasks": [task],
                "tried": {dev.id},
                "hedged": False,
                "hedge_at": time.monotonic()
                + self._hedge_budget_s(dev, task.est_us),
                "replacements": 0,
            }
            state[shard.index] = st
            self._submit(dev, task)
        pending = len(shards)

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
                out = results.get(timeout=timeout)
            except queue_mod.Empty:
                out = None
            if out is not None:
                st = state[out.task.shard_index]
                if out.cancelled:
                    pass  # accounted by the worker
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
                            t.cancel.set()
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
                    self._submit(replacement, task)
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
            # Straggler mitigation: any shard past its hedge deadline
            # gets one duplicate on a different device.
            now = time.monotonic()
            for st in state.values():
                if st["done"] or st["hedged"] or now < st["hedge_at"]:
                    continue
                dev = self._admit(None, st["tried"])
                st["hedged"] = True  # one hedge per shard, tops
                if dev is None:
                    continue
                st["tried"].add(dev.id)
                hedge_task = make_task(st["shard"], dev, hedge=True)
                st["tasks"].append(hedge_task)
                with self._lock:
                    self.counters["hedges_launched"] += 1
                placement["hedges_launched"] += 1
                self._submit(dev, hedge_task)
                _log.debug(
                    "hedge-launched",
                    run_id=run_id,
                    shard=st["shard"].index,
                    device=dev.id,
                )

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
        if pass_timings:
            report.pass_timings = list(pass_timings)
        if batch_info is not None:
            values = merge_results(
                [out.values for out in ordered], batch_info.n_results
            )
            report.events.append(
                f"sharded over {len(shards)} devices "
                f"(batch {placement['batch']}, makespan "
                f"{placement['makespan_us']:.0f}us)"
            )
        else:
            values = ordered[0].values
        return values, cost, report

    def _abort(self, state: Dict[int, Dict[str, Any]]) -> None:
        """Cancel everything still outstanding for this request (tasks
        not yet started are skipped by their worker; mid-flight tasks
        finish and are discarded)."""
        for st in state.values():
            for t in st["tasks"]:
                t.cancel.set()

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
