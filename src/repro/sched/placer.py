"""Cost-model-aware placement for the device pool.

The :class:`Placer` decides *how* a request runs on the pool — whole on
one device, or split ``k`` ways along its batch dimension — by asking
the cost model, the way the paper's flattening exploits only as much
parallelism as the hardware can absorb (§5.1) and Futhark's runtime
compares the degree of parallelism against a device threshold: a batch
that does not fill one device gains nothing from four.

Every candidate plan is priced at its own sizes on its own devices
(:func:`repro.gpu.costmodel.request_price_us` with the batch dimension
rebound to each shard's rows, the memo admission shares), scored by
least estimated completion time — a device's backlog of queued
simulated work plus the estimate, discounted by a program-affinity
bonus on devices that already executed this compile-cache key — and a
split is charged one more kernel launch on every device beyond the
first (``DeviceProfile.launch_overhead_us``: one more dispatch on one
more device).  The decision reads prices and pool state only, never a
timer, so it repeats exactly for the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .shard import Shard, ShardPlanner

__all__ = ["Plan", "Placer"]

#: The share of its estimate a device that already ran the program's
#: compile-cache key is let off when the placer scores it.
AFFINITY_BONUS = 0.15


@dataclass(frozen=True)
class Plan:
    """One way to run a request, and what the cost model predicts."""

    shards: Tuple[Shard, ...]
    #: The slowest shard's :meth:`Placer.score`, µs.
    makespan_us: float
    #: One launch on each device beyond the first, µs.
    split_cost_us: float

    @property
    def completion_us(self) -> float:
        return self.makespan_us + self.split_cost_us

    @property
    def devices(self) -> List[int]:
        return [s.device_id for s in self.shards]

    def record(self) -> Dict[str, Any]:
        """The JSON-serialisable form kept in ``placement["decision"]``."""
        return {
            "k": len(self.shards),
            "devices": self.devices,
            "makespan_us": self.makespan_us,
            "split_cost_us": self.split_cost_us,
            "completion_us": self.completion_us,
        }


class Placer:
    """Least-predicted-completion choice between whole and k-way."""

    def score(
        self, backlog_us: float, est_us: float, affinity: bool
    ) -> float:
        factor = 1.0 - (AFFINITY_BONUS if affinity else 0.0)
        return backlog_us + est_us * factor

    def _priced(self, shards, by_id, price) -> Optional[Plan]:
        """A split with its prediction: every shard priced at its own
        rows on its own device (None if the model cannot)."""
        makespan = split_cost = 0.0
        for s in shards:
            est = price(s.device_id, s.size)
            if est is None:
                return None
            c = by_id[s.device_id]
            makespan = max(
                makespan, self.score(c["backlog_us"], est, c["affinity"])
            )
            if s.index > 0:
                split_cost += c["launch_overhead_us"]
        return Plan(tuple(shards), makespan, split_cost)

    def plan(
        self,
        candidates: List[Dict[str, Any]],
        price: Callable[[int, int], Optional[float]],
        batch: int = 0,
        planner: Optional[ShardPlanner] = None,
    ) -> Tuple[Plan, List[Plan]]:
        """Pick the plan with the least predicted completion.

        Each candidate dict is one healthy device: ``device`` (id),
        ``backlog_us``, ``affinity`` and ``launch_overhead_us``; its
        ``est_us`` (the whole request there) and ``score`` are filled
        in so the decision is auditable in flight records.
        ``price(device_id, rows)`` is the cost model's price of
        ``rows`` of the batch on that device, None when it cannot
        price the program.  ``planner`` is None for a request that is
        not shardable.

        The plans considered are the request whole on each candidate
        and, for ``k = 2 … min(len(candidates), batch // min_shard)``,
        the planner's split over the ``k`` fastest candidates.  An
        unpriceable program has no evidence a split wins and is placed
        whole.  Ties go to fewer shards, then the lowest device ids.
        Returns ``(chosen, considered)``.
        """
        if not candidates:
            raise ValueError("no candidate devices")
        plans: List[Plan] = []
        priced = True
        for c in candidates:
            est = price(c["device"], batch)
            priced = priced and est is not None
            c["est_us"] = est or 0.0
            c["score"] = self.score(
                c["backlog_us"], c["est_us"], c["affinity"]
            )
            plans.append(
                Plan((Shard(0, 0, batch, c["device"]),), c["score"], 0.0)
            )
        if len(plans) == 1:
            return plans[0], plans  # one device: nothing to weigh
        if planner is not None and priced:
            by_id = {c["device"]: c for c in candidates}
            fastest = sorted(
                (
                    (c["device"], 1.0 / max(c["est_us"], 1e-9))
                    for c in candidates
                ),
                key=lambda dw: (-dw[1], dw[0]),
            )
            top = min(len(candidates), batch // planner.min_shard)
            for k in range(2, top + 1):
                split = self._priced(
                    planner.plan(batch, fastest[:k]), by_id, price
                )
                if split is not None:
                    plans.append(split)
        chosen = min(
            plans,
            key=lambda p: (p.completion_us, len(p.shards), p.devices),
        )
        return chosen, plans
