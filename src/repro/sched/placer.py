"""Cost-model-aware placement for the device pool.

The pool prices a compiled program on each candidate device profile
*at the request's actual sizes* (:func:`repro.gpu.costmodel.
request_price_us`, the memo admission shares); the :class:`Placer`
scores the candidates by least estimated completion time: the device's
current backlog of queued simulated work plus the new request's
estimate, discounted by a program-affinity bonus on devices that have
already executed this compile-cache key (warm instrument caches,
resident predictions).
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["Placer"]


class Placer:
    """Least-estimated-completion-time device choice."""

    def __init__(self, affinity_bonus: float = 0.15) -> None:
        if not 0.0 <= affinity_bonus < 1.0:
            raise ValueError("affinity_bonus must be in [0, 1)")
        self.affinity_bonus = affinity_bonus

    def score(
        self, backlog_us: float, est_us: float, affinity: bool
    ) -> float:
        factor = 1.0 - (self.affinity_bonus if affinity else 0.0)
        return backlog_us + est_us * factor

    def choose(self, candidates: List[Dict[str, Any]]) -> int:
        """Pick the least-estimated-completion-time device.

        Each candidate dict carries ``device`` (id), ``backlog_us``,
        ``est_us`` and ``affinity``; a ``score`` key is filled in on
        every candidate so the decision is auditable in flight records.
        Ties break toward the lowest device id.
        """
        if not candidates:
            raise ValueError("no candidate devices")
        for c in candidates:
            c["score"] = self.score(
                c["backlog_us"], c["est_us"], c["affinity"]
            )
        best = min(candidates, key=lambda c: (c["score"], c["device"]))
        return best["device"]
