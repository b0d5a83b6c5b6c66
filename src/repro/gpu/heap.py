"""The footprint-tracking device heap.

The simulator and the jit engine do not move real bytes around —
values live in the interpreter environment — but the *accounting* of
device memory is real: every :class:`~repro.backend.kernel_ir.AllocStmt`
charges the heap, every ``FreeStmt`` releases it, and the heap enforces
the device's :attr:`~repro.gpu.device.DeviceProfile.memory_bytes`
capacity, raising :class:`~repro.errors.DeviceOOM` on exhaustion.

The accounting is faithful to the *functional* semantics the planner
works against: every execution of an :class:`AllocStmt` produces a
fresh array value.  When a host loop re-runs an allocation while the
previous iteration's block is still live, the old generation does not
silently disappear — its bytes stay charged (an unreachable-but-never-
collected value, ``HeapStats.leaked_bytes``).  That is exactly the
naive never-free behaviour of ``--disable-pass memory-plan``: loop
footprint grows with the trip count.  The memory planner bounds it two ways:

* ``FreeStmt`` releases the current generation of a block (a free of a
  non-live name is a no-op — the block may already have been recycled
  by a reuse alloc);
* ``alloc(..., recycle=True)`` marks an allocation whose previous
  generation is provably dead (a loop-carried result consumed by the
  iteration-end double-buffer copy): the old generation is released
  instead of leaked.

``alloc(..., reuse_of=...)`` models the planner's block recycling:
when the donor block is live and at least as large, the allocation is
served from it and charges no new bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import DeviceOOM

__all__ = ["DeviceHeap", "HeapStats", "HeapLifetime"]


@dataclass
class HeapLifetime:
    """Accumulated accounting across all runs served by one heap.

    A pooled device keeps one :class:`DeviceHeap` for its whole life;
    :meth:`DeviceHeap.reset_run` folds each finished run's stats into
    this record before zeroing the per-run view.
    """

    runs: int = 0
    alloc_count: int = 0
    free_count: int = 0
    reuse_count: int = 0
    total_alloc_bytes: int = 0
    peak_bytes: int = 0


@dataclass
class HeapStats:
    """Aggregate accounting of one program run."""

    alloc_count: int = 0
    free_count: int = 0
    reuse_count: int = 0
    live_bytes: int = 0
    peak_bytes: int = 0
    total_alloc_bytes: int = 0
    #: Bytes of dead generations never released: a block re-allocated
    #: while live without ``recycle`` (the naive never-free schedule
    #: inside host loops).  Included in ``live_bytes``.
    leaked_bytes: int = 0


class DeviceHeap:
    """Byte accounting for device memory against a fixed capacity."""

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        self.capacity_bytes = capacity_bytes
        self.stats = HeapStats()
        self.lifetime = HeapLifetime()
        self._live: Dict[str, int] = {}

    def reset_run(self) -> None:
        """Start a fresh run on a persistent heap.

        Folds the finished run's stats into :attr:`lifetime`, then
        zeroes the per-run stats and drops all live blocks (a run
        leaves nothing resident between requests).
        """
        self.lifetime.runs += 1
        self.lifetime.alloc_count += self.stats.alloc_count
        self.lifetime.free_count += self.stats.free_count
        self.lifetime.reuse_count += self.stats.reuse_count
        self.lifetime.total_alloc_bytes += self.stats.total_alloc_bytes
        self.lifetime.peak_bytes = max(
            self.lifetime.peak_bytes, self.stats.peak_bytes
        )
        self.stats = HeapStats()
        self._live = {}

    # -- queries ----------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return self.stats.live_bytes

    @property
    def peak_bytes(self) -> int:
        return self.stats.peak_bytes

    def is_live(self, name: str) -> bool:
        return name in self._live

    def size_of(self, name: str) -> int:
        return self._live.get(name, 0)

    # -- mutation ---------------------------------------------------------

    def alloc(
        self,
        name: str,
        size_bytes: int,
        reuse_of: Optional[str] = None,
        recycle: bool = False,
    ) -> None:
        size_bytes = max(0, int(size_bytes))
        if name in self._live:
            if recycle:
                # The planner proved the previous generation dead
                # (e.g. consumed by the double-buffer copy).
                self._release(name)
            else:
                # Fresh functional value; the old generation is
                # unreachable but was never freed — it stays charged.
                self.stats.leaked_bytes += self._live.pop(name)
        if reuse_of is not None and reuse_of in self._live:
            donor = self._live.pop(reuse_of)
            if donor >= size_bytes:
                # Served from the recycled block: no new bytes.
                self._live[name] = donor
                self.stats.reuse_count += 1
                return
            # Donor too small (should not happen with a correct
            # planner): release it and fall through to a fresh alloc.
            self.stats.live_bytes -= donor
            self.stats.free_count += 1
        if (
            self.capacity_bytes is not None
            and self.stats.live_bytes + size_bytes > self.capacity_bytes
        ):
            raise DeviceOOM(
                block=name,
                requested_bytes=size_bytes,
                live_bytes=self.stats.live_bytes,
                capacity_bytes=self.capacity_bytes,
            )
        self._live[name] = size_bytes
        self.stats.alloc_count += 1
        self.stats.total_alloc_bytes += size_bytes
        self.stats.live_bytes += size_bytes
        self.stats.peak_bytes = max(
            self.stats.peak_bytes, self.stats.live_bytes
        )

    def free(self, name: str) -> None:
        if name in self._live:
            self._release(name)

    def _release(self, name: str) -> None:
        self.stats.live_bytes -= self._live.pop(name)
        self.stats.free_count += 1
