"""The bounded admission queue: backpressure and priority lanes.

Admission control is the first robustness mechanism a request meets:
a full queue sheds the request *immediately* (``offer`` returns False
and the server completes it with :class:`repro.errors.ServiceOverloaded`)
instead of letting latency grow without bound.  Under saturation the
system degrades as *shedding*, not collapse — accepted requests keep
their latency because the backlog is capped.

Two priority lanes keep small interactive requests from queueing
behind batch work: ``take`` always drains the ``interactive`` lane
first (the server classifies requests by the cost model's analytic
estimate).  Within a lane, order is FIFO.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, Optional, Tuple

__all__ = ["AdmissionQueue", "INTERACTIVE_LANE", "BATCH_LANE"]

INTERACTIVE_LANE = "interactive"
BATCH_LANE = "batch"

#: Drain order: interactive requests always preempt queued batch work.
_LANES: Tuple[str, ...] = (INTERACTIVE_LANE, BATCH_LANE)


class AdmissionQueue:
    """A bounded, closeable, multi-lane FIFO for worker threads."""

    def __init__(
        self,
        capacity: int,
        #: At most this many taken or claimed items run at once.
        slots: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._lanes: Dict[str, deque] = {lane: deque() for lane in _LANES}
        self._cv = threading.Condition()
        self._closed = False
        self._slots = float("inf") if slots is None else slots
        self._running = 0

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        with self._cv:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(len(d) for d in self._lanes.values())

    def depths(self) -> Dict[str, int]:
        """Current depth per lane."""
        with self._cv:
            return {lane: len(d) for lane, d in self._lanes.items()}

    @property
    def closed(self) -> bool:
        with self._cv:
            return self._closed

    # -- producers ----------------------------------------------------------

    def offer(self, item: Any, lane: str = BATCH_LANE) -> bool:
        """Admit ``item`` or shed it: returns False (without blocking)
        when the queue is at capacity or closed."""
        with self._cv:
            if lane not in self._lanes:
                raise ValueError(f"unknown lane {lane!r}")
            if self._closed or self._depth_locked() >= self.capacity:
                return False
            self._lanes[lane].append(item)
            self._cv.notify()
            return True

    # -- consumers ----------------------------------------------------------

    def claim(self) -> bool:
        """A slot for the caller's own item: only if open and empty."""
        with self._cv:
            busy = self._closed or self._depth_locked()
            if busy or self._running >= self._slots:
                return False
            self._running += 1
            return True

    def release(self) -> None:
        """Return a :meth:`claim`ed slot to whoever waits for one."""
        with self._cv:
            self._running -= 1
            if self._closed or self._depth_locked():
                self._cv.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no slot is held; False on timeout."""
        with self._cv:
            return self._cv.wait_for(lambda: not self._running, timeout)

    def take(
        self, timeout: Optional[float] = None, release: bool = False
    ) -> Optional[Any]:
        """Pop the next item, preferring earlier lanes; blocks up to
        ``timeout`` seconds.  Returns None on timeout or once the queue
        is closed *and* drained; ``release`` frees the last one's slot."""
        with self._cv:
            self._running -= release
            while True:
                if self._running < self._slots:
                    for lane in self._lanes.values():
                        if lane:
                            self._running += 1
                            return lane.popleft()
                if self._closed:
                    return None
                if not self._cv.wait(timeout=timeout):
                    return None

    def drain(self) -> list:
        """Remove and return everything still queued (used on shutdown
        to fail pending requests instead of stranding their callers)."""
        with self._cv:
            out = []
            for lane in self._lanes.values():
                out.extend(lane)
                lane.clear()
            return out

    def close(self) -> None:
        """Stop admitting; wake every blocked consumer."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
