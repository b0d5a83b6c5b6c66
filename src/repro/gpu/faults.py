"""Seeded fault injection for the simulated GPU.

A :class:`FaultPlan` is a frozen, seeded description of *how unreliable
the device should be*: per-launch probabilities of launch failures,
memory faults and watchdog timeouts, the odds that an injected device
fault is fatal rather than transient, and how long a transient
condition persists before it clears.

The plan itself is pure configuration; :meth:`FaultPlan.injector`
builds the stateful :class:`FaultInjector` the simulator consults at
every kernel launch.  The injector is deterministic: the same plan
always produces the same fault sequence, which is what makes chaos
tests reproducible across CI runs.

Transient conditions are modelled per *site* (kernel name): a site
faults at most ``max_consecutive`` times, after which the condition is
considered cleared and the site never faults again within that
injector's lifetime.  This mirrors real transient faults (a thermal
glitch, an evicted TLB entry) and guarantees that a retry loop with a
sufficiently large budget — or the interpreter fallback behind it —
always reaches a correct result.

A plan belongs to a device: a served pool takes one per device
(``Server(fault_plans=[...])``, aligned with ``devices``).
:func:`chaos_plans` and :func:`broken_device` are the two recipes the
chaos suites and ``serve-bench --chaos`` use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..errors import DeviceFault

__all__ = ["FaultPlan", "FaultInjector", "chaos_plans", "broken_device"]

#: Simulated-time slowdown applied to a kernel chosen for a watchdog
#: timeout (must comfortably exceed the simulator's watchdog factor
#: *and* its floor, even for microsecond kernels).
TIMEOUT_SLOWDOWN = 1000.0


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of injected device unreliability.

    All rates are per kernel launch and drawn from one deterministic
    stream seeded with ``seed``.
    """

    seed: int = 0
    #: Probability a kernel launch fails outright.
    launch_failure_rate: float = 0.0
    #: Probability a launch suffers a memory fault (corrupted
    #: transfer / device buffer).
    memory_fault_rate: float = 0.0
    #: Probability a kernel runs away and trips the watchdog.
    timeout_rate: float = 0.0
    #: Probability an injected device fault is fatal (not retryable)
    #: rather than transient.
    fatal_rate: float = 0.0
    #: A transient condition at one site clears after this many
    #: consecutive injections.
    max_consecutive: int = 2

    def injector(self) -> "FaultInjector":
        """A fresh, deterministic injector for one resilient execution
        (spanning all of its retry attempts)."""
        return FaultInjector(self)

    @property
    def transient_only(self) -> bool:
        return self.fatal_rate == 0.0


def chaos_plans(seed: int, n_devices: int) -> List[FaultPlan]:
    """The standard service-chaos recipe, one plan per device: the same
    transient rates everywhere, and device ``i`` seeded
    ``seed + 1_000_003 * i`` so no two devices fault on the same
    launches."""
    return [
        FaultPlan(
            seed=seed + 1_000_003 * i,
            launch_failure_rate=0.3,
            memory_fault_rate=0.1,
            timeout_rate=0.2,
        )
        for i in range(n_devices)
    ]


def broken_device(seed: int = 0) -> FaultPlan:
    """A device at a 100% fault rate that never clears — its breaker
    trips and every request it would have served ends on the
    interpreter floor."""
    return FaultPlan(
        seed=seed, launch_failure_rate=1.0, max_consecutive=1_000_000_000
    )


class FaultInjector:
    """The stateful half of a :class:`FaultPlan`.

    One injector lives for one resilient execution, across all retry
    attempts, so the fault stream advances between attempts and
    transient conditions eventually clear.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: Consecutive injections per (site, surface); ``-1`` marks a
        #: transient condition that cleared for good.  Device faults
        #: and watchdog timeouts are separate surfaces so each can
        #: exercise its own recovery path.
        self._burst: Dict[str, int] = {}

    # -- site bookkeeping ---------------------------------------------------

    def _may_fault(self, key: str) -> bool:
        count = self._burst.get(key, 0)
        if count < 0:  # cleared for good
            return False
        if count >= self.plan.max_consecutive:
            self._burst[key] = -1  # the transient condition cleared
            return False
        return True

    def _record(self, key: str) -> None:
        self._burst[key] = self._burst.get(key, 0) + 1

    # -- the hooks the simulator calls --------------------------------------

    def before_launch(self, site: str) -> None:
        """Called before a kernel launch; raises :class:`DeviceFault`
        when the plan injects a launch or memory fault here."""
        plan = self.plan
        draw = self._rng.random()
        fatal_draw = self._rng.random()
        key = f"{site}#device"
        if not self._may_fault(key):
            return
        if draw < plan.launch_failure_rate:
            kind, msg = "launch", f"injected launch failure at {site}"
        elif draw < plan.launch_failure_rate + plan.memory_fault_rate:
            kind, msg = "memory", f"injected memory fault at {site}"
        else:
            return
        self._record(key)
        raise DeviceFault(kind, msg, transient=fatal_draw >= plan.fatal_rate)

    def slowdown(self, site: str) -> float:
        """Simulated-time multiplier for this launch: > 1 when the plan
        makes the kernel run away (tripping the watchdog)."""
        draw = self._rng.random()
        key = f"{site}#watchdog"
        if not self._may_fault(key):
            return 1.0
        if draw < self.plan.timeout_rate:
            self._record(key)
            return TIMEOUT_SLOWDOWN
        return 1.0
