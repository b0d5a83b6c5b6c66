"""Device profiles for the two GPUs of the paper's evaluation.

Parameters come from the cards' public specifications plus a few
behavioural constants chosen to reflect the differences the paper
observes (notably the AMD card's higher kernel-launch overhead — called
out in the NN discussion — and its relatively slower transpositions —
called out for LocVolCalib).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import ArgumentError

__all__ = [
    "DeviceProfile",
    "NVIDIA_GTX780TI",
    "AMD_W8100",
    "SIM_SMALL",
    "PROFILES",
    "resolve_profile",
    "parse_pool_spec",
]


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    #: Achievable global-memory bandwidth, GB/s.
    bandwidth_gbs: float
    #: Peak single-precision throughput, GFLOP/s.
    peak_gflops: float
    #: Fraction of peak a straightforwardly generated kernel reaches.
    compute_efficiency: float
    #: Fixed cost of one kernel launch, microseconds.
    launch_overhead_us: float
    #: Traffic multiplier for fully uncoalesced (strided) access.
    uncoalesced_penalty: float
    #: Traffic multiplier for data-dependent gathers.
    gather_penalty: float
    #: Threads per warp/wavefront (broadcast amortisation).
    warp: int
    #: Work-group size assumed for block tiling.
    block: int
    #: Local memory is this many times faster than global.
    local_bandwidth_ratio: float
    #: Fraction of peak bandwidth achieved by transposition kernels.
    transpose_efficiency: float
    #: Minimum number of threads needed to saturate the device; below
    #: this the effective bandwidth/compute scale down linearly.
    saturation_threads: int
    #: How well hand-written time-tiled stencils work on this device —
    #: the paper observes time tiling pays off on the NVIDIA card
    #: (HotSpot) but backfires badly on the AMD one.
    time_tiling_efficiency: float = 1.0
    #: Host-side throughput for reference codes that leave work on the
    #: CPU (GFLOP/s) and PCIe transfer bandwidth (GB/s).
    host_gflops: float = 1.0
    pcie_gbs: float = 6.0
    #: Cost of one host-side statement touching device state (driver
    #: round-trip / synchronisation), microseconds.
    host_sync_us: float = 3.0
    #: Core clock, MHz — used by the observability layer to express
    #: simulated time as simulated cycles.
    clock_mhz: float = 1000.0
    #: Device-memory capacity, bytes; allocations past this raise
    #: :class:`repro.errors.DeviceOOM`.
    memory_bytes: int = 3 * 1024**3

    def mem_us_per_byte(self) -> float:
        return 1e-3 / self.bandwidth_gbs  # us per byte

    def flop_us(self) -> float:
        return 1e-3 / (self.peak_gflops * self.compute_efficiency)


NVIDIA_GTX780TI = DeviceProfile(
    name="NVIDIA GTX 780 Ti",
    bandwidth_gbs=288.0,  # ~86% of the 336 GB/s spec
    peak_gflops=5046.0,
    compute_efficiency=0.35,
    launch_overhead_us=35.0,
    uncoalesced_penalty=8.0,
    gather_penalty=6.0,
    warp=32,
    block=256,
    local_bandwidth_ratio=16.0,
    transpose_efficiency=0.55,
    saturation_threads=30_000,
    time_tiling_efficiency=0.39,
    host_sync_us=3.0,
    clock_mhz=928.0,  # boost clock of the GTX 780 Ti
    memory_bytes=3 * 1024**3,  # 3 GB GDDR5
)

AMD_W8100 = DeviceProfile(
    name="AMD FirePro W8100",
    bandwidth_gbs=270.0,  # ~84% of the 320 GB/s spec
    peak_gflops=4220.0,
    compute_efficiency=0.35,
    launch_overhead_us=60.0,  # higher launch overhead (cf. NN, §6.1)
    uncoalesced_penalty=8.0,
    gather_penalty=6.0,
    warp=64,
    block=256,
    local_bandwidth_ratio=12.0,
    transpose_efficiency=0.22,  # transposes relatively slower (§6.1)
    saturation_threads=40_000,
    time_tiling_efficiency=0.115,  # time tiling backfires (HotSpot §6.1)
    host_sync_us=30.0,  # slower host round-trips (cf. NN, §6.1)
    clock_mhz=824.0,  # engine clock of the FirePro W8100
    memory_bytes=8 * 1024**3,  # 8 GB GDDR5
)

# A deliberately weaker profile for heterogeneous-pool experiments:
# roughly half the bandwidth and compute of the GTX 780 Ti, saturating
# at far fewer threads, with a small memory.  Not a real card.
SIM_SMALL = DeviceProfile(
    name="Simulated small GPU",
    bandwidth_gbs=120.0,
    peak_gflops=2000.0,
    compute_efficiency=0.35,
    launch_overhead_us=25.0,
    uncoalesced_penalty=8.0,
    gather_penalty=6.0,
    warp=32,
    block=128,
    local_bandwidth_ratio=12.0,
    transpose_efficiency=0.45,
    saturation_threads=15_000,
    time_tiling_efficiency=0.5,
    host_sync_us=3.0,
    clock_mhz=800.0,
    memory_bytes=1 * 1024**3,  # 1 GB
)

#: Named registry used by CLI flags (``--device-profile``) and
#: heterogeneous pool specs (``--devices 2xbig,2xsmall``).
PROFILES: Dict[str, DeviceProfile] = {
    "gtx780ti": NVIDIA_GTX780TI,
    "w8100": AMD_W8100,
    "small": SIM_SMALL,
    # Convenience aliases for pool specs.
    "big": NVIDIA_GTX780TI,
}


def resolve_profile(name: str) -> DeviceProfile:
    """Look up a named profile; an unknown name is an ArgumentError."""
    key = name.strip().lower()
    if key not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ArgumentError(
            f"unknown device profile {name!r} (known: {known})"
        )
    return PROFILES[key]


def parse_pool_spec(spec: str) -> List[DeviceProfile]:
    """Parse a device-pool spec into a list of profiles.

    Accepted forms (comma-separated terms):
      - ``"4"`` — four copies of the default profile (gtx780ti)
      - ``"2xbig,2xsmall"`` — counts of named profiles
      - ``"gtx780ti,w8100"`` — one device per named profile

    An unknown profile or no device at all is an ``ArgumentError``.
    """
    profiles: List[DeviceProfile] = []
    for term in filter(None, (t.strip() for t in spec.split(","))):
        count, _, name = term.partition("x")
        if term.isdigit():
            count, name = term, "gtx780ti"
        elif not count.isdigit():
            count, name = "1", term
        profiles.extend([resolve_profile(name)] * int(count))
    if not profiles:
        raise ArgumentError(f"device-pool spec {spec!r} names no device")
    return profiles
