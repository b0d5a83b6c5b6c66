"""The simulated GPU: device profiles, the analytic cost model, and a
functional executor for host programs.

This package substitutes for the paper's NVIDIA GTX 780 Ti and AMD
FirePro W8100 test machines (see DESIGN.md, "Substitutions"): kernels
are timed by a roofline-style cost model over the kernel IR's memory
accesses and flops, and executed by the program's generated host
function over one accounting object and a kernel runner
(:mod:`~repro.gpu.simulator`).
"""

from .device import AMD_W8100, DeviceProfile, NVIDIA_GTX780TI  # noqa: F401
from .costmodel import CostReport, KernelCost, estimate_program  # noqa: F401
from .faults import FaultInjector, FaultPlan  # noqa: F401
from .simulator import GpuSimulator  # noqa: F401
