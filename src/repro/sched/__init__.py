"""Multi-device scheduling: shardability analysis, shard planning,
cost-model-aware placement, and the simulated device pool.

See ``DESIGN.md`` §12 for the architecture.
"""

from .placer import Placer, Plan
from .pool import DevicePool, PoolDevice
from .shard import (
    BatchInfo,
    Shard,
    ShardPlanner,
    analyze_shardable,
    merge_results,
    slice_args,
)

__all__ = [
    "BatchInfo",
    "analyze_shardable",
    "Shard",
    "ShardPlanner",
    "slice_args",
    "merge_results",
    "Placer",
    "Plan",
    "DevicePool",
    "PoolDevice",
]
