"""``repro.cluster`` — the sharded multi-OSD layer.

Modules:

- :mod:`repro.cluster.placement` — rendezvous (HRW) placement primitives;
- :mod:`repro.cluster.map` — the epoch-versioned :class:`ClusterMap`;
- :mod:`repro.cluster.service` — :class:`ShardServer` + the in-process
  :class:`ClusterService` harness;
- :mod:`repro.cluster.router` — the map-driven :class:`RouterClient` with
  class-differentiated cross-shard redundancy and degraded reads;
- :mod:`repro.cluster.supervisor` — shard condemn / re-home, booked in the
  :class:`~repro.core.supervisor.DurabilityLedger`.

Only the placement/map layer is imported eagerly: the heavier modules
(which import ``repro.net``) resolve lazily via ``__getattr__``, so
importing the placement/map layer does not pull in the socket stack.
"""

from __future__ import annotations

from repro.cluster.map import (
    ClusterMap,
    ClusterMapError,
    ShardInfo,
    ShardState,
    fragment_object_id,
    is_fragment,
    parent_of_fragment,
)
from repro.cluster.placement import rank_shards, rendezvous_score

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClusterMap",
    "ClusterMapError",
    "ClusterService",
    "ClusterSupervisor",
    "RehomeReport",
    "RouterClient",
    "RouterStats",
    "ShardHealth",
    "ShardHealthMonitor",
    "ShardHealthPolicy",
    "ShardInfo",
    "ShardProbe",
    "ShardServer",
    "ShardState",
    "ShardTransition",
    "fragment_object_id",
    "is_fragment",
    "parent_of_fragment",
    "rank_shards",
    "rendezvous_score",
]

_LAZY = {
    "BreakerPolicy": "repro.cluster.breaker",
    "CircuitBreaker": "repro.cluster.breaker",
    "CircuitOpenError": "repro.cluster.breaker",
    "ClusterService": "repro.cluster.service",
    "ShardServer": "repro.cluster.service",
    "RouterClient": "repro.cluster.router",
    "RouterStats": "repro.cluster.router",
    "ClusterSupervisor": "repro.cluster.supervisor",
    "RehomeReport": "repro.cluster.supervisor",
    "ShardHealth": "repro.cluster.health",
    "ShardHealthMonitor": "repro.cluster.health",
    "ShardHealthPolicy": "repro.cluster.health",
    "ShardProbe": "repro.cluster.health",
    "ShardTransition": "repro.cluster.health",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.cluster' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
