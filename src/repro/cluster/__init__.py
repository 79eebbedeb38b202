"""Sharded multi-device serving on certified shard plans.

The cluster layer stacks on :mod:`repro.serve`: ``N`` simulated
devices (each a ServeEngine + PlanCache + clock), a consistent-hash
:class:`~repro.cluster.router.ClusterRouter` placing matrices by
pattern fingerprint, certified row-block splits with
:class:`~repro.cluster.halo.HaloExchange` byte accounting, and a
resilience layer (:mod:`repro.cluster.resilience`): replicated
placement, verified failover with hedged retries, a cluster-wide
admission front door, and rebalancing on simulated device loss,
straggling and rejoin.  See ``docs/SERVING.md`` and
``docs/RESILIENCE.md`` for the semantics and
:class:`~repro.cluster.engine.ClusterEngine` for the entry point (or
``repro.serve_session(cluster=N)`` for the facade).
"""

from repro.cluster.engine import (
    ClusterEngine,
    ClusterEvent,
    SimDevice,
)
from repro.cluster.halo import HaloExchange, shard_halo_elements
from repro.cluster.resilience import (
    ClusterError,
    HedgePolicy,
    ResilienceStats,
)
from repro.cluster.router import ClusterRouter

__all__ = [
    "ClusterEngine",
    "ClusterError",
    "ClusterEvent",
    "ClusterRouter",
    "HaloExchange",
    "HedgePolicy",
    "ResilienceStats",
    "SimDevice",
    "shard_halo_elements",
]
