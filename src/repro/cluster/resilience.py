"""Cluster resilience: replicas, verified failover, hedged retries.

This module holds the *policy and bookkeeping* of the cluster's
resilience layer; the mechanics live in
:class:`~repro.cluster.engine.ClusterEngine`:

- **Replicated placement** — every unsplit pattern gets ``replicas``
  distinct devices from the router's
  :meth:`~repro.cluster.router.ClusterRouter.successors` walk (the home
  device is always first).  Value-updates fan out to every replica's
  plan cache, and reads load-balance deterministically
  (``request id mod live replicas``), so two identical runs place every
  request identically.

- **Verified failover** — a request stranded on a dead device is
  re-dispatched to a surviving replica with deterministic backoff
  *accounting* (:meth:`~repro.resilience.policy.Policy.backoff_s`,
  never slept — the same philosophy as the single-device ladder), and
  its reported latency keeps the *original* arrival, so failover cost
  is visible in the percentiles.

- **Hedged retries** — a request whose primary replica is dead slow
  (``slow_threshold``), overloaded past a deadline-derived or absolute
  timeout, or backed up past ``queue_depth`` outstanding dispatches is
  *hedged*: a duplicate is sent to the next replicas after
  deterministic backoff, first completion wins, losers still queued are
  cancelled, and losers that did execute are digest-compared against
  the winner — a hedge can never serve a divergent ``y`` silently
  (``hedge_divergences`` must stay 0, and the chaos gate asserts it).
  Hedge copies per request are bounded by
  ``backoff.max_attempts - 1``, so total attempts never exceed the
  policy's attempts.

Every decision is a pure function of simulated state, so chaos runs
remain byte-reproducible per seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.resilience.policy import Policy

__all__ = [
    "ClusterError",
    "HedgePolicy",
    "ResilienceStats",
]


class ClusterError(ValueError):
    """A cluster-topology operation was invalid (unknown device index,
    failing an already-dead device, rejoining a live one).  Raised
    *before* any router or placement state is touched, so a bad call
    can never leave the ring half-updated."""


@dataclass(frozen=True)
class HedgePolicy:
    """When and how the cluster hedges a request to a replica.

    Parameters
    ----------
    timeout_s:
        Hedge when the primary's device is already busy past this many
        simulated seconds beyond the request's arrival (``None``
        disables the absolute-timeout trigger).
    deadline_fraction:
        Hedge when the primary's busy backlog exceeds this fraction of
        the request's relative deadline — the *deadline-derived
        timeout* (``None`` disables; requests without deadlines are
        unaffected).
    queue_depth:
        Hedge when the primary already has at least this many
        outstanding cluster dispatches (``None`` disables).  This is
        the trigger that fires inside a single dispatch epoch, where
        device clocks have not advanced yet.
    slow_threshold:
        Hedge when the primary's straggler multiplier
        (``device_slow`` chaos fault) is at or above this factor.
    backoff:
        The :class:`~repro.resilience.policy.Policy` whose
        :meth:`~repro.resilience.policy.Policy.backoff_s` prices each
        hedge copy (copy ``k`` arrives ``backoff_s(k)`` after the
        primary dispatch) and whose ``max_attempts`` bounds the total
        attempts per request (primary + hedges).
    """

    timeout_s: Optional[float] = None
    deadline_fraction: Optional[float] = 0.5
    queue_depth: Optional[int] = 8
    slow_threshold: float = 2.0
    backoff: Policy = Policy(max_attempts=2)

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ValueError(
                f"timeout_s must be >= 0, got {self.timeout_s}")
        if (self.deadline_fraction is not None
                and not 0.0 < self.deadline_fraction <= 1.0):
            raise ValueError(
                f"deadline_fraction must be in (0, 1], got "
                f"{self.deadline_fraction}")
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.slow_threshold < 1.0:
            raise ValueError(
                f"slow_threshold must be >= 1, got {self.slow_threshold}")

    @property
    def max_hedges(self) -> int:
        """Most hedge copies one request may fan out (attempts - 1)."""
        return self.backoff.max_attempts - 1


@dataclass
class ResilienceStats:
    """The cluster's resilience counters (JSON-safe via
    :meth:`to_dict`).  Every counter reconciles exactly with the obs
    events of the same name: ``failovers`` with ``cluster.failover``,
    ``hedges`` with ``cluster.hedge`` — the tests pin that."""

    #: requests re-dispatched off a dead device onto a survivor
    failovers: int = 0
    #: deterministic backoff charged to failover re-dispatches
    failover_backoff_s: float = 0.0
    #: hedge copies fanned out
    hedges: int = 0
    #: deterministic backoff charged to hedge copies
    hedge_backoff_s: float = 0.0
    #: hedged requests won by a hedge copy (not the primary)
    hedge_wins: int = 0
    #: losing copies cancelled while still queued
    hedge_cancelled: int = 0
    #: losing copies that had already executed (wasted launches)
    hedge_wasted: int = 0
    #: completed loser copies digest-verified equal to the winner
    hedge_verified: int = 0
    #: completed loser copies that *diverged* from the winner — must
    #: stay 0; the chaos gate fails the run otherwise
    hedge_divergences: int = 0
    #: value-update fan-outs to replica caches
    value_fanouts: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe counters plus the derived total backoff charge."""
        return {
            "failovers": self.failovers,
            "failover_backoff_s": self.failover_backoff_s,
            "hedges": self.hedges,
            "hedge_backoff_s": self.hedge_backoff_s,
            "hedge_wins": self.hedge_wins,
            "hedge_cancelled": self.hedge_cancelled,
            "hedge_wasted": self.hedge_wasted,
            "hedge_verified": self.hedge_verified,
            "hedge_divergences": self.hedge_divergences,
            "value_fanouts": self.value_fanouts,
            "total_backoff_s": (self.failover_backoff_s
                                + self.hedge_backoff_s),
        }


@dataclass
class _HedgeCopy:
    """One dispatched copy (primary or hedge) of a hedged request."""

    device: int
    device_rid: int
    attempt: int  # 0 = primary, k >= 1 = hedge copy k


@dataclass
class _HedgeGroup:
    """One hedged request awaiting its first completion.

    Carries enough context (the ingested matrix, x, deadline) to
    re-dispatch the whole request if every copy is lost to device
    failures.
    """

    rid: int
    fps: Any
    #: the canonical COO ``fps`` describes
    coo: Any
    x: np.ndarray
    arrival_s: float
    deadline_rel: Optional[float]
    copies: List[_HedgeCopy] = field(default_factory=list)
    #: (finish_s, device, attempt, result) of completed copies
    completed: List[Tuple[float, int, int, Any]] = field(
        default_factory=list)

    def copy_for(self, device: int, device_rid: int
                 ) -> Optional[_HedgeCopy]:
        for c in self.copies:
            if c.device == device and c.device_rid == device_rid:
                return c
        return None

    def outstanding(self) -> List[_HedgeCopy]:
        """Copies neither completed nor removed yet."""
        done = {(d, a) for _, d, a, _ in self.completed}
        return [c for c in self.copies if (c.device, c.attempt) not in done]


def result_digest(result) -> Optional[bytes]:
    """The bit-exact digest of a served result's ``y`` (whichever of
    the payload or the precomputed digest survives the engine's
    ``keep_y`` mode), or ``None`` when neither is available."""
    if result.y_digest is not None:
        return result.y_digest
    if result.y is not None:
        return hashlib.sha256(
            np.ascontiguousarray(result.y).tobytes()).digest()
    return None
