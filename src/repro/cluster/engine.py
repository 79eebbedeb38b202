"""The sharded multi-device serving cluster.

``N`` simulated devices — each a full
:class:`~repro.serve.engine.ServeEngine` with its own
:class:`~repro.serve.cache.PlanCache` and clock — behind one
:class:`~repro.serve.engine.Engine`-shaped facade.  The
:class:`~repro.cluster.router.ClusterRouter` places every matrix by
consistent hash over its *pattern* fingerprint; matrices at or above
``split_threshold_rows`` are split row-block across the ring's next
distinct devices, but only through a
:func:`~repro.analyze.sharding.certify_shard_plan` certificate — an
unprovable plan falls back to whole-matrix serving on the home device,
never to uncertified shard execution.  Devices share one
:class:`~repro.serve.cache.PatternStore`, so a pattern's CRSD layout is
built, its fused plans certified and its shard plan proven once
cluster-wide; every later certificate activation is a counted
cross-device reuse.

Split requests ship only the certified ``x`` halo intervals between
devices (:class:`~repro.cluster.halo.HaloExchange` accounts the bytes
as obs events); their per-shard partial results reassemble into a
``y`` that is bit-identical to the single-engine run, because the
certificate's write-disjointness prover guarantees each row is owned
by exactly one shard.

On top of sharding sits the **resilience layer**
(:mod:`repro.cluster.resilience` holds the policy objects):

- ``replicas=R`` places every unsplit pattern on ``R`` distinct
  devices (the router's successor walk, home first), fans value
  variants out to every replica's plan cache, and load-balances reads
  deterministically (``request id mod live replicas``).
- A :class:`~repro.cluster.resilience.HedgePolicy` duplicates a
  request onto further replicas when its primary is straggling,
  backed up, or would blow the deadline — first completion wins,
  queued losers are cancelled, completed losers are digest-verified
  against the winner.
- ``cluster_admission`` adds a cluster-wide front door
  (:class:`~repro.serve.admission.ClusterAdmission`) ahead of the
  per-device queues, with per-tenant fairness and
  ``shed-to-replica`` overflow.

Device chaos (:meth:`ClusterEngine.fail_device`,
:meth:`~ClusterEngine.slow_device`, :meth:`~ClusterEngine.rejoin_device`
— fault kinds shared with :mod:`repro.resilience`) cuts the one global
discrete-event loop into epochs: every live engine drains up to the
event instant, then the event applies — loss means evacuation, ring
removal, re-placement and verified failover re-dispatch (with
deterministic backoff accounting charged into the served latency);
rejoin restores the device and moves back only ring-adjacent patterns.
Completed work keeps its results, lost work is re-served, nothing is
served wrong.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.halo import HaloExchange
from repro.cluster.resilience import (
    ClusterError,
    HedgePolicy,
    ResilienceStats,
    _HedgeCopy,
    _HedgeGroup,
    result_digest,
)
from repro.cluster.router import ClusterRouter
from repro.core.serialize import Ingested, MatrixFingerprints, ingest
from repro.obs import recorder as _obs
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.resilience.faults import FAULT_KINDS
from repro.resilience.policy import Policy
from repro.serve.admission import (
    AdmissionPolicy,
    ClusterAdmission,
    ClusterAdmissionPolicy,
)
from repro.serve.batcher import BatchConfig
from repro.serve.cache import PatternStore, PlanCache
from repro.serve.clock import FOREVER
from repro.serve.engine import ServedResult, ServeEngine
from repro.validation import check_operand

__all__ = ["ClusterEngine", "ClusterEvent", "SimDevice"]


#: recognised scheduled-event actions, in no particular order —
#: simultaneous events apply in scheduling order (``seq``)
EVENT_ACTIONS = ("fail", "slow_start", "slow_end", "rejoin")


@dataclass
class ClusterEvent:
    """One scheduled chaos action on the cluster timeline."""

    action: str
    device: int
    at_s: float
    kind: str = ""       # fault taxonomy kind, for "fail"
    factor: float = 1.0  # service-time multiplier, for "slow_start"
    seq: int = 0
    applied: bool = False


@dataclass
class SimDevice:
    """One simulated device: its engine plus placement-load counters."""

    index: int
    engine: ServeEngine
    #: cluster requests currently homed here (unsplit) / shards hosted
    homed_patterns: int = 0
    #: the device died and came back with a fresh engine at least once
    rejoined: bool = False

    @property
    def alive(self) -> bool:
        return self.engine.alive

    @property
    def state(self) -> str:
        """``dead`` / ``slow`` / ``rejoined`` / ``live`` (the CLI's
        status column)."""
        if not self.alive:
            return "dead"
        if self.engine.service_scale > 1.0:
            return "slow"
        if self.rejoined:
            return "rejoined"
        return "live"


@dataclass
class _Placement:
    """Where one pattern lives right now."""

    pattern: str
    home: int
    split: bool = False
    num_shards: int = 0
    shard_devices: Tuple[int, ...] = ()
    cert: Any = None
    #: replica devices of an unsplit pattern (home first)
    replica_devices: Tuple[int, ...] = ()
    #: combined fingerprints whose values already fanned to replicas
    fanned: set = field(default_factory=set)


@dataclass
class _Inflight:
    """One dispatched split request awaiting its shard partials."""

    rid: int
    fps: MatrixFingerprints
    #: the canonical COO the fingerprints describe (ingested once)
    coo: Any
    x: np.ndarray
    arrival_s: float
    deadline_abs: Optional[float]
    specs: Tuple
    num_shards: int
    #: shard index -> device index serving it
    expected: Dict[int, int] = field(default_factory=dict)
    partials: Dict[int, ServedResult] = field(default_factory=dict)


class ClusterEngine:
    """N simulated serving devices behind the ``Engine`` protocol.

    Parameters mirror :class:`~repro.serve.engine.ServeEngine` (every
    device shares the execution configuration) plus the cluster knobs:

    ``split_threshold_rows``
        Matrices with at least this many rows are split across devices
        (``None`` — the default — never splits).
    ``split_ways``
        Shard count for split matrices (``None`` = one shard per live
        device).
    ``cache_capacity`` / ``vnodes``
        Per-device :class:`~repro.serve.cache.PlanCache` capacity and
        consistent-hash virtual nodes per device.
    ``replicas``
        Distinct devices hosting each unsplit pattern (1 = no
        replication).
    ``hedge``
        A :class:`~repro.cluster.resilience.HedgePolicy` enabling
        hedged retries to replicas (``None`` = never hedge).
    ``cluster_admission``
        A :class:`~repro.serve.admission.ClusterAdmissionPolicy`
        enabling the cluster-wide front door (``None`` = per-device
        admission only).
    ``store``
        The :class:`~repro.serve.cache.PatternStore` every device's
        plan cache shares (``None`` = a new one for this cluster).
    """

    report_schema = "repro-cluster-report/v1"

    def __init__(
        self,
        num_devices: int,
        *,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        mrows: int = 128,
        use_local_memory: bool = True,
        batch: Optional[BatchConfig] = None,
        admission: Optional[AdmissionPolicy] = None,
        prepare_cost_s: float = 0.0,
        size_scale: float = 1.0,
        keep_y=True,
        split_threshold_rows: Optional[int] = None,
        split_ways: Optional[int] = None,
        cache_capacity: int = 64,
        vnodes: int = 64,
        store: Optional[PatternStore] = None,
        replicas: int = 1,
        hedge: Optional[HedgePolicy] = None,
        cluster_admission: Optional[ClusterAdmissionPolicy] = None,
    ):
        if num_devices < 1:
            raise ValueError(
                f"num_devices must be >= 1, got {num_devices}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if hedge is not None and not isinstance(hedge, HedgePolicy):
            raise TypeError(
                f"hedge must be a HedgePolicy or None, got {hedge!r}")
        self.num_devices = int(num_devices)
        self.device_spec = device
        self.precision = precision
        self.mrows = int(mrows)
        self.use_local_memory = bool(use_local_memory)
        self.keep_y = keep_y
        self.split_threshold_rows = split_threshold_rows
        self.split_ways = split_ways
        self.replicas = int(replicas)
        self.hedge = hedge
        self.store = store if store is not None else PatternStore()
        self.router = ClusterRouter(self.num_devices, vnodes=vnodes)
        self.halo = HaloExchange(precision)
        # kept so rejoined/added devices get identically-configured
        # fresh engines
        self._batch = batch
        self._admission_policy = admission
        self._prepare_cost_s = prepare_cost_s
        self._size_scale = size_scale
        self._cache_capacity = cache_capacity
        self.devices = [SimDevice(i, self._fresh_engine())
                        for i in range(self.num_devices)]

        self.front_door = (None if cluster_admission is None
                           else ClusterAdmission(cluster_admission))
        self.resilience_stats = ResilienceStats()
        #: the backoff schedule priced into failover re-dispatches
        self._failover_policy = (hedge.backoff if hedge is not None
                                 else Policy())

        self._next_id = 0
        self._next_seq = 0
        #: (arrival, rid, fps, coo, x, deadline_rel, resilience)
        self._arrivals: List[Tuple] = []
        self._events: List[ClusterEvent] = []
        self._placements: Dict[str, _Placement] = {}
        #: (device index, device-level rid) -> cluster rid (unsplit)
        self._submap: Dict[Tuple[int, int], int] = {}
        self._inflight: Dict[int, _Inflight] = {}
        #: hedged cluster rid -> its pending group
        self._hedge_groups: Dict[int, _HedgeGroup] = {}
        #: (device index, device-level rid) -> cluster rid (hedge copy)
        self._hedge_copies: Dict[Tuple[int, int], int] = {}
        #: cluster rid -> original arrival (survives failover; served
        #: latency is always measured from here)
        self._orig_arrival: Dict[int, float] = {}
        #: cluster rid -> failover re-dispatches so far
        self._failover_attempts: Dict[int, int] = {}
        #: cluster rid -> front-door tenant (combined fingerprint)
        self._tenant_of: Dict[int, str] = {}
        #: dispatched-not-terminal requests, cluster-wide
        self._inflight_count = 0
        #: device index -> outstanding cluster dispatches (the hedge
        #: queue-depth trigger and shed-to-replica target read this)
        self._outstanding: Dict[int, int] = {}
        self.rebalances: List[Dict[str, Any]] = []
        self.split_dispatches = 0
        self.split_declines = 0
        self.results: List[ServedResult] = []

    def _fresh_engine(self) -> ServeEngine:
        return ServeEngine(
            device=self.device_spec, precision=self.precision,
            mrows=self.mrows, use_local_memory=self.use_local_memory,
            batch=self._batch, admission=self._admission_policy,
            cache=PlanCache(capacity=self._cache_capacity,
                            store=self.store),
            prepare_cost_s=self._prepare_cost_s,
            size_scale=self._size_scale, keep_y=self.keep_y)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The cluster's simulated time: the farthest device clock."""
        return max(d.engine.clock.now for d in self.devices)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix,
        x: np.ndarray,
        *,
        at: Optional[float] = None,
        deadline_s: Optional[float] = None,
        resilience=None,
    ) -> int:
        """Enqueue one request; returns its cluster-level id.

        Same contract as :meth:`ServeEngine.submit`; routing happens
        inside :meth:`run`, at the arrival instant, against the ring
        as it exists then.  The matrix is ingested (canonicalised and
        fingerprinted) and ``x`` checked
        (:func:`~repro.validation.check_operand`, NaN/Inf rejected)
        once, here, so a bad request raises before it is queued; every
        device dispatch, shard, hedge, value fan-out and failover
        re-dispatch of the request reuses both results (a whole-matrix
        dispatch enters :meth:`ServeEngine.submit`, which checks the
        float64 ``x`` again, without a copy).
        """
        coo, fps = ingest(matrix)
        x = check_operand(x, coo.ncols, dtype=np.float64, finite=True)
        arrival = self.now if at is None else max(float(at), 0.0)
        rid = self._next_id
        self._next_id += 1
        self._arrivals.append(
            (arrival, rid, fps, coo, x, deadline_s, resilience))
        return rid

    # ------------------------------------------------------------------
    # chaos scheduling
    # ------------------------------------------------------------------
    def _schedule(self, action: str, device: int, at_s: float,
                  **kw) -> None:
        self._events.append(ClusterEvent(
            action=action, device=device, at_s=float(at_s),
            seq=self._next_seq, **kw))
        self._next_seq += 1

    def _check_device(self, device) -> int:
        device = int(device)
        if not 0 <= device < len(self.devices):
            raise ClusterError(f"no such device: {device}")
        return device

    def _pending(self, action: str, device: int) -> bool:
        return any(e.action == action and e.device == device
                   and not e.applied for e in self._events)

    def fail_device(self, device: int, at_s: float,
                    kind: str = "device_oom") -> None:
        """Schedule losing ``device`` at simulated instant ``at_s``.

        ``kind`` must be one of the :mod:`repro.resilience` fault
        categories (:data:`~repro.resilience.faults.FAULT_KINDS`) — the
        cluster reuses the chaos taxonomy so incident reports and
        rebalance records speak the same language.  Raises
        :class:`~repro.cluster.resilience.ClusterError` for an unknown
        device index or a device that is already dead (with no rejoin
        pending) — before any state is touched.
        """
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{FAULT_KINDS}")
        device = self._check_device(device)
        if not self.devices[device].alive \
                and not self._pending("rejoin", device):
            raise ClusterError(
                f"device {device} is already dead and has no rejoin "
                f"scheduled")
        self._schedule("fail", device, at_s, kind=kind)

    def slow_device(self, device: int, at_s: float, *,
                    duration_s: float, factor: float = 4.0) -> None:
        """Schedule a straggler window on ``device``: every launch
        starting in ``[at_s, at_s + duration_s)`` takes ``factor``
        times its predicted service time."""
        device = self._check_device(device)
        if duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {duration_s}")
        if factor <= 1.0:
            raise ValueError(
                f"factor must be > 1 to slow a device, got {factor}")
        self._schedule("slow_start", device, at_s, factor=float(factor))
        self._schedule("slow_end", device, at_s + float(duration_s))

    def rejoin_device(self, device: int, at_s: float) -> None:
        """Schedule a dead (or about-to-die) ``device`` to rejoin at
        ``at_s`` with a fresh engine.  Only patterns whose placement
        actually changes under the restored ring are invalidated — the
        incremental re-placement invariant, in reverse."""
        device = self._check_device(device)
        if self.devices[device].alive \
                and not self._pending("fail", device):
            raise ClusterError(
                f"device {device} is alive and has no failure "
                f"scheduled; nothing to rejoin")
        self._schedule("rejoin", device, at_s)

    def add_device(self, device: Optional[int] = None) -> int:
        """Immediately add a brand-new device (``device=None``: the
        next index) or restore a dead one.  Raises
        :class:`~repro.cluster.resilience.ClusterError` for an
        already-alive or out-of-range index — before any router state
        is touched."""
        if device is None:
            device = len(self.devices)
        device = int(device)
        if not 0 <= device <= len(self.devices):
            raise ClusterError(
                f"cannot add device {device}: cluster devices are "
                f"0..{len(self.devices) - 1}")
        if device == len(self.devices):
            self.devices.append(SimDevice(device, self._fresh_engine()))
            self.num_devices += 1
        elif self.devices[device].alive:
            raise ClusterError(f"device {device} is already alive")
        else:
            self.devices[device].engine = self._fresh_engine()
            self.devices[device].rejoined = True
            self.devices[device].homed_patterns = 0
        self._join_ring(device, self.now)
        return device

    # ------------------------------------------------------------------
    # the global event loop
    # ------------------------------------------------------------------
    def run(self, until: float = FOREVER) -> List[ServedResult]:
        """Drain the cluster up to ``until`` (default: everything).

        One deterministic discrete-event loop: scheduled chaos events
        cut the timeline into epochs; within an epoch arrivals dispatch
        to their routed devices (in arrival order), every live engine
        drains to the epoch boundary, and hedged requests resolve
        (first completion wins, losers cancelled or verified), then the
        event applies — loss, straggler window edge, or rejoin — and
        the next epoch begins.  Results arrive in deterministic
        completion order with cluster-level request ids.
        """
        drained: List[ServedResult] = []
        arrivals = sorted(self._arrivals, key=lambda a: (a[0], a[1]))
        if until == FOREVER:
            self._arrivals = []
        else:
            self._arrivals = [a for a in arrivals if a[0] > until]
            arrivals = [a for a in arrivals if a[0] <= until]
        events = sorted(
            (e for e in self._events
             if not e.applied and e.at_s <= until),
            key=lambda e: (e.at_s, e.seq))
        i, n = 0, len(arrivals)
        for event in [*events, None]:
            bound = until if event is None else event.at_s
            while i < n and arrivals[i][0] <= bound:
                a = arrivals[i]
                self._dispatch(a[0], a[1], a[2], a[3], a[4], a[5], a[6],
                               drained)
                i += 1
            for dev in self.devices:
                if dev.alive:
                    self._collect(dev, dev.engine.run(until=bound),
                                  drained)
            self._resolve_hedges(drained)
            if event is not None:
                event.applied = True
                if event.action == "fail":
                    self._apply_loss(event, drained)
                elif event.action == "rejoin":
                    self._apply_rejoin(event)
                else:
                    self._apply_slow(event)
        self.results.extend(drained)
        return drained

    # ------------------------------------------------------------------
    # routing + dispatch
    # ------------------------------------------------------------------
    def _placement_for(self, fps, coo) -> _Placement:
        placement = self._placements.get(fps.pattern)
        if placement is not None:
            return placement
        home = self.router.place(fps.pattern)
        placement = _Placement(pattern=fps.pattern, home=home)
        want = (self.split_threshold_rows is not None
                and coo.nrows >= self.split_threshold_rows
                and self.router.num_alive >= 2)
        if want:
            k = min(self.split_ways or self.router.num_alive,
                    self.router.num_alive)
            if k >= 2:
                cache = self.devices[home].engine.cache
                cert = cache.shard_certificate_for(
                    cache.entry(coo, fps), k, device=self.device_spec,
                    precision=self.precision, mrows=self.mrows,
                    use_local_memory=self.use_local_memory)
                if cert.ok:
                    placement.split = True
                    placement.num_shards = k
                    placement.shard_devices = self.router.successors(
                        fps.pattern, k)
                    placement.cert = cert
                else:
                    # unprovable plan: serve whole on the home device,
                    # never uncertified shards
                    self.split_declines += 1
                    self._event("cluster.split_decline",
                                pattern=fps.pattern, num_shards=k)
        if not placement.split:
            placement.replica_devices = self.router.successors(
                fps.pattern, self.replicas)
        self._placements[fps.pattern] = placement
        self.devices[home].homed_patterns += 1
        self._event("cluster.place", pattern=fps.pattern, home=home,
                    split=placement.split,
                    num_shards=placement.num_shards,
                    replicas=list(placement.replica_devices))
        return placement

    def _dispatch(self, at, rid, fps, coo, x, deadline_rel,
                  resilience, out: List[ServedResult], *,
                  fresh: bool = True) -> None:
        placement = self._placement_for(fps, coo)
        shed = False
        if fresh:
            self._orig_arrival[rid] = at
            if self.front_door is not None:
                tenant = fps.combined
                verdict = self.front_door.admit(
                    tenant, self._inflight_count)
                if verdict == "reject":
                    self._event("cluster.shed", request=rid,
                                tenant=tenant, action="reject")
                    out.append(ServedResult(
                        request_id=rid, fingerprint=fps.combined,
                        status="rejected", arrival_s=at, start_s=at,
                        finish_s=at))
                    self._orig_arrival.pop(rid, None)
                    return
                shed = verdict == "shed-to-replica"
                if shed:
                    self._event("cluster.shed", request=rid,
                                tenant=tenant,
                                action="shed-to-replica")
                self._tenant_of[rid] = tenant
                self._inflight_count += 1
        if placement.split and resilience is None:
            self._dispatch_split(placement, at, rid, fps, coo, x,
                                 deadline_rel)
            return
        replicas = [d for d in placement.replica_devices
                    if self.devices[d].alive] or [placement.home]
        self._fan_out_values(placement, fps, coo, replicas)
        if shed:
            # overflow redirection: least-loaded live replica
            target = min(replicas,
                         key=lambda d: (self._outstanding.get(d, 0), d))
        else:
            # deterministic read balancing across live replicas
            target = replicas[rid % len(replicas)]
        if (self.hedge is not None and resilience is None and not shed
                and len(replicas) > 1):
            reason = self._hedge_trigger(target, at, deadline_rel)
            if reason is not None:
                self._dispatch_hedged(placement, at, rid, fps, coo,
                                      x, deadline_rel, target, replicas,
                                      reason)
                return
        drid = self.devices[target].engine.submit(
            Ingested(coo, fps), x, at=at, deadline_s=deadline_rel,
            resilience=resilience)
        self._submap[(target, drid)] = rid
        self._outstanding[target] = \
            self._outstanding.get(target, 0) + 1

    def _fan_out_values(self, placement: _Placement, fps, coo,
                        replicas: List[int]) -> None:
        """Warm every replica's plan cache with this value variant so a
        failover or hedge never pays a cold prepare."""
        if len(replicas) < 2 or fps.combined in placement.fanned:
            return
        for d in replicas:
            if d == placement.home:
                continue
            self.devices[d].engine.cache.entry(coo, fps)
            self.resilience_stats.value_fanouts += 1
        placement.fanned.add(fps.combined)

    def _hedge_trigger(self, device: int, at: float,
                       deadline_rel) -> Optional[str]:
        """Why this dispatch should hedge, or ``None``."""
        h = self.hedge
        eng = self.devices[device].engine
        if eng.service_scale >= h.slow_threshold:
            return "slow"
        backlog = max(0.0, eng.busy_until - at)
        if h.timeout_s is not None and backlog > h.timeout_s:
            return "timeout"
        if (h.deadline_fraction is not None and deadline_rel is not None
                and backlog > h.deadline_fraction * float(deadline_rel)):
            return "deadline"
        if (h.queue_depth is not None
                and self._outstanding.get(device, 0) >= h.queue_depth):
            return "queue"
        return None

    def _dispatch_hedged(self, placement: _Placement, at, rid, fps,
                         coo, x, deadline_rel, target: int,
                         replicas: List[int], reason: str) -> None:
        group = _HedgeGroup(rid=rid, fps=fps, coo=coo, x=x,
                            arrival_s=at, deadline_rel=deadline_rel)
        self._hedge_groups[rid] = group
        drid = self.devices[target].engine.submit(
            Ingested(coo, fps), x, at=at, deadline_s=deadline_rel)
        self._submap[(target, drid)] = rid
        self._hedge_copies[(target, drid)] = rid
        group.copies.append(_HedgeCopy(target, drid, 0))
        self._outstanding[target] = \
            self._outstanding.get(target, 0) + 1
        others = [d for d in replicas if d != target]
        for k, dev_idx in enumerate(
                others[:min(self.hedge.max_hedges, len(others))], 1):
            delay = self.hedge.backoff.backoff_s(k)
            hdrid = self.devices[dev_idx].engine.submit(
                Ingested(coo, fps), x, at=at + delay,
                deadline_s=deadline_rel)
            self._submap[(dev_idx, hdrid)] = rid
            self._hedge_copies[(dev_idx, hdrid)] = rid
            group.copies.append(_HedgeCopy(dev_idx, hdrid, k))
            self._outstanding[dev_idx] = \
                self._outstanding.get(dev_idx, 0) + 1
            self.resilience_stats.hedges += 1
            self.resilience_stats.hedge_backoff_s += delay
            self._event("cluster.hedge", request=rid, primary=target,
                        hedge=dev_idx, attempt=k, backoff_s=delay,
                        reason=reason)

    def _dispatch_split(self, placement: _Placement, at, rid, fps,
                        coo, x, deadline_rel) -> None:
        cert = placement.cert
        self.halo.ship(cert, pattern=fps.pattern)
        info = _Inflight(
            rid=rid, fps=fps, coo=coo, x=x, arrival_s=at,
            deadline_abs=(None if deadline_rel is None
                          else at + float(deadline_rel)),
            specs=cert.shard_plan.shards,
            num_shards=placement.num_shards)
        for spec in cert.shard_plan.shards:
            if not spec.num_rows:
                continue
            dev_idx = placement.shard_devices[spec.index]
            self.devices[dev_idx].engine.submit_shard(
                Ingested(coo, fps), x, num_shards=placement.num_shards,
                shard_index=spec.index, at=at, parent_id=rid)
            info.expected[spec.index] = dev_idx
        self._inflight[rid] = info
        self.split_dispatches += 1

    # ------------------------------------------------------------------
    # result collection + reassembly
    # ------------------------------------------------------------------
    def _finish(self, out: List[ServedResult],
                result: ServedResult) -> None:
        """Emit one terminal cluster result, releasing every piece of
        per-request bookkeeping (front door, in-flight count)."""
        self._orig_arrival.pop(result.request_id, None)
        self._failover_attempts.pop(result.request_id, None)
        tenant = self._tenant_of.pop(result.request_id, None)
        if tenant is not None:
            self._inflight_count = max(0, self._inflight_count - 1)
            if self.front_door is not None:
                self.front_door.release(tenant)
        out.append(result)

    def _retimed(self, r: ServedResult, rid: int) -> ServedResult:
        """Measure served latency from the *original* arrival, so
        failover downtime, re-dispatch backoff and hedge delay all show
        up in the percentiles."""
        orig = self._orig_arrival.get(rid)
        if orig is None or orig == r.arrival_s or not r.served:
            return r
        return dataclasses.replace(
            r, arrival_s=orig, latency_s=r.finish_s - orig)

    def _collect(self, dev: SimDevice, results: List[ServedResult],
                 out: List[ServedResult]) -> None:
        for r in results:
            if r.parent_id is not None and r.shard_index is not None:
                self._absorb_partial(r, out)
                continue
            key = (dev.index, r.request_id)
            rid = self._submap.pop(key)
            self._outstanding[dev.index] = max(
                0, self._outstanding.get(dev.index, 0) - 1)
            if key in self._hedge_copies:
                del self._hedge_copies[key]
                group = self._hedge_groups[rid]
                copy = group.copy_for(dev.index, r.request_id)
                group.completed.append(
                    (r.finish_s, dev.index, copy.attempt, r))
                continue
            self._finish(out, self._retimed(
                dataclasses.replace(r, request_id=rid), rid))

    def _absorb_partial(self, r: ServedResult,
                        out: List[ServedResult]) -> None:
        info = self._inflight.get(r.parent_id)
        if info is None:
            return  # parent re-dispatched after a loss: stale partial
        info.partials[r.shard_index] = r
        if set(info.partials) != set(info.expected):
            return
        assembled = self._assemble(info)
        del self._inflight[info.rid]
        self._finish(out, self._retimed(assembled, info.rid))

    def _assemble(self, info: _Inflight) -> ServedResult:
        import hashlib

        nrows = info.specs[-1].row_end
        first = next(iter(info.partials.values()))
        y = np.zeros(nrows, dtype=first.y.dtype)
        for idx, part in info.partials.items():
            spec = info.specs[idx]
            y[spec.row_start:spec.row_end] = part.y
        start = min(p.start_s for p in info.partials.values())
        finish = max(p.finish_s for p in info.partials.values())
        met = (None if info.deadline_abs is None
               else finish <= info.deadline_abs)
        y_digest = None
        if self.keep_y == "digest":
            y_digest = hashlib.sha256(
                np.ascontiguousarray(y).tobytes()).digest()
            y = None
        elif not self.keep_y:
            y = None
        return ServedResult(
            request_id=info.rid, fingerprint=info.fps.combined,
            status="served", arrival_s=info.arrival_s, start_s=start,
            finish_s=finish, latency_s=finish - info.arrival_s,
            batch_size=len(info.partials), batched=False,
            deadline_met=met, y=y, y_digest=y_digest)

    # ------------------------------------------------------------------
    # hedge resolution
    # ------------------------------------------------------------------
    def _resolve_hedges(self, out: List[ServedResult]) -> None:
        """First completion wins: emit the winner, cancel still-queued
        losers, digest-verify losers that already executed.  Called at
        every epoch boundary, after all live engines drained."""
        ready = sorted(rid for rid, g in self._hedge_groups.items()
                       if g.completed)
        for rid in ready:
            group = self._hedge_groups.pop(rid)
            # served completions beat terminal ones (an expired copy
            # must not outrank a served one), then earliest finish,
            # then lowest device index — fully deterministic
            group.completed.sort(
                key=lambda t: (not t[3].served, t[0], t[1]))
            win_f, win_dev, win_attempt, win_r = group.completed[0]
            if win_attempt > 0:
                self.resilience_stats.hedge_wins += 1
            win_digest = result_digest(win_r)
            for _, dev_idx, attempt, r in group.completed[1:]:
                self.resilience_stats.hedge_wasted += 1
                digest = result_digest(r)
                if digest is None or win_digest is None:
                    continue
                if digest == win_digest:
                    self.resilience_stats.hedge_verified += 1
                else:
                    self.resilience_stats.hedge_divergences += 1
                    self._event("cluster.hedge_divergence",
                                request=rid, winner=win_dev,
                                loser=dev_idx)
            done = {(d, a) for _, d, a, _ in group.completed}
            for c in group.copies:
                if (c.device, c.attempt) in done:
                    continue
                self._submap.pop((c.device, c.device_rid), None)
                self._hedge_copies.pop((c.device, c.device_rid), None)
                self._outstanding[c.device] = max(
                    0, self._outstanding.get(c.device, 0) - 1)
                dev = self.devices[c.device]
                if dev.alive and dev.engine.cancel_where(
                        lambda req, _rid=c.device_rid: req.id == _rid):
                    self.resilience_stats.hedge_cancelled += 1
            self._finish(out, self._retimed(
                dataclasses.replace(win_r, request_id=rid), rid))

    # ------------------------------------------------------------------
    # device loss + rebalancing
    # ------------------------------------------------------------------
    def _charge_failover(self, rid: int, device: int, at_s: float,
                         base_arrival: float, *,
                         split: bool) -> float:
        """Account one failover re-dispatch; returns the re-dispatch
        arrival (original position on the timeline, plus downtime,
        plus deterministic backoff)."""
        attempt = self._failover_attempts.get(rid, 0) + 1
        self._failover_attempts[rid] = attempt
        backoff = self._failover_policy.backoff_s(attempt)
        self.resilience_stats.failovers += 1
        self.resilience_stats.failover_backoff_s += backoff
        self._event("cluster.failover", request=rid, device=device,
                    attempt=attempt, backoff_s=backoff, split=split)
        return max(base_arrival, at_s) + backoff

    def _apply_loss(self, event: ClusterEvent,
                    out: List[ServedResult]) -> None:
        dev = self.devices[event.device]
        if not dev.alive:
            return  # already dead (duplicate schedule)
        evacuated = dev.engine.evacuate()
        self.router.remove(event.device)
        self._outstanding[event.device] = 0
        self._event("cluster.device_loss", device=event.device,
                    kind=event.kind, at_s=event.at_s,
                    evacuated=len(evacuated))
        # every placement that touched the dead device re-places on the
        # surviving ring (consistent hashing moves nothing else)
        dead_patterns = [
            p for p, pl in self._placements.items()
            if pl.home == event.device
            or event.device in pl.shard_devices
            or event.device in pl.replica_devices]
        for p in dead_patterns:
            del self._placements[p]
        # split requests with any shard on the dead device restart
        # whole: cancel their surviving sub-requests everywhere, drop
        # the partials, re-dispatch under the new placement
        affected = sorted(
            rid for rid, info in self._inflight.items()
            if event.device in info.expected.values())
        affected_set = set(affected)
        if affected_set:
            for d in self.devices:
                if d.alive:
                    d.engine.cancel_where(
                        lambda req: req.parent_id in affected_set)
        moved = 0
        for rid in affected:
            info = self._inflight.pop(rid)
            arrival = self._charge_failover(
                rid, event.device, event.at_s, info.arrival_s,
                split=True)
            deadline_rel = (None if info.deadline_abs is None
                            else info.deadline_abs - arrival)
            self._dispatch(arrival, rid, info.fps, info.coo, info.x,
                           deadline_rel, None, out, fresh=False)
            moved += 1
        # unsplit work stranded on the dead device: hedge copies fall
        # out of their group (survivor copies keep racing), everything
        # else re-homes through verified failover; shard sub-requests
        # of affected parents were already re-dispatched above
        stranded_hedges = set()
        for req in evacuated:
            if req.parent_id is not None:
                continue
            key = (event.device, req.id)
            if key in self._hedge_copies:
                rid = self._hedge_copies.pop(key)
                self._submap.pop(key, None)
                group = self._hedge_groups[rid]
                group.copies = [
                    c for c in group.copies
                    if (c.device, c.device_rid) != key]
                stranded_hedges.add(rid)
                continue
            rid = self._submap.pop(key)
            arrival = self._charge_failover(
                rid, event.device, event.at_s, req.arrival_s,
                split=False)
            deadline_rel = (None if req.deadline_s is None
                            else req.deadline_s - arrival)
            self._dispatch(arrival, rid, req.entry.fingerprints,
                           req.entry.coo, req.x, deadline_rel,
                           req.resilience, out, fresh=False)
            moved += 1
        # a hedged request that lost *every* copy to the dead device
        # restarts whole (its group had no survivors to race)
        for rid in sorted(stranded_hedges):
            group = self._hedge_groups[rid]
            if group.completed or group.copies:
                continue
            del self._hedge_groups[rid]
            arrival = self._charge_failover(
                rid, event.device, event.at_s, group.arrival_s,
                split=False)
            deadline_rel = (
                None if group.deadline_rel is None
                else group.arrival_s + float(group.deadline_rel)
                - arrival)
            self._dispatch(arrival, rid, group.fps, group.coo,
                           group.x, deadline_rel, None, out,
                           fresh=False)
            moved += 1
        self.rebalances.append({
            "at_s": event.at_s,
            "device": event.device,
            "kind": event.kind,
            "moved_requests": moved,
            "replaced_patterns": len(dead_patterns),
            "alive": list(self.router.alive),
        })
        self._event("cluster.rebalance", device=event.device,
                    moved=moved, patterns=len(dead_patterns))

    # ------------------------------------------------------------------
    # device rejoin + straggler windows
    # ------------------------------------------------------------------
    def _apply_rejoin(self, event: ClusterEvent) -> None:
        dev = self.devices[event.device]
        if dev.alive:
            return  # already back (duplicate schedule)
        dev.engine = self._fresh_engine()
        dev.rejoined = True
        dev.homed_patterns = 0
        self._join_ring(event.device, event.at_s)

    def _join_ring(self, device: int, at_s: float) -> None:
        """Put ``device`` back on the ring and invalidate exactly the
        placements the restored ring moves — every one of which must
        touch the (re)joined device, the invariant the rebalance
        record's ``ring_adjacent_only`` attests."""
        self.router.add(device)
        moved: List[str] = []
        adjacent = True
        for pattern in sorted(self._placements):
            pl = self._placements[pattern]
            home = self.router.place(pattern)
            if pl.split:
                devs = self.router.successors(pattern, pl.num_shards)
                current = (pl.home, pl.shard_devices)
            else:
                devs = self.router.successors(pattern, self.replicas)
                current = (pl.home, pl.replica_devices)
            if (home, devs) != current:
                moved.append(pattern)
                if device != home and device not in devs:
                    adjacent = False
        for p in moved:
            del self._placements[p]
        self.rebalances.append({
            "at_s": at_s,
            "device": device,
            "kind": "rejoin",
            "moved_requests": 0,
            "replaced_patterns": len(moved),
            "ring_adjacent_only": adjacent,
            "alive": list(self.router.alive),
        })
        self._event("cluster.rejoin", device=device, at_s=at_s,
                    moved_patterns=len(moved))

    def _apply_slow(self, event: ClusterEvent) -> None:
        dev = self.devices[event.device]
        if not dev.alive:
            return  # straggler window on a dead device: nothing to do
        if event.action == "slow_start":
            dev.engine.service_scale = event.factor
            self._event("cluster.slow", device=event.device,
                        factor=event.factor, at_s=event.at_s,
                        phase="start")
        else:
            dev.engine.service_scale = 1.0
            self._event("cluster.slow", device=event.device,
                        factor=1.0, at_s=event.at_s, phase="end")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def placement_table(self) -> List[Dict[str, Any]]:
        """Current placements, one row per pattern (for the CLI)."""
        rows = []
        for pattern in sorted(self._placements):
            pl = self._placements[pattern]
            rows.append({
                "pattern": pattern,
                "home": pl.home,
                "split": pl.split,
                "num_shards": pl.num_shards,
                "devices": (list(pl.shard_devices)
                            or list(pl.replica_devices)
                            or [pl.home]),
            })
        return rows

    def load_table(self) -> List[Dict[str, Any]]:
        """Per-device load summary (for the CLI)."""
        rows = []
        for d in self.devices:
            e = d.engine
            rows.append({
                "device": d.index,
                "alive": d.alive,
                "state": d.state,
                "clock_s": e.clock.now,
                "launches": (e.spmm_launches + e.spmv_launches
                             + e.shard_launches),
                "shard_launches": e.shard_launches,
                "served": sum(1 for r in e.results if r.served),
                "cache_entries": len(e.cache),
            })
        return rows

    def stats(self) -> Dict[str, Any]:
        """Cluster counters plus per-device engine stats (JSON-safe).

        The aggregate ``admission`` / ``batching`` / ``cache`` sections
        sum the per-device counters so cluster reports read like
        single-engine ones; the ``cluster`` section carries placement,
        halo, certificate-store, rebalance and resilience accounting
        (plus the front-door ``admission_tier`` when configured).
        """
        per_device = [d.engine.stats() for d in self.devices]

        def summed(section: str) -> Dict[str, Any]:
            agg: Dict[str, Any] = {}
            for dstats in per_device:
                for k, v in dstats[section].items():
                    if isinstance(v, bool) or not isinstance(
                            v, (int, float)):
                        agg.setdefault(k, v)
                    else:
                        agg[k] = agg.get(k, 0) + v
            return agg

        batching = summed("batching")
        batching["histogram"] = {}
        for dstats in per_device:
            for k, v in dstats["batching"]["histogram"].items():
                batching["histogram"][k] = (
                    batching["histogram"].get(k, 0) + v)
        batching["histogram"] = dict(sorted(batching["histogram"].items()))
        cache = summed("cache")
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = cache.get("hits", 0) / lookups if lookups else 0.0
        return {
            "clock_s": self.now,
            "admission": summed("admission"),
            "batching": batching,
            "cache": cache,
            "cluster": {
                "num_devices": self.num_devices,
                "alive": list(self.router.alive),
                "router": self.router.to_dict(),
                "placements": len(self._placements),
                "replicas": self.replicas,
                "split_dispatches": self.split_dispatches,
                "split_declines": self.split_declines,
                "halo": self.halo.to_dict(),
                "cert_store": self.store.to_dict(),
                "rebalances": self.rebalances,
                "resilience": self.resilience_stats.to_dict(),
                "admission_tier": (
                    None if self.front_door is None
                    else self.front_door.to_dict()),
            },
            "devices": per_device,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _event(name: str, **attrs) -> None:
        sess = _obs.ACTIVE
        if sess is not None:
            sess.record_event(name, category="cluster", **attrs)
