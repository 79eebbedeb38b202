"""The serving engine: a discrete-event loop over the simulated device.

Ties the subsystem together: arrivals pass the
:class:`~repro.serve.admission.AdmissionController`, wait in the
:class:`~repro.serve.batcher.MicroBatcher`, and execute on the
simulated runtime through the
:class:`~repro.serve.cache.PlanCache` — same-matrix groups as one
:class:`~repro.gpu_kernels.crsd_runner.CrsdSpMM` launch, small groups
as per-request SpMV, resilience-routed requests individually through
the degradation ladder.

Time is fully simulated (:mod:`repro.serve.clock`): the device is a
single resource that is busy for the cost-model-predicted duration of
each launch, arrivals queue while it is busy, and queue pressure is
what makes batches form — exactly the dynamics of a real serving
stack, but deterministic and byte-reproducible per seed.

Usage (the ``repro.serve_session()`` facade wraps exactly this)::

    engine = ServeEngine(batch=BatchConfig(max_batch=16))
    engine.submit(A, x1)
    engine.submit(A, x2)            # same matrix: will coalesce
    results = engine.run()          # drain the stream
    engine.stats()                  # histogram, cache + queue counters
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.core.serialize import as_ingested
from repro.obs.recorder import maybe_span
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.trace import KernelTrace
from repro.perf.costmodel import predict_gpu_time
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.batcher import BatchConfig, MicroBatcher, Request
from repro.serve.cache import PlanCache
from repro.serve.clock import FOREVER, SimulatedClock

__all__ = ["Engine", "ServeEngine", "ServedResult"]

#: the counters of a KernelTrace, summed into ``counter_totals``
_TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(KernelTrace))


@runtime_checkable
class Engine(Protocol):
    """The serving surface shared by :class:`ServeEngine` and
    :class:`~repro.cluster.engine.ClusterEngine`.

    LoadGenerator, the CLI and the tests program against exactly this
    protocol, so single-device and cluster serving are interchangeable:
    :meth:`submit` enqueues one request and returns its id,
    :meth:`run` drains the stream up to a simulated instant (the
    default ``FOREVER`` drains everything), :meth:`stats` reports
    JSON-safe counters.
    """

    def submit(self, matrix, x: np.ndarray, *,
               at: Optional[float] = None,
               deadline_s: Optional[float] = None,
               resilience=None) -> int:
        """Enqueue one request; returns its request id."""
        ...

    def run(self, until: float = FOREVER) -> List["ServedResult"]:
        """Drain the stream up to ``until`` simulated seconds."""
        ...

    def stats(self) -> Dict[str, Any]:
        """JSON-safe serving counters."""
        ...


@dataclass
class ServedResult:
    """Terminal record of one request.

    ``status`` is one of ``served`` / ``rejected`` / ``shed`` /
    ``expired``; timing fields are simulated seconds and only
    meaningful for served requests (``latency_s`` is finish − arrival,
    including queueing and batching delay).
    """

    request_id: int
    fingerprint: str
    status: str
    arrival_s: float
    start_s: float = 0.0
    finish_s: float = 0.0
    latency_s: float = 0.0
    batch_size: int = 0
    batched: bool = False
    deadline_met: Optional[bool] = None
    y: Optional[np.ndarray] = None
    resilience: Optional[Any] = None
    #: sha256 of the served ``y`` bytes when the engine runs in
    #: ``keep_y="digest"`` mode (``y`` itself is dropped)
    y_digest: Optional[bytes] = None
    #: set on a cluster shard sub-result: the cluster-level parent
    #: request id and the shard index this partial ``y`` covers
    parent_id: Optional[int] = None
    shard_index: Optional[int] = None

    @property
    def served(self) -> bool:
        return self.status == "served"


class ServeEngine:
    """Deterministic serving of an SpMV request stream.

    Parameters
    ----------
    device / precision / mrows / use_local_memory:
        The execution configuration every served request shares.
    batch / admission:
        The :class:`~repro.serve.batcher.BatchConfig` and
        :class:`~repro.serve.admission.AdmissionPolicy`.
    cache:
        A :class:`~repro.serve.cache.PlanCache` to share across
        engines; by default each engine owns one.
    prepare_cost_s:
        Simulated seconds charged to the device the first time a
        (matrix, nvec) codelet is prepared — the cache's economics made
        visible in the latency numbers.  Defaults to 0 so micro-batching
        effects can be studied in isolation.
    size_scale:
        Problem-scale factor forwarded to the cost model (suite
        matrices generated at ``scale`` should pass the same value).
    keep_y:
        Store each served ``y`` on its result (turn off for large
        load-generation sweeps where only the timing matters).
    """

    def __init__(
        self,
        *,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        mrows: int = 128,
        use_local_memory: bool = True,
        batch: Optional[BatchConfig] = None,
        admission: Optional[AdmissionPolicy] = None,
        cache: Optional[PlanCache] = None,
        prepare_cost_s: float = 0.0,
        size_scale: float = 1.0,
        keep_y: Union[bool, str] = True,
    ):
        self.device = device
        self.precision = precision
        self.mrows = int(mrows)
        self.use_local_memory = bool(use_local_memory)
        self.batch_config = batch or BatchConfig()
        self.cache = cache if cache is not None else PlanCache()
        self.controller = AdmissionController(admission or AdmissionPolicy())
        self.clock = SimulatedClock()
        self.batcher = MicroBatcher(self.batch_config)
        self.prepare_cost_s = float(prepare_cost_s)
        self.size_scale = float(size_scale)
        if keep_y not in (True, False, "digest"):
            raise ValueError(
                f"keep_y must be True, False or 'digest', got {keep_y!r}")
        self.keep_y = keep_y
        #: cleared by :meth:`evacuate` when the simulated device is
        #: lost; a dead engine refuses further submissions and runs
        self.alive = True
        #: straggler multiplier on every service time (``device_slow``
        #: chaos actions set it > 1 for a window; backoff accounting is
        #: never scaled — only compute is)
        self.service_scale = 1.0

        self._arrivals: List[Tuple[float, int, Request]] = []
        self._next_id = 0
        #: the simulated instant the device frees from its last launch
        #: (persists across bounded :meth:`run` calls: an in-flight
        #: launch completes past ``until``, the next epoch waits for it)
        self._busy_until = 0.0
        #: SpMM launch sizes -> count (per-request-SpMV launches under
        #: size 1)
        self.batch_histogram: Dict[int, int] = {}
        self.spmm_launches = 0
        self.spmv_launches = 0
        #: single-shard launches of split matrices (cluster serving)
        self.shard_launches = 0
        #: summed KernelTrace counters over every launch this engine ran
        self.counter_totals: Dict[str, int] = {}
        self.results: List[ServedResult] = []

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
        """Enqueue one request; returns its id.

        ``at`` is the simulated arrival instant (default: the current
        clock — submissions before :meth:`run` arrive together at 0).
        ``deadline_s`` is *relative* to the arrival.  ``resilience`` (a
        :class:`repro.resilience.Policy` or ``True``) routes this
        request through the degradation ladder, unbatched.  Admission
        control is applied at the arrival instant, inside :meth:`run`.

        The matrix is ingested once here
        (:func:`repro.core.serialize.ingest`), which freezes a sparse
        carrier's arrays.  ``matrix`` may instead be the
        :class:`~repro.core.serialize.Ingested` value ``ingest``
        returned for it (the cluster front end ingests each request
        once and hands that on); then nothing is hashed again.
        """
        from repro.resilience.policy import Policy
        from repro.validation import validate_vector

        self._require_alive()
        entry = self.cache.entry(*as_ingested(matrix))
        x = np.ascontiguousarray(
            validate_vector(x, entry.coo.ncols), dtype=np.float64)
        arrival = self.clock.now if at is None else max(float(at),
                                                       self.clock.now)
        if resilience is True:
            resilience = Policy()
        rid = self._next_id
        self._next_id += 1
        req = Request(
            id=rid,
            key=(entry.fingerprint, self.precision),
            entry=entry,
            x=x,
            arrival_s=arrival,
            deadline_s=None if deadline_s is None
            else arrival + float(deadline_s),
            resilience=resilience,
            batchable=resilience is None,
        )
        self._arrivals.append((arrival, rid, req))
        return rid

    def submit_shard(
        self,
        matrix,
        x: np.ndarray,
        *,
        num_shards: int,
        shard_index: int,
        at: Optional[float] = None,
        deadline_s: Optional[float] = None,
        parent_id: Optional[int] = None,
    ) -> int:
        """Enqueue one shard of a split matrix (cluster-internal).

        The request executes only the certified row-block
        ``shard_index`` of the ``num_shards``-way plan; its result
        carries the partial ``y`` rows plus ``parent_id`` so the
        cluster can reassemble.  Shard sub-requests are pre-admitted
        (the router admitted the parent once) and never batched.
        Like :meth:`submit`, ``matrix`` may be the parent request's
        :class:`~repro.core.serialize.Ingested` value.
        """
        from repro.validation import validate_vector

        self._require_alive()
        entry = self.cache.entry(*as_ingested(matrix))
        x = np.ascontiguousarray(
            validate_vector(x, entry.coo.ncols), dtype=np.float64)
        arrival = self.clock.now if at is None else max(float(at),
                                                       self.clock.now)
        rid = self._next_id
        self._next_id += 1
        req = Request(
            id=rid,
            key=(entry.fingerprint, self.precision, "shard",
                 int(num_shards), int(shard_index)),
            entry=entry,
            x=x,
            arrival_s=arrival,
            deadline_s=None if deadline_s is None
            else arrival + float(deadline_s),
            batchable=False,
            shard_index=int(shard_index),
            shard_count=int(num_shards),
            parent_id=parent_id,
            preadmitted=True,
        )
        self._arrivals.append((arrival, rid, req))
        return rid

    def _require_alive(self) -> None:
        if not self.alive:
            raise RuntimeError(
                "this simulated device was lost (evacuated); "
                "submit to a live engine")

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, until: float = FOREVER) -> List[ServedResult]:
        """Drain submitted arrivals; returns this drain's results in
        completion order (also appended to :attr:`results`).

        ``until`` bounds the epoch: only arrivals at or before that
        simulated instant are consumed, no launch *starts* after it,
        and queued work plus later arrivals stay for the next call (an
        in-flight launch completes past ``until`` — the device stays
        busy into the next epoch).  The default ``FOREVER`` drains
        everything, exactly the single-engine behaviour.
        """
        self._require_alive()
        final = until == FOREVER
        pending = sorted(self._arrivals, key=lambda a: (a[0], a[1]))
        if final:
            arrivals, self._arrivals = pending, []
        else:
            arrivals = [a for a in pending if a[0] <= until]
            self._arrivals = [a for a in pending if a[0] > until]
        drained: List[ServedResult] = []
        i, n = 0, len(arrivals)
        busy_until = max(self.clock.now, self._busy_until)
        with maybe_span("serve.run", "serve", requests=n):
            while i < n or self.batcher.depth:
                now = self.clock.now
                while i < n and arrivals[i][0] <= now:
                    self._admit(arrivals[i][2], drained)
                    i += 1
                for req in self.batcher.drain_expired(now):
                    self.controller.record_expired()
                    drained.append(self._terminal(req, "expired"))
                if now >= busy_until and self.batcher.depth:
                    group = self.batcher.form_batch(
                        now, flush=(final and i >= n))
                    if group is not None:
                        busy_until = self._execute(group, now, drained)
                        continue
                t_next = FOREVER
                if i < n:
                    t_next = min(t_next, arrivals[i][0])
                if self.batcher.depth:
                    if now < busy_until:
                        t_next = min(t_next, busy_until)
                    else:
                        t_next = min(t_next,
                                     self.batcher.next_forced_launch_s())
                if t_next is FOREVER or t_next > until:
                    break  # nothing more can happen in this epoch
                self.clock.advance_to(max(t_next, now))
        self._busy_until = busy_until
        self.results.extend(drained)
        return drained

    # ------------------------------------------------------------------
    # device loss (cluster rebalancing)
    # ------------------------------------------------------------------
    def evacuate(self) -> List[Request]:
        """Simulate losing this device: mark it dead and hand back
        every request that has not executed yet — the queued batcher
        FIFO first, then unconsumed arrivals, both in deterministic
        order — for the cluster to re-place.  Work that already
        finished keeps its results; a dead engine refuses further
        submissions."""
        self.alive = False
        queued = self.batcher.drain_all()
        future = [a[2] for a in sorted(self._arrivals,
                                       key=lambda a: (a[0], a[1]))]
        self._arrivals = []
        return queued + future

    def cancel_where(self, predicate: Callable[[Request], bool]
                     ) -> List[Request]:
        """Remove and return every not-yet-executed request matching
        ``predicate`` (queued or still arriving) — the cluster cancels
        a re-placed split request's surviving sub-requests with this."""
        cancelled = self.batcher.cancel_where(predicate)
        keep: List[Tuple[float, int, Request]] = []
        for a in self._arrivals:
            if predicate(a[2]):
                cancelled.append(a[2])
            else:
                keep.append(a)
        self._arrivals = keep
        return cancelled

    # ------------------------------------------------------------------
    def _admit(self, req: Request, drained: List[ServedResult]) -> None:
        if req.preadmitted:
            self.batcher.push(req)
            return
        verdict = self.controller.admit(self.batcher.depth)
        if verdict == "reject":
            drained.append(self._terminal(req, "rejected"))
            return
        if verdict == "shed-oldest":
            victim = self.batcher.shed_oldest()
            drained.append(self._terminal(victim, "shed"))
        self.batcher.push(req)

    def _terminal(self, req: Request, status: str) -> ServedResult:
        return ServedResult(
            request_id=req.id, fingerprint=req.key[0], status=status,
            arrival_s=req.arrival_s, parent_id=req.parent_id,
            shard_index=req.shard_index)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, group: List[Request], now: float,
                 drained: List[ServedResult]) -> float:
        """Run one launch group starting at ``now``; returns the
        simulated instant the device frees."""
        if group[0].shard_index is not None:
            finish = self._execute_shard_request(group[0], now, drained)
        elif group[0].resilience is not None:
            finish = self._execute_resilient(group[0], now, drained)
        elif len(group) >= self.batch_config.min_spmm:
            finish = self._execute_spmm(group, now, drained)
        else:
            finish = self._execute_spmv(group, now, drained)
        return finish

    @property
    def busy_until(self) -> float:
        """The simulated instant the device frees from its last
        launch (the cluster's hedge triggers read it)."""
        return self._busy_until

    def _service_seconds(self, trace, crsd, misses: int) -> float:
        launches = 2 if crsd.num_scatter_rows else 1
        seconds = predict_gpu_time(
            trace, self.device, self.precision, num_launches=launches,
            size_scale=self.size_scale).total
        return (seconds + misses * self.prepare_cost_s) \
            * self.service_scale

    def _account(self, trace) -> None:
        totals = self.counter_totals
        for k in _TRACE_FIELDS:
            totals[k] = totals.get(k, 0) + getattr(trace, k)

    def _execute_spmm(self, group: List[Request], now: float,
                      drained: List[ServedResult]) -> float:
        k = len(group)
        misses0 = self.cache.stats.misses
        runner = self.cache.runner_for(
            group[0].entry, device=self.device, precision=self.precision,
            mrows=self.mrows, use_local_memory=self.use_local_memory,
            nvec=k)
        X = np.ascontiguousarray(np.stack([r.x for r in group], axis=1))
        with maybe_span("serve.batch", "serve", size=k,
                        fingerprint=group[0].key[0]):
            run = runner.run(X, trace=True)
        self._account(run.trace)
        service = self._service_seconds(
            run.trace, runner.matrix, self.cache.stats.misses - misses0)
        finish = now + service
        self.spmm_launches += 1
        self.batch_histogram[k] = self.batch_histogram.get(k, 0) + 1
        for j, req in enumerate(group):
            drained.append(self._served(
                req, now, finish, batch_size=k, batched=True,
                y=run.y[:, j].copy() if self.keep_y else None,
                resilience=run.resilience))
        return finish

    def _execute_spmv(self, group: List[Request], now: float,
                      drained: List[ServedResult]) -> float:
        t = now
        for req in group:
            misses0 = self.cache.stats.misses
            runner = self.cache.runner_for(
                req.entry, device=self.device, precision=self.precision,
                mrows=self.mrows, use_local_memory=self.use_local_memory)
            with maybe_span("serve.single", "serve",
                            fingerprint=req.key[0]):
                run = runner.run(req.x, trace=True)
            self._account(run.trace)
            service = self._service_seconds(
                run.trace, runner.matrix,
                self.cache.stats.misses - misses0)
            start, t = t, t + service
            self.spmv_launches += 1
            self.batch_histogram[1] = self.batch_histogram.get(1, 0) + 1
            drained.append(self._served(
                req, start, t, batch_size=1, batched=False,
                y=run.y.copy() if self.keep_y else None,
                resilience=run.resilience))
        return t

    def _execute_shard_request(self, req: Request, now: float,
                               drained: List[ServedResult]) -> float:
        """One certified row-block shard of a split matrix.

        The runner comes through
        :meth:`~repro.serve.cache.PlanCache.shard_runner_for`, which
        activates the shard only after the certificate store vouches
        for the plan.  The result's ``y`` is the shard's partial rows
        (always kept, whatever ``keep_y`` says — the cluster needs them
        to reassemble); service time is the shard's own traced cost
        with its own launch count.
        """
        misses0 = self.cache.stats.misses
        runner = self.cache.shard_runner_for(
            req.entry, num_shards=req.shard_count,
            shard_index=req.shard_index, device=self.device,
            precision=self.precision, mrows=self.mrows,
            use_local_memory=self.use_local_memory)
        with maybe_span("serve.shard", "serve", fingerprint=req.key[0],
                        shard=req.shard_index):
            run = runner.run(req.x, trace=True)
        self._account(run.trace)
        subplan = runner.subplans[req.shard_index]
        launches = 2 if subplan.scatter.num_rows else 1
        seconds = predict_gpu_time(
            run.trace, self.device, self.precision,
            num_launches=launches, size_scale=self.size_scale).total
        seconds += (self.cache.stats.misses - misses0) \
            * self.prepare_cost_s
        finish = now + seconds * self.service_scale
        self.shard_launches += 1
        self.batch_histogram[1] = self.batch_histogram.get(1, 0) + 1
        spec = runner.shard_plan.shards[req.shard_index]
        y_part = run.y[spec.row_start:spec.row_end].copy()
        drained.append(self._served(
            req, now, finish, batch_size=1, batched=False, y=y_part,
            resilience=run.resilience))
        return finish

    def _execute_resilient(self, req: Request, now: float,
                           drained: List[ServedResult]) -> float:
        from repro.resilience.engine import resilient_spmv

        with maybe_span("serve.resilient", "serve", fingerprint=req.key[0]):
            run = resilient_spmv(
                req.entry.coo, req.x, "crsd", device=self.device,
                precision=self.precision, mrows=self.mrows,
                use_local_memory=self.use_local_memory,
                policy=req.resilience, trace=True)
        self._account(run.trace)
        report = run.resilience
        served = report.served_rung if report is not None else "crsd"
        launches = 1
        if served is None or served.startswith("crsd"):
            # the resilient path builds its own runners, so the CRSD may
            # not exist in the cache yet — build (and memoise) it here
            # rather than silently under-billing the launch overhead of
            # scatter matrices as a single launch
            crsd_like = self.cache._crsd_for(req.entry, self.mrows)
            if crsd_like.num_scatter_rows:
                launches = 2
        seconds = predict_gpu_time(
            run.trace, self.device, self.precision, num_launches=launches,
            size_scale=self.size_scale).total * self.service_scale
        if report is not None:
            seconds += report.total_backoff_s
        finish = now + seconds
        self.spmv_launches += 1
        self.batch_histogram[1] = self.batch_histogram.get(1, 0) + 1
        drained.append(self._served(
            req, now, finish, batch_size=1, batched=False,
            y=run.y.copy() if self.keep_y else None,
            resilience=report))
        return finish

    def _served(self, req: Request, start: float, finish: float, *,
                batch_size: int, batched: bool, y, resilience=None
                ) -> ServedResult:
        met = None
        if req.deadline_s is not None:
            met = finish <= req.deadline_s
            if not met:
                self.controller.record_deadline_miss()
        y_digest = None
        if (y is not None and self.keep_y == "digest"
                and req.shard_index is None):
            # large sweeps keep only the bit-exact digest; shard
            # partials stay intact for the cluster to reassemble
            y_digest = hashlib.sha256(
                np.ascontiguousarray(y).tobytes()).digest()
            y = None
        return ServedResult(
            request_id=req.id, fingerprint=req.key[0], status="served",
            arrival_s=req.arrival_s, start_s=start, finish_s=finish,
            latency_s=finish - req.arrival_s, batch_size=batch_size,
            batched=batched, deadline_met=met, y=y, resilience=resilience,
            y_digest=y_digest, parent_id=req.parent_id,
            shard_index=req.shard_index)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Queue, batching and cache counters of everything run so
        far (JSON-safe)."""
        return {
            "clock_s": self.clock.now,
            "admission": self.controller.to_dict(),
            "batching": {
                "max_batch": self.batch_config.max_batch,
                "max_delay_s": self.batch_config.max_delay_s,
                "min_spmm": self.batch_config.min_spmm,
                "spmm_launches": self.spmm_launches,
                "spmv_launches": self.spmv_launches,
                "shard_launches": self.shard_launches,
                "histogram": {str(k): v for k, v in
                              sorted(self.batch_histogram.items())},
            },
            "cache": self.cache.stats.to_dict(),
        }
