"""Shard-by-shard CRSD execution through the existing engines.

:class:`ShardedSpMV` runs one certified row-block
:class:`~repro.shard.plan.ShardPlan` shard at a time — each shard's
sub-plan through its own
:class:`~repro.gpu_kernels.crsd_runner.PlanExecutor`, the engine ladder
a whole-matrix runner uses, against the *full* ``dia_val`` / ``x`` /
``y`` buffers (sub-plans keep absolute addressing; only the scatter
side structure is re-packed per shard).  Fused is the default, a
declined or crashed shard certification falls back to batched for that
shard and leaves an event labelled with the shard, ``REPRO_FUSED_VERIFY``
checks each shard's fused rows against that shard's batched launches
(a mismatch demotes only that shard), and a shard's codelets are
generated only when a batched or per-group launch, or verification,
first needs them.  A shard's sub-plan, codelets and fused outcome live
in its :class:`~repro.gpu_kernels.crsd_runner.PlanArtifacts`, which the
serve plan cache shares between same-pattern runners.
Because the certificate proved halo coverage, write disjointness and
deterministic overwrite order, the concatenation of shard launches is
bit-identical to the unsharded run — the differential suite holds it
to ``np.array_equal``, not allclose.

The runner *refuses* uncertified plans with
:class:`~repro.shard.plan.ShardPlanError`: a shard plan is either
proven or not executed, never silently wrong.

Each shard's dia and scatter launches share one private L2
:class:`~repro.ocl.memory.SegmentCache` — the exact cache topology the
certificate's per-shard trace predictions replay, so executed traced
counters match ``certificate.per_shard_traces`` counter for counter.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.analyze.sharding import ShardCertificate
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.gpu_kernels.crsd_runner import PlanArtifacts, PlanExecutor
from repro.obs.recorder import maybe_span
from repro.ocl.trace import KernelTrace
from repro.shard.plan import ShardPlanError

__all__ = ["ShardedSpMV"]


class ShardedSpMV(GPUSpMV):
    """Row-block sharded CRSD SpMV runner.

    Parameters
    ----------
    matrix:
        The CRSD matrix the certificate was issued for.
    certificate:
        A passing :class:`~repro.analyze.sharding.ShardCertificate`
        (``certify_shard_plan`` output).  A failing certificate raises
        :class:`ShardPlanError` naming the violated provers.
    shards:
        The shard indices this runner executes (default: all).
    artifacts:
        Shard index -> the shared :class:`PlanArtifacts` of that
        shard's sub-plan (``ValueError`` when they hold another plan);
        a shard without an entry gets fresh ones.
    """

    name = "crsd_sharded"

    def __init__(self, matrix: CRSDMatrix, certificate: ShardCertificate,
                 shards: Optional[Sequence[int]] = None,
                 artifacts: Optional[Mapping[int, PlanArtifacts]] = None,
                 **kwargs):
        kwargs.setdefault("local_size", matrix.mrows)
        super().__init__(**kwargs)
        if not isinstance(matrix, CRSDMatrix):
            raise ShardPlanError(
                "sharded execution requires a CRSD matrix; got "
                f"{type(matrix).__name__}")
        if not certificate.ok:
            raise ShardPlanError(
                "refusing to execute an uncertified shard plan: "
                + ("; ".join(certificate.reasons) or "no certificate"))
        if len(certificate.subplans) != len(certificate.shard_plan.shards):
            raise ShardPlanError(
                "certificate carries no per-shard sub-plans; re-run "
                "certify_shard_plan")
        self.matrix = matrix
        self.certificate = certificate
        self.shard_plan = certificate.shard_plan
        self.subplans = certificate.subplans
        # the shards this runner executes: all of them by default, or a
        # subset — the cluster gives each device a runner over exactly
        # the shard indices it owns (write disjointness is certified,
        # so a subset's rows equal the full run's rows bit for bit)
        if shards is None:
            active = tuple(range(len(self.subplans)))
        else:
            active = tuple(sorted({int(s) for s in shards}))
            for s in active:
                if not 0 <= s < len(self.subplans):
                    raise ShardPlanError(
                        f"shard index {s} outside the plan's "
                        f"{len(self.subplans)} shards")
        self.active_shards = active
        # one plan executor per active shard with work; an empty shard
        # has no launches.  A sub-plan addresses the full matrix's slab,
        # which is the dia_val buffer every shard binds.
        self._executors = {}
        for i in active:
            spec, subplan = self.shard_plan.shards[i], self.subplans[i]
            if subplan.num_groups or subplan.scatter.num_rows:
                shared = (artifacts or {}).get(i) or PlanArtifacts(subplan)
                if shared.plan != subplan:
                    raise ValueError(f"plan artifacts of shard {i} do not "
                                     "hold the certificate's sub-plan")
                lo, hi = spec.scatter_start, spec.scatter_end
                self._executors[i] = PlanExecutor(
                    shared, self.name, self.device, self.precision,
                    matrix.scatter_colval[lo:hi],
                    matrix.scatter_rowno[lo:hi],
                    dia_val_size=matrix.dia_val.size, labels={"shard": i})
        #: IncidentReports filed by shard fused demotions (crashed
        #: certification or failed verification)
        self.fused_incidents = []

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    @property
    def num_shards(self) -> int:
        return self.shard_plan.num_shards

    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        self._dia_val = self.context.alloc(
            self.matrix.dia_val.astype(self.dtype), "crsd_dia_val")
        active = set(self.active_shards)
        self._shard_scatter = []
        for spec in self.shard_plan.shards:
            lo, hi = spec.scatter_start, spec.scatter_end
            if hi <= lo or spec.index not in active:
                self._shard_scatter.append(None)
                continue
            colval = self.matrix.scatter_colval[lo:hi]
            val = self.matrix.scatter_val[lo:hi]
            self._shard_scatter.append((
                self.context.alloc(
                    np.ascontiguousarray(colval.T).ravel(),
                    f"scatter_colval_s{spec.index}"),
                self.context.alloc(
                    np.ascontiguousarray(val.T).astype(self.dtype).ravel(),
                    f"scatter_val_s{spec.index}"),
                self.context.alloc(
                    self.matrix.scatter_rowno[lo:hi],
                    f"scatter_rowno_s{spec.index}"),
            ))
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    # ------------------------------------------------------------------
    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            ybuf = self._y
            ybuf.data[:] = 0
            total = KernelTrace()
            incident = None
            for i, executor in self._executors.items():
                spec = self.shard_plan.shards[i]
                with maybe_span(f"{self.name}.shard", "op",
                                kernel=self.name, shard=spec.index,
                                row_start=spec.row_start,
                                row_end=spec.row_end,
                                halo_lo=spec.halo_lo,
                                halo_hi=spec.halo_hi):
                    tr, filed = executor.run(self._dia_val,
                                             self._shard_scatter[i], xbuf,
                                             ybuf, trace)
                total.merge(tr)
                if filed is not None:
                    # one incident per run: the last shard's to file one
                    self.fused_incidents.append(filed)
                    incident = filed
            return SpMVRun(y=ybuf.to_host().copy(), trace=total,
                           resilience=incident)
        finally:
            self.context.free(xbuf)
