"""Shard-by-shard CRSD execution through the existing engines.

:class:`ShardedSpMV` runs one certified row-block
:class:`~repro.shard.plan.ShardPlan` shard at a time — each shard's
sub-plan executed through the fused / batched / per-group engines
against the *full* ``dia_val`` / ``x`` / ``y`` buffers (sub-plans keep
absolute addressing; only the scatter side structure is re-packed per
shard).  As in :class:`~repro.gpu_kernels.crsd_runner.CrsdSpMV`, fused
is the default, a declined or crashed shard certification falls back to
batched for that shard and leaves an event, ``REPRO_FUSED_VERIFY``
checks each shard's fused rows against that shard's batched launches
(a mismatch demotes only that shard), and a shard's codelets are
generated only when a batched or per-group launch, or verification,
first needs them.
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

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.analyze.sharding import ShardCertificate
from repro.codegen.python_codelet import CompiledKernel, generate_python_kernel
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.gpu_kernels.crsd_runner import (
    fused_agrees,
    fused_incident,
    fused_verify_mode,
    minimal_trace,
    record_fused_decline,
    run_fused_launch,
)
from repro.gpu_kernels.fused import build_fused_state
from repro.obs.recorder import maybe_span
from repro.ocl.executor import (
    executor_mode,
    launch,
    launch_batched,
    make_launch_cache,
)
from repro.ocl.trace import KernelTrace
from repro.resilience import faults as _flt
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
    """

    name = "crsd_sharded"

    def __init__(self, matrix: CRSDMatrix, certificate: ShardCertificate,
                 shards: Optional[Sequence[int]] = None, **kwargs):
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
        # the active shards with work; an empty shard has no launches
        self._working_shards = tuple(
            i for i in active
            if self.subplans[i].num_groups
            or self.subplans[i].scatter.num_rows)
        # per-shard codelets, generated on a shard's first batched or
        # per-group launch
        self._kernels: Dict[int, CompiledKernel] = {}
        # per-shard fused state: None = not built, False = declined
        self._fused_states: List[object] = [None] * len(self.subplans)
        #: shards whose fused run passed REPRO_FUSED_VERIFY=first
        self._fused_verified: Set[int] = set()
        self._fused_incident_pending = None
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
            mode = executor_mode()
            total = KernelTrace()
            for i in self._working_shards:
                spec = self.shard_plan.shards[i]
                with maybe_span(f"{self.name}.shard", "op",
                                kernel=self.name, shard=spec.index,
                                row_start=spec.row_start,
                                row_end=spec.row_end,
                                halo_lo=spec.halo_lo,
                                halo_hi=spec.halo_hi):
                    tr = self._execute_shard(i, spec, xbuf, ybuf, trace,
                                             mode)
                total.merge(tr)
            run = SpMVRun(y=ybuf.to_host().copy(), trace=total,
                          resilience=self._fused_incident_pending)
            self._fused_incident_pending = None
            return run
        finally:
            self.context.free(xbuf)

    def _execute_shard(self, i: int, spec, xbuf, ybuf, trace: bool,
                       mode: str) -> KernelTrace:
        if mode == "fused":
            tr = self._execute_shard_fused(i, spec, xbuf, ybuf, trace)
            if tr is not None:
                return tr
            mode = "batched"  # this shard's sub-plan declined: fall back
        return self._execute_shard_launches(i, xbuf, ybuf, trace,
                                            batched=(mode == "batched"))

    def _execute_shard_launches(self, i: int, xbuf, ybuf, trace: bool,
                                batched: bool) -> KernelTrace:
        subplan = self.subplans[i]
        kern = self._kernels.get(i)
        if kern is None:
            kern = self._kernels[i] = generate_python_kernel(subplan)
        if batched:
            do_launch = launch_batched
            dia_kernel = kern.dia_kernel_batched
            scatter_kernel = kern.scatter_kernel_batched
        else:
            do_launch = launch
            dia_kernel = kern.dia_kernel
            scatter_kernel = kern.scatter_kernel
        # the shard's private L2: shared by its dia and scatter
        # launches, fresh for the next shard
        cache = make_launch_cache(self.device, trace)
        tr = do_launch(
            dia_kernel,
            subplan.num_groups,
            subplan.local_size,
            (self._dia_val, xbuf, ybuf),
            self.device,
            trace,
            cache,
        )
        if scatter_kernel is not None and subplan.scatter.num_rows:
            scol, sval, srow = self._shard_scatter[i]
            groups = -(-subplan.scatter.num_rows // subplan.local_size)
            tr2 = do_launch(
                scatter_kernel,
                groups,
                subplan.local_size,
                (scol, sval, srow, xbuf, ybuf),
                self.device,
                trace,
                cache,
            )
            tr.merge(tr2)
        return tr

    # ------------------------------------------------------------------
    def _shard_fused_state(self, i: int, spec):
        """Shard ``i``'s fused state, certified on first use; ``None``
        when the provers declined it, its certification crashed or its
        verification failed."""
        if self._fused_states[i] is None:
            self._fused_states[i] = self._build_shard_fused_state(i, spec)
        return self._fused_states[i] or None

    def _build_shard_fused_state(self, i: int, spec):
        lo, hi = spec.scatter_start, spec.scatter_end
        try:
            if _flt.ACTIVE is not None:
                _flt.ACTIVE.on_phase(f"{self.name}.fused_certify")
            # the sub-plan addresses the full matrix's slab, which is
            # the dia_val buffer every shard binds
            state, cert = build_fused_state(
                self.subplans[i], self.device, self.precision,
                scatter_colval=self.matrix.scatter_colval[lo:hi],
                scatter_rowno=self.matrix.scatter_rowno[lo:hi],
                dia_val_size=self.matrix.dia_val.size)
        except Exception as exc:
            # a crashed prover is an incident, not a clean decline
            self._demote_shard(i, "fault", error=exc,
                               message=f"shard {i} fused certification "
                                       "raised; demoted to batched")
            return False
        if state is None:
            record_fused_decline(self.name, cert.reasons, shard=i)
            return False
        return state

    def _demote_shard(self, i: int, outcome: str, error=None,
                      message: str = "") -> None:
        """Run shard ``i`` batched from now on and file the
        IncidentReport (attached to the next served run)."""
        self._fused_states[i] = False
        incident = fused_incident(self.name, self.precision, outcome,
                                  error=error, message=message, shard=i)
        self.fused_incidents.append(incident)
        self._fused_incident_pending = incident

    def _execute_shard_fused(self, i: int, spec, xbuf, ybuf,
                             trace: bool) -> Optional[KernelTrace]:
        """Shard ``i``'s fused launch, or ``None`` to fall back to
        batched.  Under ``REPRO_FUSED_VERIFY`` the shard's rows are
        checked against its own batched launches, as
        :class:`~repro.gpu_kernels.crsd_runner.CrsdSpMV` checks a whole
        matrix, and a mismatch demotes just this shard."""
        state = self._shard_fused_state(i, spec)
        if state is None:
            return None
        verify = fused_verify_mode()
        need_verify = verify == "always" or (
            verify == "first" and i not in self._fused_verified)
        y_before = ybuf.data.copy() if need_verify else None
        scatter = self._shard_scatter[i]
        tr = run_fused_launch(
            state, self.subplans[i].local_size, self._dia_val,
            scatter[1] if scatter is not None else None, xbuf, ybuf,
            trace)
        if need_verify:
            y_fused = ybuf.data.copy()
            ybuf.data[:] = y_before
            oracle = self._execute_shard_launches(i, xbuf, ybuf, True,
                                                  batched=True)
            if not fused_agrees(y_fused, state.run_trace(True),
                                ybuf.data, oracle):
                # ybuf keeps the oracle's rows
                self._demote_shard(
                    i, "verify-failed",
                    message=f"shard {i} fused y/trace diverged from the "
                            "batched oracle; demoted to batched")
                return oracle if trace else minimal_trace(oracle)
            ybuf.data[:] = y_fused
            self._fused_verified.add(i)
        return tr
