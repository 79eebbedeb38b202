"""Analyzer-certified fused execution of CRSD launches.

The default execution engine for CRSD runners (``REPRO_EXECUTOR=fused``)
runs a whole CrsdSpMV/CrsdSpMM launch, or one shard's launches, as a
handful of whole-matrix NumPy expressions — one strided
multiply-accumulate per diagonal of the dia phase, one gather-multiply
per ELL column of the scatter phase — instead of simulating the kernel
per work-group or per grid statement.  That is only sound when the
launch is *proven* well-behaved, so entry is gated on the static
analyzer:

- :func:`~repro.analyze.bounds.check_bounds` — every baked index
  in-range, so the fused expressions can drop the per-lane guards;
- :func:`~repro.analyze.localmem.check_localmem` — the AD staging
  tiles are race-free and fit, so ``tile[lid + j]`` can be replaced by
  the direct x window it provably holds;
- :func:`~repro.analyze.batch_safety.check_batch_safety` — per-group
  y write-sets disjoint (and scatter rows pairwise distinct), so the
  whole launch can store with one vectorised assignment.

When certification fails the caller falls back to the ``batched``
engine and records a ``fused.uncertified`` event; nothing here weakens
correctness, it only removes
simulation overhead from launches the prover already understands.

The :class:`KernelTrace` is not measured but *synthesized* by
:func:`repro.analyze.trace.synthesize_trace`: one walk over the
launch's accesses derives every counter from their segment streams
and replays those streams through the same group-major L2 replay the
batched engine's :meth:`BatchCtx.finalize` uses, splitting load
transactions into DRAM misses and ``l2_hits``
(``tests/analyze/test_static_trace.py`` holds the walk to the
closed-form :func:`~repro.analyze.predict_trace` on an L2-free device
and to the dynamic trace on an L2 device).  Certification walks a plan
once, only after every prover passed, and the certificate carries the
trace; it is copied per run, so obs metrics, roofline derivation and
serve's ``predict_gpu_time`` accounting are unchanged.

:class:`FusedKernel` is deliberately **value-free**: it bakes only the
plan and the scatter *index* arrays (pattern data) and takes the value
buffers per call, so one compiled fused callable is shared across
same-pattern matrices (and, through the engine's
:class:`~repro.serve.cache.PatternStore`, across devices).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.analyze.batch_safety import check_batch_safety
from repro.analyze.bounds import check_bounds
from repro.analyze.localmem import check_localmem
from repro.analyze.model import KernelModel, build_model
from repro.analyze.report import AnalysisReport
from repro.analyze.trace import synthesize_trace
from repro.codegen.plan import KernelPlan
from repro.ocl.device import DeviceSpec
from repro.ocl.trace import KernelTrace

__all__ = ["FusedCertificate", "FusedKernel", "FusedState",
           "certify_plan", "build_fused_state", "synthesize_trace"]

#: kernel-name the fused engine reports to obs spans and fault hooks
FUSED_KERNEL_NAME = "crsd_fused_kernel"


# ----------------------------------------------------------------------
# certification
# ----------------------------------------------------------------------
@dataclass
class FusedCertificate:
    """The provers' verdict on one plan (``ok`` gates fused entry)."""

    ok: bool
    reasons: Tuple[str, ...] = ()
    model: Optional[KernelModel] = None
    #: the synthesized trace of one traced run (certified plans only)
    trace: Optional[KernelTrace] = None


def certify_plan(
    plan: KernelPlan,
    device: DeviceSpec,
    precision: str,
    scatter_colval: Optional[np.ndarray] = None,
    scatter_rowno: Optional[np.ndarray] = None,
    dia_val_size: Optional[int] = None,
) -> FusedCertificate:
    """Run the bounds, local-memory and write-disjointness provers.

    The certificate carries the :class:`KernelModel` and, when every
    prover passed, the synthesized trace, so a passing plan pays for
    the analysis and the trace walk exactly once.  Certification never
    raises for an *unprovable* plan — it returns ``ok=False`` with the
    reasons — but a prover crash propagates (the runner files an
    incident for that case).  ``dia_val_size`` is the size of the bound
    ``dia_val`` buffer (see :func:`~repro.analyze.model.build_model`).
    """
    model = build_model(plan, precision=precision,
                        scatter_colval=scatter_colval,
                        scatter_rowno=scatter_rowno,
                        dia_val_size=dia_val_size)
    report = AnalysisReport(plan=plan)
    check_bounds(model, report)
    check_localmem(model, report, device)
    check_batch_safety(model, report)
    reasons: List[str] = [str(f) for f in report.violations]
    if plan.scatter.num_rows and report.batched_write_sets_disjoint is not True:
        reasons.append(
            "scatter write-set disjointness not proved: fused stores "
            "would race")
    if model.scatter_unindexed:
        reasons.append(
            "closed-form trace prediction unavailable (indirect access "
            "without baked index data)")
    if reasons:
        return FusedCertificate(ok=False, reasons=tuple(reasons),
                                model=model)
    return FusedCertificate(ok=True, model=model,
                            trace=synthesize_trace(model, device))


# ----------------------------------------------------------------------
# the fused kernel (value-free: pattern baked, values per call)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _RegionExec:
    """One region's fused dia phase, fully precomputed from the plan."""

    slab_base: int
    nnz_per_segment: int
    nrs: int
    mrows: int
    start_row: int
    #: served y elements: ``min(nrs * mrows, nrows - start_row)``
    row_count: int
    #: per member diagonal, in emission order: ``(x window start
    #: relative to the padded x, dia_val diagonal slot)``
    terms: Tuple[Tuple[int, int], ...]


class FusedKernel:
    """Whole-matrix execution of one certified CRSD plan.

    Call signature: ``kernel(dia_val, scatter_val, x, y)`` over the
    flat device-layout arrays (column-major for SpMM); ``y`` is written
    in place, assumed pre-zeroed.  Only the plan and the scatter
    *index* arrays are baked — the instance holds no matrix values and
    is shared across same-pattern matrices.

    The arithmetic reproduces the generated codelets bit-for-bit: each
    diagonal contributes ``acc += v * x_window`` against a zero-padded
    x (the codelets' masked loads also return 0, so both sides execute
    the same IEEE operations in the same group/diagonal order), the
    prover-certified prefix guard turns the y store into one contiguous
    slice assignment, and the scatter phase overwrites its rows after
    the dia phase exactly like the second launch does.
    """

    def __init__(self, plan: KernelPlan,
                 scatter_colval: Optional[np.ndarray] = None,
                 scatter_rowno: Optional[np.ndarray] = None):
        self.plan = plan
        regions: List[_RegionExec] = []
        for r in plan.regions:
            terms: List[Tuple[int, int]] = []
            for g in r.groups:
                staged = (plan.use_local_memory and plan.nvec == 1
                          and g.kind == "AD")
                for j in range(g.ndiags):
                    # an AD tile provably holds the contiguous x window
                    # starting at colv[0]; tile[lid + j] is the direct
                    # load at colv[0] + j (the local-memory prover
                    # certified exactly this)
                    c = g.colv[0] + j if staged else g.colv[j]
                    terms.append((c, g.d_first + j))
            regions.append(_RegionExec(
                slab_base=r.slab_base,
                nnz_per_segment=r.nnz_per_segment,
                nrs=r.nrs, mrows=r.mrows, start_row=r.start_row,
                row_count=max(0, min(r.nrs * r.mrows,
                                     plan.nrows - r.start_row)),
                terms=tuple(terms)))
        self._regions = tuple(regions)
        # the padded x covers only the windows the terms read,
        # [min c, max c + span), and x's part of it is copied per call
        windows = [(c, c + r.nrs * r.mrows)
                   for r in regions for c, _ in r.terms]
        self._pad_lo = min((lo for lo, _ in windows), default=0)
        self._pad_hi = max((hi for _, hi in windows), default=0)
        self._x_lo = min(max(self._pad_lo, 0), plan.ncols)
        self._x_hi = max(min(self._pad_hi, plan.ncols), self._x_lo)
        if plan.scatter.num_rows:
            colv = np.asarray(scatter_colval)
            if colv.ndim == 2:  # host layout: transpose to device order
                colv = np.ascontiguousarray(colv.T).ravel()
            self._scol = colv.astype(np.int64, copy=False)
            self._srow = np.asarray(scatter_rowno,
                                    dtype=np.int64).ravel()
        else:
            self._scol = None
            self._srow = None

    # ------------------------------------------------------------------
    def __call__(self, dia_val: np.ndarray, scatter_val: np.ndarray,
                 x: np.ndarray, y: np.ndarray) -> None:
        plan = self.plan
        nvec, nrows, ncols = plan.nvec, plan.nrows, plan.ncols
        if self._regions:
            off = -self._pad_lo
            xpad = np.zeros((nvec, self._pad_hi - self._pad_lo),
                            dtype=x.dtype)
            x_lo, x_hi = self._x_lo, self._x_hi
            xpad[:, off + x_lo:off + x_hi] = \
                x.reshape(nvec, ncols)[:, x_lo:x_hi]
            for r in self._regions:
                m = r.mrows
                span = r.nrs * m
                slab = dia_val[r.slab_base:
                               r.slab_base + r.nrs * r.nnz_per_segment]
                slab = slab.reshape(r.nrs, r.nnz_per_segment)
                accs = [np.zeros((r.nrs, m), dtype=x.dtype)
                        for _ in range(nvec)]
                for c, d in r.terms:
                    v = slab[:, d * m:(d + 1) * m]
                    for j in range(nvec):
                        w = xpad[j, off + c:off + c + span]
                        accs[j] += v * w.reshape(r.nrs, m)
                for j in range(nvec):
                    lo = j * nrows + r.start_row
                    y[lo:lo + r.row_count] = \
                        accs[j].ravel()[:r.row_count]
        if self._srow is not None:
            num = self._srow.size
            xm = x.reshape(nvec, ncols)
            accs = [np.zeros(num, dtype=x.dtype) for _ in range(nvec)]
            for k in range(self.plan.scatter.width):
                c = self._scol[k * num:(k + 1) * num]
                v = scatter_val[k * num:(k + 1) * num]
                for j in range(nvec):
                    accs[j] += v * xm[j, c]
            for j in range(nvec):
                # rows pairwise distinct (certified): plain overwrite,
                # after the dia phase, like the second launch
                y[j * nrows + self._srow] = accs[j]


# ----------------------------------------------------------------------
# runner-facing bundle
# ----------------------------------------------------------------------
@dataclass
class FusedState:
    """Everything a runner needs to serve fused runs (pattern-pure)."""

    certificate: FusedCertificate
    kernel: FusedKernel
    #: synthesized trace of one traced run (copied per run)
    trace: KernelTrace
    work_groups: int = field(init=False, default=0)
    wavefronts: int = field(init=False, default=0)

    def __post_init__(self):
        self.work_groups = self.trace.work_groups
        self.wavefronts = self.trace.wavefronts

    def run_trace(self, trace: bool) -> KernelTrace:
        """A fresh :class:`KernelTrace` for one run (minimal counters —
        the launch geometry — when tracing is off, like the dynamic
        engines)."""
        if trace:
            return dataclasses.replace(self.trace)
        return KernelTrace(work_groups=self.work_groups,
                           wavefronts=self.wavefronts)


def build_fused_state(
    plan: KernelPlan,
    device: DeviceSpec,
    precision: str,
    scatter_colval: Optional[np.ndarray] = None,
    scatter_rowno: Optional[np.ndarray] = None,
    dia_val_size: Optional[int] = None,
) -> Tuple[Optional[FusedState], FusedCertificate]:
    """Certify ``plan`` and build the fused execution state.

    Returns ``(state, certificate)``; ``state`` is ``None`` when the
    provers decline (the certificate then carries the reasons).
    """
    cert = certify_plan(plan, device, precision,
                        scatter_colval=scatter_colval,
                        scatter_rowno=scatter_rowno,
                        dia_val_size=dia_val_size)
    if not cert.ok:
        return None, cert
    kernel = FusedKernel(plan, scatter_colval=scatter_colval,
                         scatter_rowno=scatter_rowno)
    return FusedState(certificate=cert, kernel=kernel,
                      trace=cert.trace), cert
