"""Analyzer-certified fused execution of CRSD launches.

The default execution engine for CRSD runners (``REPRO_EXECUTOR=fused``)
runs a whole CrsdSpMV/CrsdSpMM launch, or one shard's launches, as a
few NumPy statements per CRSD region — one row-gather of the region's
x windows, one multiply of that block against the region's slab, one
contiguous add per diagonal in plan order, one slice store (the
scatter phase likewise: one gather-multiply, one add per ELL column)
— instead of simulating the kernel per work-group or per grid
statement.  That is only sound when the launch is *proven*
well-behaved, so entry is gated on the static analyzer:

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

The kernel takes its x window starts and its slab-slot check from
:func:`~repro.codegen.plan.region_terms`, the term list both emitters
and the access model read: it is the single source of addresses.  A
term shape the kernel does not lower (a SYM plan's diagonal-major runs
and guarded mirror terms) makes :func:`certify_plan` decline the plan,
and :class:`FusedKernel` refuse it, naming the term.

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
from repro.codegen.plan import KernelPlan, RegionPlan, region_terms
from repro.ocl.device import DeviceSpec
from repro.ocl.errors import LaunchError
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
    """Run the bounds, local-memory and write-disjointness provers, and
    check that :class:`FusedKernel` lowers every term of the plan.

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
    for region in plan.regions:
        try:
            _window_starts(plan, region)
        except ValueError as exc:
            reasons.append(str(exc))
    if reasons:
        return FusedCertificate(ok=False, reasons=tuple(reasons),
                                model=model)
    return FusedCertificate(ok=True, model=model,
                            trace=synthesize_trace(model, device))


# ----------------------------------------------------------------------
# the fused kernel (value-free: pattern baked, values per call)
# ----------------------------------------------------------------------
def _window_starts(plan: KernelPlan, region: RegionPlan) -> List[int]:
    """The x window start of each of ``region``'s terms.

    The kernel reads term ``t`` from slot ``t`` of the term-major slab
    view, so every term must be an unguarded segment-major slab slot,
    in slot order, and the terms must fill the segment; any other term
    shape raises ``ValueError``.  A term staged through an AD tile
    reads its window directly: the local-memory prover certified that
    the tile holds it.
    """
    m, nnz = region.mrows, region.nnz_per_segment
    terms = region_terms(plan, region)
    for i, t in enumerate(terms):
        slot = region.slab_base + i * m
        if (t.slab_guard is not None or t.slab_stride != nnz
                or t.slab != slot):
            guard = ("" if t.slab_guard is None
                     else f" guarded by >= {t.slab_guard}")
            raise ValueError(
                f"region {region.index} term {i} ({t.group.kind} offset "
                f"{t.offset}) reads slab {t.slab} + seg * "
                f"{t.slab_stride}{guard}, not segment slot {slot} + seg "
                f"* {nnz}: the fused kernel lowers only terms that fill "
                "the segment slots in order")
    if nnz != len(terms) * m:
        raise ValueError(f"region {region.index}: {len(terms)} terms do "
                         f"not fill the {nnz}-element segment slots")
    return [t.col for t in terms]


@dataclass(frozen=True)
class _RegionExec:
    """One region's fused dia phase, fully precomputed from the plan."""

    slab_base: int
    nrs: int
    mrows: int
    start_row: int
    #: served y elements: ``min(nrs * mrows, nrows - start_row)``
    row_count: int
    #: per member diagonal, in storage (= emission) order: the start of
    #: its x window in the padded x
    starts: np.ndarray


class FusedKernel:
    """Whole-matrix execution of one certified CRSD plan.

    Call signature: ``kernel(dia_val, scatter_val, x, y)`` over the
    flat device-layout arrays (column-major for SpMM), all of one dtype
    (the ``out=`` products round in it, so a mix raises
    :class:`~repro.ocl.errors.LaunchError`); ``y`` is written in place.
    Only the plan and the scatter *index* arrays are baked — the
    instance holds no matrix values and is shared across same-pattern
    matrices.

    A region is one block: one row-gather of its ``nt`` x windows (all
    vectors at once) from a zero-padded x, one multiply against the
    slab viewed term-major, ``nt`` adds into an accumulator that starts
    at ``+0``, one slice store.  That reproduces the generated codelets
    bit-for-bit: every row forms the same products (masked loads return
    0 like the padding; fill zeros are multiplied too, so ``0 * inf``
    stays NaN) and adds them to ``+0`` in diagonal order, and the
    prover-certified prefix guard makes the store one slice (a NaN's
    sign and payload aside: which NaN an add of two returns depends on
    numpy's loop, see :func:`~repro.gpu_kernels.crsd_runner.y_bits`).  The
    scatter phase is one gather-multiply, one add per ELL column, and
    an overwrite of its rows after the dia phase, like the second
    launch.
    """

    def __init__(self, plan: KernelPlan,
                 scatter_colval: Optional[np.ndarray] = None,
                 scatter_rowno: Optional[np.ndarray] = None):
        self.plan = plan
        cols = [_window_starts(plan, r) for r in plan.regions]
        self._pad_lo = min((min(c) for c in cols if c), default=0)
        self._regions = tuple(
            _RegionExec(
                slab_base=r.slab_base, nrs=r.nrs, mrows=r.mrows,
                start_row=r.start_row,
                row_count=max(0, min(r.nrs * r.mrows,
                                     plan.nrows - r.start_row)),
                starts=np.array(c, dtype=np.int64) - self._pad_lo)
            for r, c in zip(plan.regions, cols))
        # the padded x holds a window of the widest span at every start
        self._span = max((r.nrs * r.mrows for r in plan.regions), default=0)
        self._pad_len = self._span + max(
            (int(r.starts.max()) for r in self._regions if r.starts.size),
            default=0)
        self._x_lo = min(max(self._pad_lo, 0), plan.ncols)
        self._x_hi = max(min(self._pad_lo + self._pad_len, plan.ncols),
                         self._x_lo)
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
        nvec, nrows, ncols, dt = plan.nvec, plan.nrows, plan.ncols, x.dtype
        if not dia_val.dtype == scatter_val.dtype == y.dtype == dt:
            raise LaunchError(
                f"fused kernel arguments mix dtypes: dia_val "
                f"{dia_val.dtype}, scatter_val {scatter_val.dtype}, "
                f"x {dt}, y {y.dtype}")
        xm, ym = x.reshape(nvec, ncols), y.reshape(nvec, nrows)
        n, s, lo, hi = self._pad_len, self._span, self._x_lo, self._x_hi
        xpad = np.zeros((nvec, n), dtype=dt)
        xpad[:, lo - self._pad_lo:hi - self._pad_lo] = xm[:, lo:hi]
        # win[i, j] is the window xpad[j, i:i + s]
        win = np.ndarray((n - s + 1, nvec, s), dtype=dt, buffer=xpad,
                         strides=(dt.itemsize, n * dt.itemsize, dt.itemsize))
        for r in self._regions:
            nt, m, span = r.starts.size, r.mrows, r.nrs * r.mrows
            p = win[r.starts, :, :span].reshape(nt, nvec, r.nrs, m)
            v = dia_val[r.slab_base:r.slab_base + span * nt]
            np.multiply(v.reshape(r.nrs, nt, 1, m).transpose(1, 2, 0, 3), p,
                        out=p)
            acc = np.zeros(nvec * span, dtype=dt)
            for term in p.reshape(nt, nvec * span):
                acc += term
            ym[:, r.start_row:r.start_row + r.row_count] = \
                acc.reshape(nvec, span)[:, :r.row_count]
        if self._srow is not None:
            num, width = self._srow.size, plan.scatter.width
            p = xm[:, self._scol].reshape(nvec, width, num)
            np.multiply(scatter_val.reshape(width, num), p, out=p)
            acc = np.zeros((nvec, num), dtype=dt)
            for term in p.transpose(1, 0, 2):
                acc += term
            # rows pairwise distinct (certified): plain overwrite,
            # after the dia phase, like the second launch
            ym[:, self._srow] = acc


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
