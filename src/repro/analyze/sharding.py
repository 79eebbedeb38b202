"""Shard-plan certification: static provers for row-block partitioning.

The future multi-device serving cluster splits a CRSD SpMV into N
row-block shards, each executing the same generated codelets over the
segments (and scatter rows) whose start row falls inside its block,
against the full ``x``/``y`` address space.  For diagonal sparse
matrices that split is *statically* safe: the x elements shard ``i``
reads are exactly the halo interval

    [row_start + min_offset, row_end + max_offset)   clipped to bounds

derivable from the pattern's extreme diagonal offsets — no per-request
verification needed.  This module proves it, the same way
:func:`~repro.gpu_kernels.fused.certify_plan` gates the fused engine,
with four provers over the symbolic affine access model:

``shard-halo``
    every x read of shard ``i`` (affine dia loads, AD tile staging and
    scatter gathers alike) lies inside the shard's declared halo
    interval.  ELL fill slots are exempt: their gather multiplies by a
    structurally zero coefficient, so the value read is irrelevant and
    a cluster shard may serve it from any resident element.
``shard-disjoint``
    the per-shard y write sets (dia stores *and* scatter stores) stay
    inside their declared row blocks, are pairwise disjoint and union
    to exactly the unsharded write set — a segment straddling a shard
    boundary is caught here.
``shard-trace``
    the sum of the per-shard closed-form
    :class:`~repro.ocl.trace.KernelTrace` predictions equals the
    whole-matrix prediction: the dia phase counter-for-counter, the
    scatter phase modulo an exactly-computed wavefront repacking delta,
    and the L2-adjusted load transactions modulo the exactly-accounted
    halo re-read term (x lines fetched again because neighbouring
    shards' private L2s cannot share residency).
``shard-order``
    scatter overwrites stay deterministic: the per-shard scatter slices
    concatenate to the full sorted row list, and no scatter row's dia
    coverage executes in a *later* shard than its overwrite.

A plan that cannot be proven is *declined* with findings naming the
prover — never silently wrong.  Certification never raises for an
unprovable plan; a prover crash propagates to the caller.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analyze.coalescing import predict_scatter_trace, predict_trace
from repro.analyze.model import KernelModel, build_model
from repro.analyze.report import Finding
from repro.analyze.trace import synthesize_trace
from repro.codegen.plan import (
    GroupPlan,
    KernelPlan,
    RegionPlan,
    ScatterPlan,
    build_plan,
)
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.trace import KernelTrace

__all__ = [
    "ShardCertificate",
    "build_shard_subplan",
    "certify_shard_plan",
    "shard_segment_range",
]

#: trace counters that must be conserved exactly under any row-block
#: partition (work is work, wherever it runs)
INVARIANT_COUNTERS = (
    "flops",
    "global_load_bytes_useful",
    "global_store_bytes_useful",
    "local_load_bytes",
    "local_store_bytes",
    "barriers",
)

_TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(KernelTrace))


def shard_segment_range(start_row: int, nrs: int, mrows: int,
                        row_lo: int, row_hi: int) -> Tuple[int, int]:
    """Segments of a region owned by the row block ``[row_lo, row_hi)``.

    A segment belongs to the shard containing its *start* row, so the
    ranges of consecutive blocks partition ``[0, nrs)`` even when a
    boundary cuts a segment (the disjointness prover then rejects the
    plan — ownership stays well defined either way).
    """
    seg_lo = max(0, -(-(row_lo - start_row) // mrows))
    seg_hi = max(0, -(-(row_hi - start_row) // mrows))
    seg_lo = min(seg_lo, nrs)
    seg_hi = min(max(seg_lo, seg_hi), nrs)
    return seg_lo, seg_hi


def build_shard_subplan(plan: KernelPlan, row_start: int, row_end: int,
                        scatter_start: int = 0,
                        scatter_end: int = 0) -> KernelPlan:
    """The :class:`KernelPlan` of one shard, in *absolute* addressing.

    Every baked constant stays absolute — ``slab_base`` advances by the
    skipped segments' slots, ``start_row``/``colv`` by the skipped
    rows — so the shard's codelets execute against the full ``dia_val``
    / ``x`` / ``y`` buffers and compute bit-identically to the
    corresponding groups of the unsharded launch.  Only the scatter
    side structure is re-packed per shard (rows
    ``[scatter_start, scatter_end)`` of the sorted ELL arrays).
    """
    regions: List[RegionPlan] = []
    gid_base = 0
    for r in plan.regions:
        seg_lo, seg_hi = shard_segment_range(
            r.start_row, r.nrs, r.mrows, row_start, row_end)
        if seg_hi <= seg_lo:
            continue
        shift = seg_lo * r.mrows
        groups = tuple(
            GroupPlan(kind=g.kind, d_first=g.d_first, offsets=g.offsets,
                      colv=tuple(c + shift for c in g.colv))
            for g in r.groups
        )
        regions.append(RegionPlan(
            index=len(regions),
            gid_base=gid_base,
            slab_base=r.slab_base + seg_lo * r.nnz_per_segment,
            start_row=r.start_row + shift,
            nrs=seg_hi - seg_lo,
            mrows=r.mrows,
            nnz_per_segment=r.nnz_per_segment,
            groups=groups,
            signature=r.signature,
        ))
        gid_base += seg_hi - seg_lo
    return KernelPlan(
        nrows=plan.nrows,
        ncols=plan.ncols,
        mrows=plan.mrows,
        regions=tuple(regions),
        scatter=ScatterPlan(num_rows=max(0, scatter_end - scatter_start),
                            width=plan.scatter.width),
        use_local_memory=plan.use_local_memory,
        nvec=plan.nvec,
    )


# ----------------------------------------------------------------------
# certificate
# ----------------------------------------------------------------------
@dataclass
class ShardCertificate:
    """The provers' verdict on one row-block shard plan.

    ``ok`` gates shard-by-shard execution
    (:class:`~repro.shard.executor.ShardedSpMV` refuses uncertified
    plans); the findings name the violated prover otherwise.  A
    certified plan additionally carries the per-shard L2-adjusted trace
    predictions, the scatter wavefront-repacking delta and the exact
    halo re-read term, so the conservation statement

        sum(per_shard_traces) == whole_trace + scatter_repack
                                 + halo re-read (load transactions)

    is auditable from the certificate alone.
    """

    ok: bool
    num_shards: int
    shard_plan: object = None
    findings: List[Finding] = field(default_factory=list)
    subplans: Tuple[KernelPlan, ...] = ()
    #: per-shard L2-adjusted closed-form predictions (certified plans)
    per_shard_traces: Tuple[KernelTrace, ...] = ()
    #: unsharded L2-adjusted closed-form prediction
    whole_trace: Optional[KernelTrace] = None
    #: scatter-phase counter deltas caused by re-packing the scatter
    #: rows into per-shard wavefronts (sum(shards) - whole, exact)
    scatter_repack: Dict[str, int] = field(default_factory=dict)
    #: extra DRAM load transactions of per-shard private L2s vs one
    #: shared cache (signed, exact); None when not certified
    halo_reread_transactions: Optional[int] = None

    @property
    def reasons(self) -> Tuple[str, ...]:
        """One line per violated prover (empty when certified)."""
        return tuple(f"{f.check}: {f.where}: {f.message}"
                     for f in self.findings if f.severity == "error")

    def _trace_dict(self, tr: KernelTrace) -> Dict[str, int]:
        return {name: getattr(tr, name) for name in _TRACE_FIELDS}

    def to_dict(self) -> Dict:
        """JSON-serialisable certificate (the CLI/plan-cache payload)."""
        out: Dict = {
            "ok": self.ok,
            "num_shards": self.num_shards,
            "findings": [f.to_dict() for f in self.findings],
            "reasons": list(self.reasons),
            "scatter_repack": dict(self.scatter_repack),
            "halo_reread_transactions": self.halo_reread_transactions,
        }
        if self.shard_plan is not None and hasattr(self.shard_plan, "to_dict"):
            out["plan"] = self.shard_plan.to_dict()
        if self.whole_trace is not None:
            out["whole_trace"] = self._trace_dict(self.whole_trace)
        if self.per_shard_traces:
            out["per_shard_traces"] = [self._trace_dict(t)
                                       for t in self.per_shard_traces]
        return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def certify_shard_plan(
    matrix,
    shard_plan,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    use_local_memory: bool = True,
    nvec: int = 1,
) -> ShardCertificate:
    """Run the four shard provers over ``shard_plan`` for ``matrix``.

    ``matrix`` must be a :class:`~repro.core.crsd.CRSDMatrix` — the
    DIA/ELL/HYB rungs of the degradation ladder have no symbolic access
    model, so their plans are declined cleanly with the halo prover
    named.  Never raises for an unprovable plan; a prover crash
    propagates (callers file an incident for that case).
    """
    from repro.core.crsd import CRSDMatrix

    cert = ShardCertificate(ok=False, num_shards=shard_plan.num_shards,
                            shard_plan=shard_plan)
    if not isinstance(matrix, CRSDMatrix):
        fmt = getattr(matrix, "name", type(matrix).__name__)
        cert.findings.append(Finding(
            "shard-halo", "error", f"format {fmt}",
            "no symbolic access model for this format; halo coverage "
            "cannot be proven (only CRSD plans are certifiable)"))
        return cert
    plan = build_plan(matrix, use_local_memory=use_local_memory, nvec=nvec)
    if (shard_plan.nrows, shard_plan.ncols) != (plan.nrows, plan.ncols):
        cert.findings.append(Finding(
            "shard-disjoint", "error", "plan shape",
            f"shard plan covers {shard_plan.nrows}x{shard_plan.ncols} but "
            f"the matrix is {plan.nrows}x{plan.ncols}"))
        return cert
    whole_model = build_model(plan, precision=precision,
                              scatter_colval=matrix.scatter_colval,
                              scatter_rowno=matrix.scatter_rowno)
    subplans: List[KernelPlan] = []
    submodels: List[KernelModel] = []
    for spec in shard_plan.shards:
        sp = build_shard_subplan(plan, spec.row_start, spec.row_end,
                                 spec.scatter_start, spec.scatter_end)
        subplans.append(sp)
        submodels.append(build_model(
            sp, precision=precision,
            scatter_colval=matrix.scatter_colval[
                spec.scatter_start:spec.scatter_end],
            scatter_rowno=matrix.scatter_rowno[
                spec.scatter_start:spec.scatter_end]))
    cert.subplans = tuple(subplans)
    _check_halo(matrix, shard_plan, submodels, cert)
    _check_disjoint(whole_model, shard_plan, submodels, cert)
    _check_order(plan, matrix, shard_plan, cert)
    _check_trace(whole_model, submodels, device, cert)
    cert.ok = not any(f.severity == "error" for f in cert.findings)
    if not cert.ok:
        # an uncertified plan carries no conservation terms
        cert.per_shard_traces = ()
        cert.whole_trace = None
        cert.halo_reread_transactions = None
    return cert


# ----------------------------------------------------------------------
# prover 1: halo coverage
# ----------------------------------------------------------------------
def _check_halo(matrix, shard_plan, submodels: Sequence[KernelModel],
                cert: ShardCertificate) -> None:
    ncols = int(matrix.ncols)
    occ = matrix.scatter_occupancy
    for spec, model in zip(shard_plan.shards, submodels):
        where = f"shard {spec.index}"
        lo, hi = int(spec.halo_lo), int(spec.halo_hi)
        for rm in model.regions:
            for acc in rm.accesses:
                if acc.buffer != "x" or acc.nsegs <= 0 or acc.lanes <= 0:
                    continue
                # x guards are [vec_base, vec_base + ncols); fold the
                # SpMM vector stride out so the halo compares in
                # x-element space
                vec_base = acc.guard_lo if acc.guard_lo is not None else 0
                alo, ahi = acc.guarded_range()
                if alo > ahi:
                    continue  # every lane predicated off
                if alo - vec_base < lo or ahi - vec_base >= hi:
                    cert.findings.append(Finding(
                        "shard-halo", "error", f"{where} / {acc.label}",
                        f"x read range [{alo - vec_base}, "
                        f"{ahi - vec_base}] escapes the halo "
                        f"[{lo}, {hi})"))
        if model.scatter is None:
            continue
        sm = model.scatter
        rows = np.arange(spec.scatter_start, spec.scatter_end,
                         dtype=np.int64)
        for ind in sm.indirect:
            if ind.buffer != "x":
                continue
            if ind.index_grid is None:
                cert.findings.append(Finding(
                    "shard-halo", "error", f"{where} / {ind.label}",
                    "scatter gather carries no baked index data; halo "
                    "coverage cannot be proven"))
                continue
            grid = np.asarray(ind.index_grid, dtype=np.int64)
            active = (ind.active if ind.active is not None
                      else np.ones(grid.shape, dtype=bool))
            # exempt ELL fill slots: their stored coefficient is
            # structurally zero, so the gathered value never matters
            k = _ell_column_of(ind.label)
            occupied = active.copy()
            if k is not None and occ.size and rows.size:
                pos = (np.arange(sm.num_groups, dtype=np.int64)[:, None]
                       * sm.lanes
                       + np.arange(sm.lanes, dtype=np.int64)[None, :])
                safe = np.minimum(pos, max(0, sm.num_rows - 1))
                occupied &= occ[rows[safe], k]
            vals = grid[occupied]
            if vals.size == 0:
                continue
            rel = vals % ncols if ncols else vals
            vmin, vmax = int(rel.min()), int(rel.max())
            if vmin < lo or vmax >= hi:
                cert.findings.append(Finding(
                    "shard-halo", "error", f"{where} / {ind.label}",
                    f"scatter x gather range [{vmin}, {vmax}] escapes "
                    f"the halo [{lo}, {hi})"))


def _ell_column_of(label: str) -> Optional[int]:
    """The ELL column index baked into a scatter gather's label."""
    marker = "[k="
    pos = label.find(marker)
    if pos < 0:
        return None
    end = label.find("]", pos)
    try:
        return int(label[pos + len(marker):end])
    except ValueError:  # pragma: no cover - label format is ours
        return None


# ----------------------------------------------------------------------
# prover 2: cross-shard write disjointness
# ----------------------------------------------------------------------
def _write_mask(model: KernelModel) -> np.ndarray:
    """Boolean mask over the flat y buffer of every element written."""
    n = model.plan.nrows * model.plan.nvec
    mask = np.zeros(n, dtype=bool)
    for rm in model.regions:
        for acc in rm.accesses:
            if acc.buffer != "y" or acc.kind != "store":
                continue
            if acc.nsegs <= 0 or acc.lanes <= 0:
                continue
            idx, active = acc.grid()
            mask[idx[active]] = True
    if model.scatter is not None:
        for ind in model.scatter.indirect:
            if ind.buffer != "y" or ind.kind != "store":
                continue
            if ind.index_grid is None:
                continue
            active = (ind.active if ind.active is not None
                      else np.ones(ind.index_grid.shape, dtype=bool))
            mask[np.asarray(ind.index_grid, dtype=np.int64)[active]] = True
    return mask


def _check_disjoint(whole_model: KernelModel, shard_plan,
                    submodels: Sequence[KernelModel],
                    cert: ShardCertificate) -> None:
    nrows = whole_model.plan.nrows
    whole = _write_mask(whole_model)
    coverage = np.zeros(whole.size, dtype=np.int64)
    union = np.zeros(whole.size, dtype=bool)
    for spec, model in zip(shard_plan.shards, submodels):
        mask = _write_mask(model)
        rows = np.nonzero(mask)[0] % nrows
        outside = rows[(rows < spec.row_start) | (rows >= spec.row_end)]
        if outside.size:
            cert.findings.append(Finding(
                "shard-disjoint", "error", f"shard {spec.index}",
                f"{outside.size} y write(s) escape the declared row "
                f"block [{spec.row_start}, {spec.row_end}) — first at "
                f"row {int(outside[0])} (a segment straddles the "
                "boundary)"))
        coverage += mask
        union |= mask
    clash = np.nonzero(coverage > 1)[0]
    if clash.size:
        cert.findings.append(Finding(
            "shard-disjoint", "error", "cross-shard",
            f"{clash.size} y element(s) written by more than one shard "
            f"— first at flat index {int(clash[0])}"))
    diff = np.nonzero(union != whole)[0]
    if diff.size:
        cert.findings.append(Finding(
            "shard-disjoint", "error", "cross-shard",
            f"union of shard write sets differs from the unsharded "
            f"write set at {diff.size} element(s) — first at flat "
            f"index {int(diff[0])}"))


# ----------------------------------------------------------------------
# prover 4: deterministic scatter reduction order
# ----------------------------------------------------------------------
def _check_order(plan: KernelPlan, matrix, shard_plan,
                 cert: ShardCertificate) -> None:
    rowno = np.asarray(matrix.scatter_rowno, dtype=np.int64)
    if rowno.size == 0:
        return
    slices = [rowno[s.scatter_start:s.scatter_end]
              for s in shard_plan.shards]
    concat = (np.concatenate(slices) if slices
              else np.empty(0, dtype=np.int64))
    if concat.size != rowno.size or not np.array_equal(concat, rowno):
        cert.findings.append(Finding(
            "shard-order", "error", "scatter slices",
            "per-shard scatter slices do not concatenate to the full "
            "sorted scatter row list — overwrite order would drift "
            "from the unsharded launch"))
        return
    starts = np.asarray([s.row_start for s in shard_plan.shards],
                        dtype=np.int64)
    ends = np.asarray([s.row_end for s in shard_plan.shards],
                      dtype=np.int64)
    for r in rowno:
        owners = np.nonzero((starts <= r) & (r < ends))[0]
        if owners.size != 1:
            cert.findings.append(Finding(
                "shard-order", "error", f"scatter row {int(r)}",
                f"row is owned by {owners.size} shard blocks; expected "
                "exactly one"))
            continue
        scatter_shard = int(owners[0])
        dia_shard = _dia_shard_of(plan, shard_plan, int(r))
        if dia_shard is not None and dia_shard > scatter_shard:
            cert.findings.append(Finding(
                "shard-order", "error", f"scatter row {int(r)}",
                f"dia coverage executes in shard {dia_shard} after the "
                f"scatter overwrite in shard {scatter_shard} — the "
                "dia-before-scatter reduction order would invert"))


def _dia_shard_of(plan: KernelPlan, shard_plan, row: int) -> Optional[int]:
    """Index of the shard executing the dia segment covering ``row``
    (None when no region covers the row)."""
    for r in plan.regions:
        if r.start_row <= row < r.start_row + r.nrs * r.mrows:
            seg_start = (r.start_row
                         + ((row - r.start_row) // r.mrows) * r.mrows)
            for i, s in enumerate(shard_plan.shards):
                seg_lo, seg_hi = shard_segment_range(
                    r.start_row, r.nrs, r.mrows, s.row_start, s.row_end)
                first = r.start_row + seg_lo * r.mrows
                last = r.start_row + seg_hi * r.mrows
                if first <= seg_start < last:
                    return i
    return None


# ----------------------------------------------------------------------
# prover 3: trace conservation
# ----------------------------------------------------------------------
def _trace_sub(a: KernelTrace, b: KernelTrace) -> Dict[str, int]:
    return {name: getattr(a, name) - getattr(b, name)
            for name in _TRACE_FIELDS}


def _check_trace(whole_model: KernelModel, submodels: Sequence[KernelModel],
                 device: DeviceSpec, cert: ShardCertificate) -> None:
    whole_base = predict_trace(whole_model, device)
    whole_scatter = predict_scatter_trace(whole_model, device)
    if whole_base is None or whole_scatter is None:
        cert.findings.append(Finding(
            "shard-trace", "error", "whole matrix",
            "closed-form trace prediction unavailable (indirect access "
            "without baked index data)"))
        return
    shard_bases: List[KernelTrace] = []
    shard_scatters: List[KernelTrace] = []
    for i, model in enumerate(submodels):
        base = predict_trace(model, device)
        scat = predict_scatter_trace(model, device)
        if base is None or scat is None:
            cert.findings.append(Finding(
                "shard-trace", "error", f"shard {i}",
                "closed-form trace prediction unavailable for the "
                "shard sub-plan"))
            return
        shard_bases.append(base)
        shard_scatters.append(scat)
    # dia phase: exactly additive, counter for counter
    whole_dia = _trace_sub(whole_base, whole_scatter)
    for name in _TRACE_FIELDS:
        total = sum(getattr(b, name) - getattr(s, name)
                    for b, s in zip(shard_bases, shard_scatters))
        if total != whole_dia[name]:
            cert.findings.append(Finding(
                "shard-trace", "error", "dia phase",
                f"counter {name} not conserved: shards sum to {total}, "
                f"whole matrix predicts {whole_dia[name]}"))
    # scatter phase: work counters exactly additive; the geometry /
    # request / transaction counters shift by the wavefront re-packing
    # of the per-shard row slices — computed exactly and carried
    repack: Dict[str, int] = {}
    for name in _TRACE_FIELDS:
        total = sum(getattr(s, name) for s in shard_scatters)
        delta = total - getattr(whole_scatter, name)
        if name in INVARIANT_COUNTERS:
            if delta:
                cert.findings.append(Finding(
                    "shard-trace", "error", "scatter phase",
                    f"counter {name} not conserved: shards sum to "
                    f"{total}, whole matrix predicts "
                    f"{getattr(whole_scatter, name)}"))
        elif delta:
            repack[name] = delta
    cert.scatter_repack = repack
    if any(f.severity == "error" and f.check == "shard-trace"
           for f in cert.findings):
        return
    # L2 split: replay each shard through its own private cache and the
    # whole launch through one shared cache; totals must agree modulo
    # the repacking delta, and the DRAM-side difference is the exact
    # halo re-read term
    whole_l2 = synthesize_trace(whole_model, device)
    shard_l2 = tuple(synthesize_trace(m, device) for m in submodels)
    lhs = sum(t.l2_hits + t.global_load_transactions for t in shard_l2)
    rhs = (whole_l2.l2_hits + whole_l2.global_load_transactions
           + repack.get("global_load_transactions", 0))
    if lhs != rhs:
        cert.findings.append(Finding(
            "shard-trace", "error", "L2 replay",
            f"total load transactions not conserved under the L2 "
            f"split: shards account for {lhs}, whole matrix for {rhs}"))
        return
    cert.whole_trace = whole_l2
    cert.per_shard_traces = shard_l2
    cert.halo_reread_transactions = (
        sum(t.global_load_transactions for t in shard_l2)
        - whole_l2.global_load_transactions
        - repack.get("global_load_transactions", 0))
