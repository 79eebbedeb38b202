"""Coalescing linter and exact static trace prediction.

Every access the generator emits is lane-contiguous (``lane_coeff ==
1``): a wavefront touches one run of consecutive elements, which is the
paper's coalescing claim (Section III-B/IV: work-item ``i`` of a
segment reads slab position ``d*mrows + i`` — consecutive lanes,
consecutive addresses, stride ``mrows`` *between* diagonals).  The
linter proves that property symbolically and, because every base
address and guard is a literal, goes further: it computes the *exact*
per-wavefront transaction counts the dynamic trace would record — no
kernel execution, just closed-form arithmetic over the ``(seg, lane)``
iteration space.

The prediction corresponds to a device with the L2 model disabled
(``l2_bytes=0``): coalescing is a property of the access pattern; L2
residency is orthogonal and order-dependent.  Differential tests run
the real kernels on such a device and assert counter equality
bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.analyze.model import GlobalAccess, IndirectAccess, KernelModel
from repro.analyze.report import AnalysisReport
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.memory import segment_streams
from repro.ocl.trace import KernelTrace


def predict_trace(model: KernelModel,
                  device: DeviceSpec = TESLA_C2050) -> Optional[KernelTrace]:
    """Exact static :class:`KernelTrace` prediction (L2 disabled).

    Returns ``None`` when the matrix has scatter rows but the model was
    built without the scatter index data (the indirect accesses are
    then unpredictable).
    """
    if model.scatter_unindexed:
        return None
    tr = launch_counters(model, device)
    for rm in model.regions:
        for acc in rm.accesses:
            _count_affine(tr, acc, model, device)
    sm = model.scatter
    if sm is not None:
        for acc in sm.accesses:
            _count_affine(tr, acc, model, device)
        for ind in sm.indirect:
            _count_indirect(tr, ind, model, device)
    return tr


def launch_counters(model: KernelModel,
                    device: DeviceSpec = TESLA_C2050) -> KernelTrace:
    """The counters of every launch of ``model`` that do not depend on
    addresses: work-groups, wavefronts, local-memory bytes, barriers
    and flops (the scatter kernel's share included)."""
    tr = KernelTrace()
    wf_per_group = -(-model.lanes // device.wavefront_size)
    tr.work_groups = model.plan.num_groups
    tr.wavefronts = model.plan.num_groups * wf_per_group
    for rm in model.regions:
        nrs = rm.region.nrs
        for op in rm.local_ops:
            if op.op == "store":
                tr.local_store_bytes += op.lane_bound * model.itemsize * nrs
            elif op.op == "load":
                tr.local_load_bytes += op.lane_bound * model.itemsize * nrs
        tr.barriers += rm.barriers_per_group * nrs
        tr.flops += rm.flops_per_group * nrs
    sm = model.scatter
    if sm is not None:
        tr.work_groups += sm.num_groups
        tr.wavefronts += sm.num_groups * wf_per_group
        tr.flops += sm.flops_total
    return tr


def predict_scatter_trace(model: KernelModel,
                          device: DeviceSpec = TESLA_C2050
                          ) -> Optional[KernelTrace]:
    """The scatter launch's share of :func:`predict_trace` (all zeros
    without a scatter kernel; ``None`` without its index data)."""
    tr = KernelTrace()
    sm = model.scatter
    if sm is None:
        return tr
    tr.work_groups = sm.num_groups
    tr.wavefronts = sm.num_groups * -(-model.lanes // device.wavefront_size)
    for acc in sm.accesses:
        _count_affine(tr, acc, model, device)
    for ind in sm.indirect:
        if ind.index_grid is None:
            return None
        _count_indirect(tr, ind, model, device)
    tr.flops = sm.flops_total
    return tr


def check_coalescing(model: KernelModel, report: AnalysisReport,
                     device: DeviceSpec = TESLA_C2050) -> None:
    """Lint lane contiguity and fill the report's static predictions."""
    for rm in model.regions:
        _lint_contiguity(rm.accesses, f"region {rm.region.index}", report)
    if model.scatter is not None:
        _lint_contiguity(model.scatter.accesses, "scatter", report)
        for ind in model.scatter.indirect:
            if ind.index_grid is None:
                report.add(
                    "coalescing", "info", "scatter",
                    f"{ind.label}: data-dependent gather; supply the "
                    "scatter index arrays for an exact prediction",
                )
    tr = predict_trace(model, device)
    report.predicted = tr
    if tr is not None:
        report.load_coalescing_efficiency = tr.load_coalescing_efficiency(
            model.itemsize, device.transaction_bytes)
        report.store_coalescing_efficiency = tr.store_coalescing_efficiency(
            device.transaction_bytes)
    # the paper's headline claim: with mrows a multiple of the
    # wavefront, the dia_val slab loads coalesce perfectly
    if (model.plan.regions and model.plan.mrows % device.wavefront_size == 0):
        eff = _dia_val_efficiency(model, device)
        if eff is not None and eff < 1.0:
            report.add(
                "coalescing", "error", "dia kernel",
                f"crsd_dia_val loads are not perfectly coalesced "
                f"(static efficiency {eff:.4f} < 1.0) although mrows="
                f"{model.plan.mrows} is wavefront-aligned",
            )


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------

def _count_affine(tr: KernelTrace, acc: GlobalAccess, model: KernelModel,
                  device: DeviceSpec) -> None:
    req, txn, useful = _affine_traffic(acc, model, device)
    if acc.kind == "load":
        tr.global_load_requests += req
        tr.global_load_transactions += txn
        tr.global_load_bytes_useful += useful
    else:
        tr.global_store_requests += req
        tr.global_store_transactions += txn
        tr.global_store_bytes_useful += useful


def _itemsize_of(acc: GlobalAccess, model: KernelModel) -> int:
    if acc.buffer in ("scatter_colval", "scatter_rowno"):
        return model.index_itemsize
    return model.itemsize


def _affine_traffic(acc: GlobalAccess, model: KernelModel,
                    device: DeviceSpec):
    """(requests, transactions, useful_bytes) of one affine access over
    its full launch range — closed form per (seg, wavefront)."""
    b = _itemsize_of(acc, model)
    T = device.transaction_bytes
    w = device.wavefront_size
    if acc.nsegs <= 0 or acc.lanes <= 0:
        return 0, 0, 0
    if acc.lane_coeff != 1:
        return _affine_traffic_slow(acc, model, device)
    segs = np.arange(acc.nsegs, dtype=np.int64)
    base_s = acc.base + acc.seg_coeff * segs
    # active lane window [alo, ahi) per seg
    alo = np.zeros(acc.nsegs, dtype=np.int64)
    ahi = np.full(acc.nsegs, acc.lanes, dtype=np.int64)
    if acc.lane_bound is not None:
        np.minimum(ahi, acc.lane_bound, out=ahi)
    if acc.guard_lo is not None:
        np.maximum(alo, acc.guard_lo - base_s, out=alo)
    if acc.guard_hi is not None:
        np.minimum(ahi, acc.guard_hi - base_s, out=ahi)
    req = txn = useful = 0
    nwf = -(-acc.lanes // w)
    for wf in range(nwf):
        c0, c1 = wf * w, min((wf + 1) * w, acc.lanes)
        lo = np.maximum(alo, c0)
        hi = np.minimum(ahi, c1)
        cnt = hi - lo
        live = cnt > 0
        n_live = int(np.count_nonzero(live))
        if not n_live:
            continue
        req += n_live
        useful += int(cnt[live].sum()) * b
        first = (base_s[live] + lo[live]) * b // T
        last = (base_s[live] + hi[live] - 1) * b // T
        txn += int((last - first).sum()) + n_live
    return req, txn, useful


def _affine_traffic_slow(acc: GlobalAccess, model: KernelModel,
                         device: DeviceSpec):
    """Fallback for non-unit lane strides (only reachable from
    deliberately corrupted models): enumerate lanes explicitly."""
    idx, active = acc.grid()
    req, segments, _, useful = segment_streams(
        idx, _itemsize_of(acc, model), device.wavefront_size,
        device.transaction_bytes, active)
    return req, int(segments.size), useful


def _count_indirect(tr: KernelTrace, ind: IndirectAccess,
                    model: KernelModel, device: DeviceSpec) -> None:
    req, segments, _, useful = segment_streams(
        np.asarray(ind.index_grid, dtype=np.int64),
        model.itemsize,  # x and y hold reals
        device.wavefront_size, device.transaction_bytes, ind.active)
    if ind.kind == "load":
        tr.global_load_requests += req
        tr.global_load_transactions += int(segments.size)
        tr.global_load_bytes_useful += useful
    else:
        tr.global_store_requests += req
        tr.global_store_transactions += int(segments.size)
        tr.global_store_bytes_useful += useful


# ----------------------------------------------------------------------
# lint
# ----------------------------------------------------------------------

def _lint_contiguity(accesses: Iterable[GlobalAccess], where: str,
                     report: AnalysisReport) -> None:
    for acc in accesses:
        if acc.lane_coeff != 1:
            report.add(
                "coalescing", "error", where,
                f"{acc.label}: lane stride {acc.lane_coeff} != 1 — "
                "wavefront accesses are not contiguous and cannot "
                "coalesce",
            )


def _dia_val_efficiency(model: KernelModel,
                        device: DeviceSpec) -> Optional[float]:
    tr = KernelTrace()
    found = False
    for rm in model.regions:
        for acc in rm.accesses:
            if acc.buffer == "dia_val" and acc.lane_coeff == 1:
                _count_affine(tr, acc, model, device)
                found = True
    if not found:
        return None
    return tr.load_coalescing_efficiency(model.itemsize,
                                         device.transaction_bytes)
