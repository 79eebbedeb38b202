"""Exact trace synthesis with the L2 model on: one walk per model.

:func:`synthesize_trace` computes the :class:`KernelTrace` a traced
execution of a model records, every counter and the L2 split, from a
single walk over its launch units: each region codelet in launch
order, then the scatter kernel.  Per unit it stacks every global
access — affine and indirect, in program order — into one
``(accesses × groups, lanes)`` grid of *byte* addresses and counts it
with one :func:`~repro.ocl.memory.count_rows` pass (in batches of at
most :data:`WALK_BATCH_LANES` lanes), the helper the batched engine's
:class:`~repro.ocl.executor.BatchCtx` counts with.  That pass yields
each access's requests (active wavefronts), transactions (segments per
group) and useful bytes, and the access-major segment rows, which go
through the same :func:`~repro.ocl.memory.replay_rows` the batched
engine's :meth:`~repro.ocl.executor.BatchCtx.finalize` uses: the
absorbed load transactions move into ``l2_hits``.  The counters
that do not depend on addresses (geometry, local-memory bytes,
barriers, flops) are :func:`~repro.analyze.coalescing.launch_counters`.

This is the one L2-on oracle: the fused engine's synthesized traces,
the shard certificate's per-shard traces and the symmetric analyzer's
prediction all come from here.  The closed-form
:func:`~repro.analyze.coalescing.predict_trace` stays independent of
it; on an L2-free device the two must agree counter for counter.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.analyze.coalescing import _itemsize_of, launch_counters
from repro.analyze.model import IndirectAccess, KernelModel
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.memory import SegmentCache, count_rows, replay_rows
from repro.ocl.trace import KernelTrace

__all__ = ["WALK_BATCH_LANES", "synthesize_trace"]

#: most lanes one stacked address grid holds (bounds the walk's memory)
WALK_BATCH_LANES = 1 << 18

#: one launch unit's rows, as :func:`replay_rows` takes them:
#: ``(segments, offsets, buffers, is_load)``
_Rows = Tuple[np.ndarray, np.ndarray, List[str], np.ndarray]

_NO_LO = np.iinfo(np.int64).min
_NO_HI = np.iinfo(np.int64).max


def _scatter_program(model: KernelModel) -> List[object]:
    """The scatter kernel's accesses in emitted statement order: per
    ELL column the colval load, the val load and the ``nvec`` x
    gathers; then the rowno load; then the ``nvec`` y stores."""
    sm = model.scatter
    nvec = model.plan.nvec
    ordered: List[object] = []
    for k in range(sm.width):
        ordered.append(sm.accesses[2 * k])        # scatter_colval
        ordered.append(sm.accesses[2 * k + 1])    # scatter_val
        ordered.extend(sm.indirect[k * nvec:(k + 1) * nvec])
    ordered.append(sm.accesses[-1])               # scatter_rowno
    ordered.extend(sm.indirect[sm.width * nvec:])  # y stores
    return ordered


def _walk_unit(accesses: Sequence[object], model: KernelModel,
               device: DeviceSpec, tr: KernelTrace) -> _Rows:
    """Count one launch unit's ``accesses`` (program order) into ``tr``
    and return their access-major segment rows."""
    n = len(accesses)
    # per-access parameters of the affine rule; indirect accesses get
    # placeholders and have their rows overwritten from the index grid
    params = np.zeros((7, n), dtype=np.int64)
    base, segc, lanec, bound, glo, ghi, isz = params
    rows = np.zeros(n, dtype=np.int64)
    is_load = np.zeros(n, dtype=bool)
    indirect: List[int] = []
    lanes = 0
    for i, acc in enumerate(accesses):
        is_load[i] = acc.kind == "load"
        if isinstance(acc, IndirectAccess):
            indirect.append(i)
            rows[i], width = acc.index_grid.shape
            isz[i] = model.itemsize  # x and y hold reals
            lanes = max(lanes, width)
            continue
        rows[i] = max(0, acc.nsegs)
        lanes = max(lanes, acc.lanes)
        base[i], segc[i], lanec[i] = acc.base, acc.seg_coeff, acc.lane_coeff
        bound[i] = (acc.lanes if acc.lane_bound is None
                    else min(acc.lane_bound, acc.lanes))
        glo[i] = _NO_LO if acc.guard_lo is None else acc.guard_lo
        ghi[i] = _NO_HI if acc.guard_hi is None else acc.guard_hi
        isz[i] = _itemsize_of(acc, model)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(rows, out=starts[1:])
    total = int(starts[-1])
    acc_of_row = np.repeat(np.arange(n), rows)
    grp_of_row = np.arange(total, dtype=np.int64) - starts[acc_of_row]
    w = device.wavefront_size
    span = -(-lanes // w) * w        # padding lanes fall outside bounds
    lane = np.arange(span, dtype=np.int64)
    step = max(1, WALK_BATCH_LANES // max(span, 1))
    seg_parts: List[np.ndarray] = []
    offsets = np.zeros(total + 1, dtype=np.int64)
    for r0 in range(0, total, step):
        r1 = min(total, r0 + step)
        a = acc_of_row[r0:r1]
        idx = ((base[a] + segc[a] * grp_of_row[r0:r1])[:, None]
               + lanec[a][:, None] * lane)
        active = ((lane < bound[a][:, None]) & (idx >= glo[a][:, None])
                  & (idx < ghi[a][:, None]))
        for i in indirect:
            lo, hi = max(int(starts[i]), r0), min(int(starts[i + 1]), r1)
            if lo >= hi:
                continue
            acc = accesses[i]
            g0, g1 = lo - int(starts[i]), hi - int(starts[i])
            grid = np.asarray(acc.index_grid[g0:g1], dtype=np.int64)
            live = grid >= 0 if acc.active is None else acc.active[g0:g1]
            width = grid.shape[1]
            idx[lo - r0:hi - r0, :width] = grid
            active[lo - r0:hi - r0] = False
            active[lo - r0:hi - r0, :width] = live
        idx *= isz[a][:, None]       # byte addresses
        segments, offs = count_rows(tr, idx, active, isz[a], is_load[a],
                                    w, device.transaction_bytes)
        seg_parts.append(segments)
        offsets[r0 + 1:r1 + 1] = offs[1:] + offsets[r0]
    segments = (np.concatenate(seg_parts) if seg_parts
                else np.empty(0, dtype=np.int64))
    return segments, offsets, [acc.buffer for acc in accesses], is_load


def synthesize_trace(model: KernelModel,
                     device: DeviceSpec = TESLA_C2050) -> KernelTrace:
    """The trace a traced execution of ``model`` records on ``device``.

    One walk over the launch units gives every counter; when the
    device has an L2, the units' segment streams are replayed through
    one fresh :class:`~repro.ocl.memory.SegmentCache` shared by every
    launch of the model.  Stores replay as write-allocates.  Raises
    :class:`ValueError` when the model has scatter rows but no baked
    index data.  The result is a pure function of the model: call once
    and hand out copies.
    """
    if model.scatter_unindexed:
        raise ValueError("trace synthesis unavailable for this model "
                         "(scatter rows without baked index data)")
    tr = launch_counters(model, device)
    cache = (SegmentCache(device.l2_bytes, device.transaction_bytes)
             if device.l2_bytes > 0 else None)
    # launch units in execution order: each region codelet, then the
    # scatter kernel, all sharing one device-wide cache
    units = [(rm.region.nrs, rm.accesses) for rm in model.regions]
    if model.scatter is not None:
        units.append((model.scatter.num_groups, _scatter_program(model)))
    hits = 0
    for num_groups, accesses in units:
        segments, offsets, buffers, is_load = _walk_unit(
            accesses, model, device, tr)
        if cache is not None:
            hits += replay_rows(cache, segments, offsets, buffers, is_load,
                                num_groups)[1]
    tr.global_load_transactions -= hits
    tr.l2_hits += hits
    return tr
