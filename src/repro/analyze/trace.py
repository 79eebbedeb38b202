"""Exact trace synthesis with the L2 model on: one walk per model.

:func:`synthesize_trace` computes the :class:`KernelTrace` a traced
execution of a model records, every counter and the L2 split, from a
single walk over its launch units: each region codelet in launch
order, then the scatter kernel.  Per unit it stacks every global
access — affine and indirect, in program order — into one
``(accesses × groups, lanes)`` grid of *byte* addresses and runs
:func:`~repro.ocl.memory.segment_streams` over it once (in batches of
at most :data:`WALK_BATCH_LANES` lanes).  That one pass yields each
access's requests (active wavefronts), transactions (segments per
group) and useful bytes, and the per-group segment streams, which are
replayed through the same :func:`~repro.ocl.memory.replay_streams` the
batched engine's :meth:`~repro.ocl.executor.BatchCtx.finalize` uses:
the absorbed load transactions move into ``l2_hits``.  The counters
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
from repro.ocl.memory import SegmentCache, replay_streams, segment_streams
from repro.ocl.trace import KernelTrace

__all__ = ["WALK_BATCH_LANES", "synthesize_trace"]

#: most lanes one stacked address grid holds (bounds the walk's memory)
WALK_BATCH_LANES = 1 << 18

#: one access's per-group segment streams, as :func:`replay_streams`
#: takes them: ``(is_load, buffer, segments, offsets)``
_Stream = Tuple[bool, str, np.ndarray, np.ndarray]

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
               device: DeviceSpec, tr: KernelTrace) -> List[_Stream]:
    """Count one launch unit's ``accesses`` (program order) into ``tr``
    and return their per-group segment streams."""
    n = len(accesses)
    if not n:
        return []
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
    w, tbytes = device.wavefront_size, device.transaction_bytes
    nwf = -(-lanes // w)
    lane = np.arange(lanes, dtype=np.int64)
    step = max(1, WALK_BATCH_LANES // max(lanes, 1))
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
        _, segments, offs, _ = segment_streams(
            idx * isz[a][:, None], 1, w, tbytes, active)
        seg_parts.append(segments)
        offsets[r0 + 1:r1 + 1] = offs[1:] + offsets[r0]
        # per row: active wavefronts, transactions, useful bytes
        padded = active
        if nwf * w != lanes:
            padded = np.zeros((r1 - r0, nwf * w), dtype=bool)
            padded[:, :lanes] = active
        req = padded.reshape(r1 - r0, nwf, w).any(axis=2).sum(axis=1)
        txn = np.diff(offs)
        useful = active.sum(axis=1) * isz[a]
        ld = is_load[a]
        st = ~ld
        tr.global_load_requests += int(req[ld].sum())
        tr.global_load_transactions += int(txn[ld].sum())
        tr.global_load_bytes_useful += int(useful[ld].sum())
        tr.global_store_requests += int(req[st].sum())
        tr.global_store_transactions += int(txn[st].sum())
        tr.global_store_bytes_useful += int(useful[st].sum())
    segments = (np.concatenate(seg_parts) if seg_parts
                else np.empty(0, dtype=np.int64))
    streams: List[_Stream] = []
    for i, acc in enumerate(accesses):
        offs = offsets[starts[i]:starts[i + 1] + 1]
        lo = int(offs[0])
        streams.append((bool(is_load[i]), acc.buffer,
                        segments[lo:int(offs[-1])], offs - lo))
    return streams


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
        streams = _walk_unit(accesses, model, device, tr)
        if cache is not None:
            hits += replay_streams(cache, streams, num_groups)[1]
    tr.global_load_transactions -= hits
    tr.l2_hits += hits
    return tr
