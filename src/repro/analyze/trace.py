"""Exact trace synthesis with the L2 model on.

:func:`~repro.analyze.coalescing.predict_trace` gives every counter a
traced run records on a device *without* an L2.  Residency is
order-dependent, so the L2 split cannot be closed-form; instead
:func:`synthesize_trace` rebuilds the segment streams a launch feeds
the cache — region codelets in launch order, then the scatter kernel,
each access in program order — and replays them with the same
:func:`~repro.ocl.memory.replay_streams` the batched engine's
:meth:`~repro.ocl.executor.BatchCtx.finalize` uses.  The absorbed load
transactions move into ``l2_hits``; every other counter is the
closed-form one.

This is the one L2-on oracle: the fused engine's synthesized traces,
the shard certificate's per-shard traces and the symmetric analyzer's
prediction all come from here.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analyze.coalescing import _itemsize_of, predict_trace
from repro.analyze.model import IndirectAccess, KernelModel
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.memory import SegmentCache, replay_streams, segment_streams
from repro.ocl.trace import KernelTrace

__all__ = ["synthesize_trace"]

#: one access's per-group segment streams, as :func:`replay_streams`
#: takes them: ``(is_load, buffer, segments, offsets)``
_Stream = Tuple[bool, str, np.ndarray, np.ndarray]


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


def _streams(accesses: Sequence[object], model: KernelModel,
             device: DeviceSpec) -> List[_Stream]:
    out: List[_Stream] = []
    for acc in accesses:
        if isinstance(acc, IndirectAccess):
            idx = np.asarray(acc.index_grid, dtype=np.int64)
            active, itemsize = acc.active, model.itemsize
        else:
            idx, active = acc.grid()
            itemsize = _itemsize_of(acc, model)
        _, segments, offsets, _ = segment_streams(
            idx, itemsize, device.wavefront_size, device.transaction_bytes,
            active)
        out.append((acc.kind == "load", acc.buffer, segments, offsets))
    return out


def synthesize_trace(model: KernelModel, device: DeviceSpec = TESLA_C2050,
                     base: Optional[KernelTrace] = None) -> KernelTrace:
    """The trace a traced execution of ``model`` records on ``device``.

    ``base`` is the L2-free closed-form prediction (recomputed when not
    supplied); the L2 split is replayed on top through one fresh
    :class:`~repro.ocl.memory.SegmentCache` shared by every launch of
    the model.  Stores replay as write-allocates.  Raises
    :class:`ValueError` when the model has scatter rows but no baked
    index data.  The result is a pure function of the model: call once
    and hand out copies.
    """
    if base is None:
        base = predict_trace(model, device)
    if base is None:
        raise ValueError("closed-form trace prediction unavailable for "
                         "this model (scatter rows without baked index "
                         "data)")
    tr = dataclasses.replace(base)
    if device.l2_bytes <= 0:
        return tr
    # replay units in execution order: each region codelet, then the
    # scatter kernel, all sharing one device-wide cache
    units = [(rm.region.nrs, rm.accesses) for rm in model.regions]
    if model.scatter is not None and model.scatter.num_rows:
        units.append((model.scatter.num_groups, _scatter_program(model)))
    cache = SegmentCache(device.l2_bytes, device.transaction_bytes)
    hits = 0
    for num_groups, accesses in units:
        streams = _streams(accesses, model, device)
        hits += replay_streams(cache, streams, num_groups)[1]
    tr.global_load_transactions -= hits
    tr.l2_hits += hits
    return tr
