"""Simulated device memory objects.

:class:`Buffer` is a global-memory allocation (capacity-checked by the
:class:`~repro.ocl.executor.Context`); :class:`LocalBuffer` is a
work-group-local scratch allocation (capacity-checked against the CU's
local memory).  Kernels never index these directly — all access goes
through the :class:`~repro.ocl.executor.WorkGroupCtx` so that every
load/store is traced.

The coalescing and L2 rules live here too, once: the per-wavefront
segment rule (:func:`wavefront_segments` for one access,
:func:`segment_streams` for a whole ``(groups, lanes)`` grid) and the
group-major LRU replay (:func:`replay_streams`) that both the batched
engine and the static trace synthesis
(:func:`repro.analyze.trace.synthesize_trace`) feed.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Hashable, Sequence, Tuple

import numpy as np


class MemSpace(enum.Enum):
    """OpenCL memory spaces (Section III-A)."""

    GLOBAL = "global"
    CONSTANT = "constant"
    LOCAL = "local"
    PRIVATE = "private"


class Buffer:
    """A global-memory allocation holding a 1-D typed array.

    Create through :meth:`repro.ocl.executor.Context.alloc` (which
    enforces the device capacity); direct construction is allowed in
    tests.
    """

    space = MemSpace.GLOBAL

    def __init__(self, data: np.ndarray, name: str = "buf"):
        data = np.asarray(data)
        if data.ndim != 1:
            data = np.ascontiguousarray(data).ravel()
        self.data = data
        self.name = name

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    def __len__(self) -> int:
        return int(self.data.size)

    def to_host(self) -> np.ndarray:
        """Copy back to the host (returns the underlying array)."""
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Buffer {self.name!r} {self.data.dtype} x {self.data.size}>"


class LocalBuffer:
    """A local-memory (shared) allocation, private to one work-group."""

    space = MemSpace.LOCAL

    def __init__(self, size: int, dtype=np.float64, name: str = "lmem"):
        self.data = np.zeros(int(size), dtype=dtype)
        self.name = name

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    def __len__(self) -> int:
        return int(self.data.size)


class BatchedLocalBuffer:
    """The local-memory allocations of *every* work-group of a batched
    launch, stored as one ``(num_groups, size)`` array.

    Row ``g`` is what work-group ``g``'s :class:`LocalBuffer` would
    hold under per-group execution: local memory is private to a
    work-group, so a batched launch simply carries all the private
    copies side by side.  Capacity is still checked per group (each
    copy must fit one CU's local memory).
    """

    space = MemSpace.LOCAL

    def __init__(self, num_groups: int, size: int, dtype=np.float64,
                 name: str = "lmem"):
        self.data = np.zeros((int(num_groups), int(size)), dtype=dtype)
        self.name = name

    @property
    def itemsize(self) -> int:
        return int(self.data.dtype.itemsize)

    @property
    def nbytes_per_group(self) -> int:
        """Bytes one work-group's copy occupies (the capacity unit)."""
        return int(self.data.shape[1]) * self.itemsize

    def __len__(self) -> int:
        return int(self.data.shape[1])


class SegmentCache:
    """Approximate LRU model of the device's unified L2 cache.

    Keys are ``(buffer id, segment)``; a global load whose segment is
    resident costs no DRAM transaction.  Shared by all work-groups of a
    launch sequence (the L2 is device-wide); stores allocate lines
    (write-allocate) but their DRAM write is still charged.
    """

    def __init__(self, capacity_bytes: int, transaction_bytes: int):
        self.capacity = max(1, capacity_bytes // transaction_bytes)
        self._lines: "OrderedDict[Tuple[int, int], None]" = OrderedDict()

    def access(self, buf_id: int, segments: np.ndarray) -> int:
        """Touch ``segments``; returns the number of *misses*."""
        misses = 0
        lines = self._lines
        for seg in segments.tolist():
            key = (buf_id, seg)
            if key in lines:
                lines.move_to_end(key)
            else:
                misses += 1
                lines[key] = None
                if len(lines) > self.capacity:
                    lines.popitem(last=False)
        return misses


def wavefront_transactions(
    indices: np.ndarray,
    itemsize: int,
    wavefront_size: int,
    transaction_bytes: int,
    mask: np.ndarray | None = None,
) -> Tuple[int, int, int]:
    """Count memory traffic of one vectorised access.

    Splits ``indices`` (element indices into one buffer, one per active
    lane, in lane order) into wavefronts and counts, per wavefront, the
    distinct ``transaction_bytes``-sized segments touched — the
    coalescing rule of Fermi-class GPUs.

    Returns ``(requests, transactions, useful_bytes)``.
    """
    requests, segments, useful = wavefront_segments(
        indices, itemsize, wavefront_size, transaction_bytes, mask
    )
    return requests, int(segments.size), useful


def wavefront_segments(
    indices: np.ndarray,
    itemsize: int,
    wavefront_size: int,
    transaction_bytes: int,
    mask: np.ndarray | None = None,
) -> Tuple[int, np.ndarray, int]:
    """Like :func:`wavefront_transactions` but returns the issued
    transactions' *segment ids* (one entry per transaction, so the
    L2 model can filter them into hits and misses)."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.shape != idx.shape:
            raise ValueError("mask must match indices shape")
    n = idx.size
    if n == 0:
        return 0, np.empty(0, dtype=np.int64), 0
    nwf = -(-n // wavefront_size)
    pad = nwf * wavefront_size - n
    seg = idx * itemsize // transaction_bytes
    if pad:
        seg = np.concatenate([seg, np.full(pad, -1, dtype=np.int64)])
        if mask is not None:
            mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    seg = seg.reshape(nwf, wavefront_size)
    if mask is None:
        active = np.ones(seg.shape, dtype=bool)
        active[seg < 0] = False
    else:
        active = mask.reshape(nwf, wavefront_size)
    # inactive lanes: substitute a sentinel distinct from all real
    # segments so they never add transactions
    seg = np.where(active, seg, np.int64(-1))
    seg_sorted = np.sort(seg, axis=1)
    newseg = np.ones(seg_sorted.shape, dtype=bool)
    newseg[:, 1:] = seg_sorted[:, 1:] != seg_sorted[:, :-1]
    newseg &= seg_sorted >= 0
    segments = seg_sorted[newseg]
    rows_active = active.any(axis=1)
    requests = int(rows_active.sum())
    useful = int(active.sum()) * itemsize
    return requests, segments, useful


def segment_streams(
    idx: np.ndarray,
    itemsize: int,
    wavefront_size: int,
    transaction_bytes: int,
    mask: np.ndarray | None = None,
) -> Tuple[int, np.ndarray, np.ndarray, int]:
    """:func:`wavefront_segments` for every row of a ``(groups, lanes)``
    grid at once — one row per work-group.

    Returns ``(requests, segments, offsets, useful_bytes)``: the
    requests and useful bytes summed over all rows, the concatenated
    per-row segment streams (row ``g`` is
    ``segments[offsets[g]:offsets[g + 1]]``, identical to what
    :func:`wavefront_segments` returns for ``idx[g]``/``mask[g]``).
    """
    groups, lanes = idx.shape
    nwf = -(-lanes // wavefront_size)
    pad = nwf * wavefront_size - lanes
    seg = idx * itemsize // transaction_bytes
    if pad:
        seg = np.concatenate(
            [seg, np.full((groups, pad), -1, dtype=np.int64)], axis=1)
    if mask is None:
        active = seg >= 0
    else:
        active = mask
        if pad:
            active = np.concatenate(
                [active, np.zeros((groups, pad), dtype=bool)], axis=1)
        seg = np.where(active, seg, np.int64(-1))
    seg = seg.reshape(groups, nwf, wavefront_size)
    active = active.reshape(groups, nwf, wavefront_size)
    seg_sorted = np.sort(seg, axis=2)
    newseg = np.ones(seg_sorted.shape, dtype=bool)
    newseg[:, :, 1:] = seg_sorted[:, :, 1:] != seg_sorted[:, :, :-1]
    newseg &= seg_sorted >= 0
    segments = seg_sorted[newseg]          # C order = (group, wf) order
    offsets = np.zeros(groups + 1, dtype=np.int64)
    np.cumsum(newseg.sum(axis=(1, 2)), out=offsets[1:])
    requests = int(active.any(axis=2).sum())
    useful = int(active.sum()) * itemsize
    return requests, segments, offsets, useful


def replay_streams(
    cache: SegmentCache,
    streams: Sequence[Tuple[bool, Hashable, np.ndarray, np.ndarray]],
    num_groups: int,
) -> Tuple[int, int]:
    """Feed per-group segment streams through the L2 model in the order
    the per-group engine executes them: group by group, and within a
    group the streams in program order.

    Each stream is ``(is_load, buffer_key, segments, offsets)`` with
    ``segments``/``offsets`` as returned by :func:`segment_streams`.
    Stores are write-allocates: their lines become resident but they
    count as neither misses nor hits.  Returns
    ``(load_misses, load_hits)``.
    """
    streams = [(is_load, key, segments, offsets.tolist())
               for is_load, key, segments, offsets in streams]
    misses = hits = 0
    for g in range(num_groups):
        for is_load, key, segments, offsets in streams:
            lo, hi = offsets[g], offsets[g + 1]
            if lo == hi:
                continue
            m = cache.access(key, segments[lo:hi])
            if is_load:
                misses += m
                hits += hi - lo - m
    return misses, hits
