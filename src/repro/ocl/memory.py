"""Simulated device memory objects.

:class:`Buffer` is a global-memory allocation (capacity-checked by the
:class:`~repro.ocl.executor.Context`); :class:`LocalBuffer` is a
work-group-local scratch allocation (capacity-checked against the CU's
local memory).  Kernels never index these directly — all access goes
through the :class:`~repro.ocl.executor.WorkGroupCtx` so that every
load/store is traced.

The coalescing and L2 rules live here too, once: the per-wavefront
segment rule (:func:`wavefront_segments` for one access,
:func:`segment_streams` for a whole ``(groups, lanes)`` grid, and
:func:`count_rows`, which runs it once over stacked accesses and
counts each one) and the group-major L2 replay (:func:`replay_rows`)
that both the batched engine and the static trace synthesis
(:func:`repro.analyze.trace.synthesize_trace`) feed.  The L2 is a
fully associative LRU :class:`SegmentCache`; full associativity is its
only approximation, and its hits are exact LRU, decided from reuse
distances.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.ocl.trace import KernelTrace


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


#: bit position of a buffer's slot in an L2 line key, ``(slot << 40) |
#: segment``: segments stay below 2**40 (128 TiB of 128-byte lines)
SLOT_SHIFT = 40

#: a replay whose undecided reuse windows hold more than this many
#: touches per replayed touch runs the sequential LRU instead (exact
#: either way).  On random line-key streams at L2 capacities of 122 to
#: 646 lines the exact count overtakes the loop at 30 to 60 window
#: touches per touch; this sits at the low end of that crossover
REPLAY_WINDOW_FACTOR = 32

#: most window touches one exact-count batch of a replay materialises
REPLAY_BATCH_TOUCHES = 1 << 15


class SegmentCache:
    """Fully associative LRU model of the device's unified L2 cache.

    A line is one ``(buffer, segment)`` pair, held as one int64 key
    ``(slot << SLOT_SHIFT) | segment``; the slot numbers the buffer
    keys in the order the cache first sees them (:meth:`key_base`).
    A global load whose line is resident costs no DRAM transaction.
    Shared by all work-groups of a launch sequence (the L2 is
    device-wide); stores allocate lines (write-allocate) but their DRAM
    write is still charged.

    Full associativity is the model's only approximation of a real
    set-associative L2: within it, hits are exact LRU.  :meth:`access`
    touches lines one at a time; :meth:`replay` decides a whole touch
    sequence at once from reuse distances and leaves the identical
    state, so both may drive one cache in any interleaving.
    """

    def __init__(self, capacity_bytes: int, transaction_bytes: int):
        self.capacity = max(1, capacity_bytes // transaction_bytes)
        self._slots: Dict[Hashable, int] = {}
        # the resident line keys, least recently used first
        self._lines: "OrderedDict[int, None]" = OrderedDict()

    def key_base(self, buf: Hashable) -> int:
        """``buf``'s slot shifted into place: OR a segment into it to
        get the line key."""
        slot = self._slots.get(buf)
        if slot is None:
            slot = self._slots[buf] = len(self._slots)
        return slot << SLOT_SHIFT

    def resident(self) -> np.ndarray:
        """The resident line keys, least recently used first."""
        return np.fromiter(self._lines, dtype=np.int64,
                           count=len(self._lines))

    def _touch(self, keys: Sequence[int]) -> List[bool]:
        """Touch ``keys`` one by one; each touch's hit flag."""
        lines = self._lines
        capacity = self.capacity
        hits = []
        for key in keys:
            if key in lines:
                lines.move_to_end(key)
                hits.append(True)
            else:
                lines[key] = None
                if len(lines) > capacity:
                    lines.popitem(last=False)
                hits.append(False)
        return hits

    def access(self, buf: Hashable, segments: np.ndarray) -> int:
        """Touch ``buf``'s ``segments`` in order; returns the number of
        *misses*."""
        keys = (np.asarray(segments, dtype=np.int64)
                | self.key_base(buf)).tolist()
        return len(keys) - sum(self._touch(keys))

    def replay(self, keys: np.ndarray,
               is_load: np.ndarray) -> Tuple[int, int]:
        """Touch the line ``keys`` in order, as :meth:`access` would,
        and return ``(load_misses, load_hits)``; stores (``is_load``
        false) are write-allocates and count as neither.

        By the LRU stack property (Mattson et al., 1970) a touch hits
        iff its key was touched before and fewer than ``capacity``
        distinct keys were touched since.  The resident keys are
        prepended (oldest first), so the state carries over; one
        stable argsort finds each touch's previous touch.  Most
        touches are decided by bounds: no previous touch is a miss, a
        window shorter than ``capacity`` a hit, and a window holding
        ``capacity`` first-ever touches a miss.  The rest are counted
        exactly, as the window positions whose own previous touch
        precedes the window.  When those windows are too long in total
        (cyclic streams larger than the cache), the sequential LRU runs
        instead.
        """
        keys = np.asarray(keys, dtype=np.int64)
        is_load = np.asarray(is_load, dtype=bool)
        if not keys.size:
            return 0, 0
        state = self.resident()
        n0, cap = state.size, self.capacity
        seq = np.concatenate([state, keys])
        n = seq.size
        order = np.argsort(seq, kind="stable")
        ranked = seq[order]
        same = ranked[1:] == ranked[:-1]
        prev = np.full(n, -1, dtype=np.int64)
        prev[order[1:][same]] = order[:-1][same]
        pos = np.arange(n0, n, dtype=np.int64)
        before = prev[n0:]
        gap = pos - before - 1              # touches strictly between
        hit = (before >= 0) & (gap < cap)
        todo = np.flatnonzero((before >= 0) & ~hit)
        if todo.size:
            fresh = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(prev < 0, out=fresh[1:])
            lo, hi = before[todo] + 1, pos[todo]
            todo = todo[fresh[hi] - fresh[lo] < cap]
        if todo.size:
            lo, hi = before[todo] + 1, pos[todo]
            if int((hi - lo).sum()) > REPLAY_WINDOW_FACTOR * keys.size:
                flags = np.array(self._touch(keys.tolist()), dtype=bool)
                hits = int(np.count_nonzero(flags & is_load))
                return int(np.count_nonzero(is_load)) - hits, hits
            hit[todo] = _distinct_in_windows(prev, lo, hi) < cap
        hits = int(np.count_nonzero(hit & is_load))
        # the new state: the last ``capacity`` distinct keys by last touch
        last = np.ones(n, dtype=bool)
        last[:-1] = ~same
        latest = np.zeros(n, dtype=bool)
        latest[order[last]] = True
        self._lines = OrderedDict.fromkeys(
            seq[np.flatnonzero(latest)[-cap:]].tolist())
        return int(np.count_nonzero(is_load)) - hits, hits


def _distinct_in_windows(prev: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
    """Distinct keys touched in each window ``lo[t]..hi[t]-1`` of a
    touch sequence (windows non-empty): the positions ``j`` whose
    previous touch ``prev[j]`` precedes the window.  Counted in
    batches of about :data:`REPLAY_BATCH_TOUCHES` window touches."""
    lens = hi - lo
    out = np.empty(lens.size, dtype=np.int64)
    ends = np.cumsum(lens)
    t0 = 0
    while t0 < lens.size:
        base = int(ends[t0 - 1]) if t0 else 0
        t1 = max(t0 + 1, int(np.searchsorted(
            ends, base + REPLAY_BATCH_TOUCHES, side="right")))
        ln = lens[t0:t1]
        first = np.zeros(ln.size, dtype=np.int64)
        np.cumsum(ln[:-1], out=first[1:])
        j = np.arange(int(ln.sum()), dtype=np.int64)
        j += np.repeat(lo[t0:t1] - first, ln)
        older = prev[j] < np.repeat(lo[t0:t1], ln)
        out[t0:t1] = np.add.reduceat(older, first, dtype=np.int64)
        t0 = t1
    return out


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


#: the segment an inactive lane holds while a wavefront is sorted
_NO_SEGMENT = np.iinfo(np.int64).max


def segment_rows(
    addr: np.ndarray,
    live: np.ndarray,
    wavefront_size: int,
    transaction_bytes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-wavefront segment rule over every row of a C-contiguous
    ``(rows, span)`` grid of *byte* addresses, ``span`` a multiple of
    the wavefront, lanes active where ``live`` is true (padding lanes
    are simply not live).  ``addr`` is consumed: it is overwritten.

    Returns ``(segments, offsets, requests, lanes)``: the concatenated
    per-row segment streams (row ``r`` is
    ``segments[offsets[r]:offsets[r + 1]]``, ascending per wavefront),
    and per row the requests (active wavefronts) and active lanes.
    """
    if not addr.flags.c_contiguous:
        raise ValueError("segment_rows sorts the address grid in place: "
                         "it must be C-contiguous")
    rows, span = addr.shape
    w = wavefront_size
    seg = np.floor_divide(addr, transaction_bytes, out=addr)
    # inactive lanes: a sentinel above every real segment, so a
    # masked-off tail keeps a wavefront ascending
    np.copyto(seg, _NO_SEGMENT, where=~live)
    flat = seg.ravel()
    # sort, unless every wavefront's lanes already ascend
    down = flat[1:] < flat[:-1]
    down[w - 1::w] = False
    if down.any():
        seg.reshape(-1, w).sort(axis=1)
    newseg = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=newseg[1:])
    newseg[::w] = True
    newseg &= flat >= 0
    newseg &= flat != _NO_SEGMENT
    pos = np.flatnonzero(newseg)            # (row, wavefront) order
    offsets = np.searchsorted(
        pos, np.arange(0, (rows + 1) * span, span, dtype=np.int64))
    per_wave = live.reshape(-1, w).sum(axis=1).reshape(rows, span // w)
    return (flat[pos], offsets, np.count_nonzero(per_wave, axis=1),
            per_wave.sum(axis=1))


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
    span = -(-lanes // wavefront_size) * wavefront_size
    addr = np.empty((groups, span), dtype=np.int64)
    np.multiply(idx, itemsize, out=addr[:, :lanes])
    live = np.zeros((groups, span), dtype=bool)
    if mask is None:
        np.greater_equal(addr[:, :lanes], 0, out=live[:, :lanes])
    else:
        live[:, :lanes] = mask
    segments, offsets, requests, active = segment_rows(
        addr, live, wavefront_size, transaction_bytes)
    return (int(requests.sum()), segments, offsets,
            int(active.sum()) * itemsize)


def count_rows(
    trace: KernelTrace,
    addr: np.ndarray,
    live: np.ndarray,
    itemsize: np.ndarray,
    is_load: np.ndarray,
    wavefront_size: int,
    transaction_bytes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One :func:`segment_rows` pass over stacked accesses, counted.

    Row ``r`` of ``addr``/``live`` (as :func:`segment_rows` takes
    them, so ``addr`` is consumed) is one access of one work-group,
    with element size ``itemsize[r]``, a load when ``is_load[r]`` and a
    store otherwise.  Charges each row's requests, transactions (every
    segment, before any L2 filtering) and useful bytes to ``trace``,
    and returns the rows' ``(segments, offsets)`` for
    :func:`replay_rows`.
    """
    segments, offsets, requests, lanes = segment_rows(
        addr, live, wavefront_size, transaction_bytes)
    txn = np.diff(offsets)
    useful = lanes * itemsize
    ld = np.asarray(is_load, dtype=bool)
    st = ~ld
    trace.global_load_requests += int(requests[ld].sum())
    trace.global_load_transactions += int(txn[ld].sum())
    trace.global_load_bytes_useful += int(useful[ld].sum())
    trace.global_store_requests += int(requests[st].sum())
    trace.global_store_transactions += int(txn[st].sum())
    trace.global_store_bytes_useful += int(useful[st].sum())
    return segments, offsets


def replay_rows(
    cache: SegmentCache,
    segments: np.ndarray,
    offsets: np.ndarray,
    buffers: Sequence[Hashable],
    is_load: Sequence[bool],
    num_groups: int,
) -> Tuple[int, int]:
    """Feed access-major segment rows through the L2 model in the order
    the per-group engine executes them: group by group, and within a
    group the accesses in program order.

    Access ``a`` (buffer key ``buffers[a]``, a load when
    ``is_load[a]``) owns rows ``a * num_groups .. (a + 1) * num_groups
    - 1``, one per work-group, each ``segments[offsets[r]:offsets[r +
    1]]`` as :func:`count_rows` returns them.  One gather reorders the
    rows group-major; :meth:`SegmentCache.replay` runs them.  Stores
    are write-allocates: their lines become resident but they count as
    neither misses nor hits.  Returns ``(load_misses, load_hits)``.
    """
    n_acc = len(buffers)
    if offsets.size != n_acc * num_groups + 1:
        raise ValueError(f"{offsets.size - 1} rows do not split into "
                         f"{n_acc} accesses of {num_groups} groups")
    if not segments.size:
        return 0, 0
    per_access = np.diff(offsets[::num_groups])
    base = np.array([cache.key_base(b) for b in buffers], dtype=np.int64)
    keys = segments | np.repeat(base, per_access)
    loads = np.repeat(np.asarray(is_load, dtype=bool), per_access)
    rows = (np.arange(n_acc, dtype=np.int64) * num_groups
            + np.arange(num_groups, dtype=np.int64)[:, None]).ravel()
    lens = np.diff(offsets)[rows]
    first = np.cumsum(lens) - lens
    take = np.repeat(offsets[rows] - first, lens)
    take += np.arange(take.size, dtype=np.int64)
    return cache.replay(keys[take], loads[take])
