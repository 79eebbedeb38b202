"""Property tests of the transaction counter against a brute-force
reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ocl import memory
from repro.ocl.memory import (
    SegmentCache,
    replay_rows,
    segment_streams,
    wavefront_segments,
    wavefront_transactions,
)


def brute_force(indices, itemsize, wavefront, txn_bytes, mask=None):
    """Obviously-correct reference: per wavefront, the set of distinct
    byte segments touched by active lanes."""
    idx = list(indices)
    act = [True] * len(idx) if mask is None else list(mask)
    requests = 0
    transactions = 0
    useful = 0
    for start in range(0, len(idx), wavefront):
        lanes = idx[start : start + wavefront]
        lane_act = act[start : start + wavefront]
        segs = {
            i * itemsize // txn_bytes for i, a in zip(lanes, lane_act) if a
        }
        if segs:
            requests += 1
        transactions += len(segs)
        useful += sum(lane_act) * itemsize
    return requests, transactions, useful


@st.composite
def access(draw):
    n = draw(st.integers(1, 200))
    idx = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    has_mask = draw(st.booleans())
    mask = (
        draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if has_mask
        else None
    )
    itemsize = draw(st.sampled_from([4, 8]))
    wavefront = draw(st.sampled_from([16, 32, 64]))
    return np.array(idx), mask, itemsize, wavefront


@settings(max_examples=150, deadline=None)
@given(a=access())
def test_counts_match_brute_force(a):
    idx, mask, itemsize, wavefront = a
    m = None if mask is None else np.array(mask, dtype=bool)
    got = wavefront_transactions(idx, itemsize, wavefront, 128, m)
    want = brute_force(idx, itemsize, wavefront, 128, mask)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(a=access())
def test_segments_list_consistent_with_count(a):
    idx, mask, itemsize, wavefront = a
    m = None if mask is None else np.array(mask, dtype=bool)
    req, segs, useful = wavefront_segments(idx, itemsize, wavefront, 128, m)
    req2, txn, useful2 = wavefront_transactions(idx, itemsize, wavefront, 128, m)
    assert (req, segs.size, useful) == (req2, txn, useful2)
    assert np.all(segs >= 0)


@st.composite
def access_grid(draw):
    groups = draw(st.integers(0, 6))
    lanes = draw(st.integers(1, 150))
    flat = draw(st.lists(st.integers(0, 10_000), min_size=groups * lanes,
                         max_size=groups * lanes))
    idx = np.array(flat, dtype=np.int64).reshape(groups, lanes)
    mask = None
    if draw(st.booleans()):
        bits = draw(st.lists(st.booleans(), min_size=groups * lanes,
                             max_size=groups * lanes))
        mask = np.array(bits, dtype=bool).reshape(groups, lanes)
    itemsize = draw(st.sampled_from([4, 8]))
    wavefront = draw(st.sampled_from([16, 32, 64]))
    txn = draw(st.sampled_from([128, 96]))
    return idx, mask, itemsize, wavefront, txn


@settings(max_examples=150, deadline=None)
@given(a=access_grid())
def test_grid_rows_equal_wavefront_segments(a):
    """Row ``g`` of the grid form is the 1-D rule applied to ``idx[g]``
    (lane counts need not be a multiple of the wavefront, transaction
    sizes need not be a power of two)."""
    idx, mask, itemsize, wavefront, txn = a
    req, segs, offsets, useful = segment_streams(
        idx, itemsize, wavefront, txn, mask)
    assert offsets.shape == (idx.shape[0] + 1,) and offsets[0] == 0
    assert offsets[-1] == segs.size
    req_sum = useful_sum = 0
    for g in range(idx.shape[0]):
        r, want, u = wavefront_segments(
            idx[g], itemsize, wavefront, txn,
            None if mask is None else mask[g])
        assert np.array_equal(segs[offsets[g]:offsets[g + 1]], want)
        req_sum += r
        useful_sum += u
    assert (req, useful) == (req_sum, useful_sum)


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 16),
    accesses=st.lists(st.integers(0, 30), min_size=1, max_size=200),
)
def test_cache_never_exceeds_capacity_and_hits_are_sound(capacity, accesses):
    """Model check: an access misses iff its line is not among the
    ``capacity`` most recently used distinct lines."""
    c = SegmentCache(capacity * 128, 128)
    lru = []
    for seg in accesses:
        misses = c.access(0, np.array([seg]))
        expected_miss = seg not in lru[-capacity:]
        assert misses == (1 if expected_miss else 0), (seg, lru)
        if seg in lru:
            lru.remove(seg)
        lru.append(seg)
        assert c.resident().size <= capacity


def sequential_rows(cache, segments, offsets, buffers, is_load, num_groups):
    """Reference for :func:`replay_rows`: one :meth:`SegmentCache.access`
    per (group, access) row, group-major, as the per-group engine runs."""
    misses = hits = 0
    for g in range(num_groups):
        for a, (buf, load) in enumerate(zip(buffers, is_load)):
            r = a * num_groups + g
            row = segments[offsets[r]:offsets[r + 1]]
            if not row.size:
                continue
            m = cache.access(buf, row)
            if load:
                misses += m
                hits += row.size - m
    return misses, hits


@st.composite
def access_rows(draw):
    """Access-major segment rows over a few buffers: loads and stores,
    empty rows, zero groups."""
    groups = draw(st.integers(0, 5))
    n_acc = draw(st.integers(0, 6))
    buffers = draw(st.lists(st.sampled_from(["x", "y", 7]),
                            min_size=n_acc, max_size=n_acc))
    is_load = draw(st.lists(st.booleans(), min_size=n_acc, max_size=n_acc))
    rows = [draw(st.lists(st.integers(0, 24), max_size=8))
            for _ in range(n_acc * groups)]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    segments = np.array([v for r in rows for v in r], dtype=np.int64)
    return segments, offsets, buffers, is_load, groups


def lines(cache):
    """The resident lines as ``(buffer, segment)``, least recent first
    (slot numbers depend on the order a cache first sees buffers)."""
    names = {slot: buf for buf, slot in cache._slots.items()}
    low = (1 << memory.SLOT_SHIFT) - 1
    return [(names[key >> memory.SLOT_SHIFT], key & low)
            for key in cache.resident().tolist()]


def warmed_pair(capacity, warm):
    """Two caches brought to one random state by per-line touches."""
    pair = [SegmentCache(capacity * 128, 128) for _ in range(2)]
    for cache in pair:
        for buf, seg in warm:
            cache.access(buf, np.array([seg]))
    return pair


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 16),
       warm=st.lists(st.tuples(st.sampled_from(["x", "y", 7]),
                               st.integers(0, 24)), max_size=40),
       rows=access_rows(), batch=st.sampled_from([1, 5, 1 << 18]))
def test_replay_rows_equals_sequential_lru(capacity, warm, rows, batch):
    """The vectorised replay gives the per-touch LRU's misses, hits and
    resident lines (in recency order), from any starting state and in
    exact-count batches of any size."""
    fast, slow = warmed_pair(capacity, warm)
    saved, memory.REPLAY_BATCH_TOUCHES = memory.REPLAY_BATCH_TOUCHES, batch
    try:
        got = replay_rows(fast, *rows)
    finally:
        memory.REPLAY_BATCH_TOUCHES = saved
    assert got == sequential_rows(slow, *rows)
    assert lines(fast) == lines(slow)


@settings(max_examples=100, deadline=None)
@given(capacity=st.integers(1, 16), first=access_rows(),
       second=access_rows(),
       middle=st.lists(st.tuples(st.sampled_from(["x", "y", 7]),
                                 st.integers(0, 24)), max_size=20))
def test_replay_and_access_hand_off(capacity, first, second, middle):
    """replay → access → replay leaves the all-sequential state and
    counts: both paths drive one cache state."""
    mixed, slow = warmed_pair(capacity, [])
    got = [replay_rows(mixed, *first)]
    want = [sequential_rows(slow, *first)]
    for buf, seg in middle:
        got.append(mixed.access(buf, np.array([seg])))
        want.append(slow.access(buf, np.array([seg])))
    got.append(replay_rows(mixed, *second))
    want.append(sequential_rows(slow, *second))
    assert got == want
    assert lines(mixed) == lines(slow)


@pytest.mark.parametrize("capacity", range(1, 17))
@pytest.mark.parametrize("between, hit", [(-1, True), (0, False)])
def test_reuse_window_at_capacity(capacity, between, hit):
    """A line comes back after ``capacity + between`` other distinct
    lines: a hit at ``capacity - 1``, a miss at ``capacity``."""
    others = np.arange(1, capacity + between + 1, dtype=np.int64)
    keys = np.concatenate([[0], others, [0]]) | SegmentCache(
        128, 128).key_base("x")
    loads = np.zeros(keys.size, dtype=bool)
    loads[-1] = True
    cache = SegmentCache(capacity * 128, 128)
    assert cache.replay(keys, loads) == ((0, 1) if hit else (1, 0))
    want = SegmentCache(capacity * 128, 128)
    want.access("x", np.concatenate([[0], others, [0]]))
    assert np.array_equal(cache.resident(), want.resident())


@pytest.mark.parametrize("capacity", [4, 4 * memory.REPLAY_WINDOW_FACTOR])
def test_cyclic_stream_larger_than_cache(capacity, monkeypatch):
    """A cyclic stream of ``capacity + 1`` lines misses on every touch;
    past :data:`REPLAY_WINDOW_FACTOR` the undecided windows are too long
    and the replay runs the sequential LRU instead, with equal results."""
    calls = []
    touch = SegmentCache._touch
    monkeypatch.setattr(SegmentCache, "_touch", lambda self, keys: (
        calls.append(len(keys)), touch(self, keys))[1])
    segs = np.tile(np.arange(capacity + 1, dtype=np.int64), 6)
    fast = SegmentCache(capacity * 128, 128)
    base = fast.key_base(0)
    got = fast.replay(segs | base, np.ones(segs.size, dtype=bool))
    assert got == (segs.size, 0)
    assert bool(calls) == (capacity > memory.REPLAY_WINDOW_FACTOR)
    slow = SegmentCache(capacity * 128, 128)
    assert slow.access(0, segs) == segs.size
    assert np.array_equal(fast.resident(), slow.resident())
