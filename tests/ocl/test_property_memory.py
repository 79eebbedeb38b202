"""Property tests of the transaction counter against a brute-force
reference implementation."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ocl.memory import (
    SegmentCache,
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
    return idx, mask, itemsize, wavefront


@settings(max_examples=150, deadline=None)
@given(a=access_grid())
def test_grid_rows_equal_wavefront_segments(a):
    """Row ``g`` of the grid form is the 1-D rule applied to ``idx[g]``
    (lane counts need not be a multiple of the wavefront)."""
    idx, mask, itemsize, wavefront = a
    req, segs, offsets, useful = segment_streams(
        idx, itemsize, wavefront, 128, mask)
    assert offsets.shape == (idx.shape[0] + 1,) and offsets[0] == 0
    assert offsets[-1] == segs.size
    req_sum = useful_sum = 0
    for g in range(idx.shape[0]):
        r, want, u = wavefront_segments(
            idx[g], itemsize, wavefront, 128,
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
        assert len(c._lines) <= capacity
