"""CRSDLayout: the pattern half of a CRSD build, refilled by one gather.

A matrix filled from another same-pattern matrix's layout must be
array-for-array the matrix a fresh ``from_coo`` builds — the diagonal
slab with its fill zeros, all four scatter arrays and the regions —
and must convert back to exactly the matrix it was filled from.
"""

import itertools

import numpy as np
import pytest

from repro.core.crsd import CRSDBuildParams, CRSDLayout, CRSDMatrix
from repro.formats.coo import COOMatrix
from repro.matrices.suite23 import SUITE
from tests.conftest import random_diagonal_matrix

SCALE = 0.02

_SUITE_COO = {}


def suite_coo(name):
    if name not in _SUITE_COO:
        spec = next(s for s in SUITE if s.name == name)
        _SUITE_COO[name] = spec.generate(scale=SCALE, seed=0)
    return _SUITE_COO[name]


def revalued(coo, seed=1):
    """Same pattern, new (nonzero) values."""
    factors = np.random.default_rng(seed).uniform(0.5, 1.5, coo.nnz)
    return COOMatrix(coo.rows, coo.cols, coo.vals * factors, coo.shape)


def assert_same_crsd(a, b):
    assert a.shape == b.shape and a.nnz == b.nnz and a.params == b.params
    assert a.regions == b.regions
    for name in ("dia_val", "scatter_rowno", "scatter_colval",
                 "scatter_val", "scatter_occupancy"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


def assert_refill_matches(coo, **kwargs):
    """Fill ``coo``'s revalued twin from ``coo``'s layout and compare
    it with a fresh build of the twin."""
    donor = CRSDMatrix.from_coo(coo, **kwargs)
    twin = revalued(coo)
    refilled = CRSDMatrix.from_coo(twin, layout=donor.layout)
    assert refilled.layout is donor.layout
    assert_same_crsd(refilled, CRSDMatrix.from_coo(twin, **kwargs))
    # and the gather put every value where the format reads it
    assert refilled.to_coo().equals(twin)
    return donor, refilled


@pytest.mark.parametrize(
    "name,mrows,detect_scatter",
    list(itertools.product([s.name for s in SUITE], (32, 128),
                           (True, False))))
def test_suite_refill_equals_fresh_build(name, mrows, detect_scatter):
    assert_refill_matches(suite_coo(name), mrows=mrows,
                          detect_scatter=detect_scatter)


def all_scatter(n=200, seed=3):
    """Isolated nonzeros on distinct diagonals: every one a scatter
    point."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(n, size=12, replace=False))
    cols = (rows * 7 + 3) % n
    return COOMatrix(rows, cols, rng.uniform(1, 2, rows.size), (n, n))


def banded(shape, offsets=(-3, 0, 2), seed=4):
    rng = np.random.default_rng(seed)
    rows_l, cols_l = [], []
    for off in offsets:
        r = np.arange(shape[0])
        c = r + off
        keep = (c >= 0) & (c < shape[1])
        rows_l.append(r[keep])
        cols_l.append(c[keep])
    rows, cols = np.concatenate(rows_l), np.concatenate(cols_l)
    return COOMatrix(rows, cols, rng.uniform(1, 2, rows.size), shape)


EDGE_CASES = {
    "empty": lambda: COOMatrix.empty((40, 40)),
    "one_by_one": lambda: COOMatrix([0], [0], [2.5], (1, 1)),
    "nrows_below_mrows": lambda: banded((9, 9)),
    "all_scatter": all_scatter,
    "wide": lambda: banded((50, 80), offsets=(0, 5, 30)),
    "tall": lambda: banded((80, 50), offsets=(-30, -1, 0)),
    "random_diagonal": lambda: random_diagonal_matrix(
        np.random.default_rng(5), n=150, scatter=4),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("detect_scatter", [True, False])
def test_edge_shapes_refill_equal_fresh_build(case, detect_scatter):
    coo = EDGE_CASES[case]()
    donor, _ = assert_refill_matches(coo, mrows=32,
                                     detect_scatter=detect_scatter)
    if case == "all_scatter" and detect_scatter:
        assert donor.dia_val.size == 0
        assert donor.num_scatter_rows == coo.nnz
    if case == "empty":
        assert donor.dia_val.size == 0 and donor.num_scatter_rows == 0


class TestLayoutChecks:
    @pytest.fixture
    def layout(self):
        return CRSDMatrix.from_coo(banded((64, 64)), mrows=32).layout

    def test_other_coordinates_rejected(self, layout):
        moved = banded((64, 64), offsets=(-2, 0, 3))
        assert moved.nnz == layout.nnz
        with pytest.raises(ValueError, match="layout"):
            CRSDMatrix.from_coo(moved, layout=layout)

    def test_other_nnz_rejected(self, layout):
        coo = banded((64, 64))
        fewer = COOMatrix(coo.rows[1:], coo.cols[1:], coo.vals[1:],
                          coo.shape)
        with pytest.raises(ValueError, match="layout"):
            CRSDMatrix.from_coo(fewer, layout=layout)

    def test_other_shape_rejected(self, layout):
        coo = banded((64, 64))
        wider = COOMatrix(coo.rows, coo.cols, coo.vals, (64, 65))
        with pytest.raises(ValueError, match="layout"):
            CRSDMatrix.from_coo(wider, layout=layout)

    def test_other_params_rejected(self, layout):
        with pytest.raises(ValueError, match="params"):
            CRSDMatrix.from_coo(banded((64, 64)), CRSDBuildParams(mrows=64),
                                layout=layout)
        with pytest.raises(TypeError):
            CRSDMatrix.from_coo(banded((64, 64)), mrows=32, layout=layout)

    def test_layout_arrays_are_read_only(self, layout):
        assert isinstance(layout, CRSDLayout)
        for value in vars(layout).values():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
        analysis = layout.analysis
        for a in (analysis.offsets, analysis.presence,
                  analysis.scatter_mask, analysis.scatter_rows):
            assert not a.flags.writeable


def test_refilled_matrices_share_no_writeable_array():
    coo = random_diagonal_matrix(np.random.default_rng(6), n=120, scatter=5)
    layout = CRSDMatrix.from_coo(coo, mrows=32).layout
    a = CRSDMatrix.from_coo(revalued(coo, 1), layout=layout)
    b = CRSDMatrix.from_coo(revalued(coo, 2), layout=layout)
    assert a.num_scatter_rows

    def arrays(m):
        return [m.dia_val, m.scatter_rowno, m.scatter_colval,
                m.scatter_val, m.scatter_occupancy]

    for x in arrays(a):
        for y in arrays(b):
            if np.shares_memory(x, y):
                assert not x.flags.writeable and not y.flags.writeable
    # the value arrays are each matrix's own
    assert a.dia_val.flags.writeable and a.scatter_val.flags.writeable
    assert not np.array_equal(a.dia_val, b.dia_val)
