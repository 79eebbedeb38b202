"""Differential tests: batched engine vs. the per-group oracle, plus
edge-case regression coverage the seed suite missed.

The batched engine must be *bit-identical* to per-group execution — same
``y`` (``np.array_equal``, not allclose) and the same value in every
trace counter — for every runner and every matrix shape the bench suite
can produce.
"""

import dataclasses

import numpy as np
import pytest

import repro.ocl.executor as executor_mod
from repro.bench.runner import bench_scale, effective_scale, scaled_device
from repro.core.crsd import CRSDMatrix, compatible_wavefront
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hyb import HYBMatrix
from repro.gpu_kernels.crsd_runner import CrsdSpMM, CrsdSpMV
from repro.gpu_kernels.csr import CsrScalarSpMV, CsrVectorSpMV
from repro.gpu_kernels.dia import DiaSpMV
from repro.gpu_kernels.ell import EllSpMV
from repro.gpu_kernels.hyb import HybSpMV
from repro.matrices.suite23 import SUITE
from repro.obs.recorder import observe
from repro.ocl.errors import DeviceMemoryError
from tests.conftest import random_diagonal_matrix

#: the Bell & Garland baseline runners, built from a COO matrix
BASELINES = {
    "dia": lambda coo, **kw: DiaSpMV(DIAMatrix.from_coo(coo), **kw),
    "ell": lambda coo, **kw: EllSpMV(ELLMatrix.from_coo(coo), **kw),
    "csr_scalar": lambda coo, **kw: CsrScalarSpMV(CSRMatrix.from_coo(coo),
                                                  **kw),
    "csr_vector": lambda coo, **kw: CsrVectorSpMV(CSRMatrix.from_coo(coo),
                                                  **kw),
    "hyb": lambda coo, **kw: HybSpMV(HYBMatrix.from_coo(coo), **kw),
}


def run_both_modes(make_runner, x, monkeypatch, trace=True):
    """Execute one runner config under each engine on fresh state."""
    runs = {}
    for mode in ("pergroup", "batched"):
        monkeypatch.setenv("REPRO_EXECUTOR", mode)
        runs[mode] = make_runner().run(x, trace=trace)
    return runs["pergroup"], runs["batched"]


def assert_identical(pergroup, batched):
    assert np.array_equal(pergroup.y, batched.y)
    assert dataclasses.asdict(pergroup.trace) == dataclasses.asdict(
        batched.trace)


def observed_run(make_runner, x, monkeypatch, mode):
    """One run under ``mode`` (``None``: the default engine) and the
    ``(name, executor)`` of every kernel it launched; a device that
    cannot hold the format yields ``("oom", [])``."""
    if mode is None:
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    else:
        monkeypatch.setenv("REPRO_EXECUTOR", mode)
    with observe("launches") as sess:
        try:
            run = make_runner().run(x)
        except DeviceMemoryError:
            return "oom", []
    return run, [(k.name, k.attrs["executor"])
                 for k in sess.by_category("kernel")]


def assert_same_run(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
    else:
        assert a.y.tobytes() == b.y.tobytes()
        assert dataclasses.asdict(a.trace) == dataclasses.asdict(b.trace)


def rectangular_coo(nrows, ncols, offsets, rng, scatter=2):
    """A rectangular band matrix plus a few scatter points."""
    rows_l, cols_l = [], []
    for off in offsets:
        lo, hi = max(0, -off), min(nrows, ncols - off)
        if hi <= lo:
            continue
        r = np.arange(lo, hi)
        rows_l.append(r)
        cols_l.append(r + off)
    for _ in range(scatter):
        rows_l.append(np.array([rng.integers(0, nrows)]))
        cols_l.append(np.array([rng.integers(0, ncols)]))
    rows = np.concatenate(rows_l)
    cols = np.concatenate(cols_l)
    vals = rng.standard_normal(rows.size)
    vals[vals == 0] = 1.0
    return COOMatrix(rows, cols, vals, (nrows, ncols))


class TestDifferentialSmall:
    @pytest.mark.parametrize("use_local", [True, False])
    def test_crsd_spmv(self, rng, monkeypatch, use_local):
        coo = random_diagonal_matrix(rng, n=200, density=0.7, scatter=4)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal(200)
        p, b = run_both_modes(
            lambda: CrsdSpMV(crsd, use_local_memory=use_local),
            x, monkeypatch)
        assert_identical(p, b)
        assert np.allclose(b.y, coo.todense() @ x)

    @pytest.mark.parametrize("nvec", [2, 5])
    def test_crsd_spmm(self, rng, monkeypatch, nvec):
        coo = random_diagonal_matrix(rng, n=128, density=0.8, scatter=3)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal((128, nvec))
        p, b = run_both_modes(lambda: CrsdSpMM(crsd, nvec=nvec),
                              x, monkeypatch)
        assert_identical(p, b)
        assert np.allclose(b.y, coo.todense() @ x)

    def test_dia_spmv(self, rng, monkeypatch):
        coo = random_diagonal_matrix(rng, n=150, density=1.0, scatter=0)
        dia = DIAMatrix.from_coo(coo)
        x = rng.standard_normal(150)
        p, b = run_both_modes(lambda: DiaSpMV(dia), x, monkeypatch)
        assert_identical(p, b)
        assert np.allclose(b.y, coo.todense() @ x)

    def test_ell_spmv(self, rng, monkeypatch):
        coo = random_diagonal_matrix(rng, n=150, density=0.6, scatter=5)
        ell = ELLMatrix.from_coo(coo)
        x = rng.standard_normal(150)
        p, b = run_both_modes(lambda: EllSpMV(ell), x, monkeypatch)
        assert_identical(p, b)
        assert np.allclose(b.y, coo.todense() @ x)

    def test_untraced_y_identical(self, rng, monkeypatch):
        coo = random_diagonal_matrix(rng, n=100)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal(100)
        p, b = run_both_modes(lambda: CrsdSpMV(crsd), x, monkeypatch,
                              trace=False)
        assert np.array_equal(p.y, b.y)


class TestDifferentialSuite23:
    """Both engines agree bit-for-bit across the full bench suite."""

    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_suite_matrix(self, spec, monkeypatch):
        scale = effective_scale(spec, bench_scale())
        coo = spec.generate(scale=scale, seed=0)
        dev = scaled_device(scale)
        crsd = CRSDMatrix.from_coo(
            coo, mrows=128, wavefront_size=compatible_wavefront(128))
        x = np.random.default_rng(17).standard_normal(coo.ncols)
        p, b = run_both_modes(lambda: CrsdSpMV(crsd, device=dev),
                              x, monkeypatch)
        assert_identical(p, b)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("runner", sorted(BASELINES))
    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_baseline(self, spec, runner, precision, monkeypatch):
        """Each baseline gives the per-group ``y`` bytes and trace under
        ``batched`` and the default engine, and the default engine runs
        per group only HYB's COO tail.  Matrices are at a fifth of the
        bench scale (the structure floors still hold): the per-group
        oracle is the cost here."""
        scale = effective_scale(spec, bench_scale() / 5)
        coo = spec.generate(scale=scale, seed=0)
        dev = scaled_device(scale)
        x = np.random.default_rng(17).standard_normal(coo.ncols)

        def make():
            return BASELINES[runner](coo, device=dev, precision=precision)

        ref, ref_kernels = observed_run(make, x, monkeypatch, "pergroup")
        names = [k for k, _ in ref_kernels]
        for mode in ("batched", None):
            run, kernels = observed_run(make, x, monkeypatch, mode)
            assert_same_run(ref, run)
            assert [k for k, _ in kernels] == names
        # ``kernels`` is now the default engine's launches
        tails = {"coo_kernel"} if runner == "hyb" else set()
        assert {k for k, engine in kernels if engine == "pergroup"} <= tails


def _band(n, offsets=(-1, 0, 1)):
    rows = np.concatenate([np.arange(max(0, -o), min(n, n - o))
                           for o in offsets])
    cols = np.concatenate([np.arange(max(0, o), min(n, n + o))
                           for o in offsets])
    return rows, cols


def _coo(rows, cols, shape, seed=3):
    vals = np.random.default_rng(seed).uniform(0.5, 1.5, len(rows))
    return COOMatrix(np.asarray(rows), np.asarray(cols), vals, shape)


def _long_row_matrix(n=300, row=133, length=100):
    """A tridiagonal band plus one row longer than 2x the wavefront."""
    rows, cols = _band(n)
    extra = np.setdiff1d(np.arange(0, n, 2)[:length], [row - 1, row, row + 1])
    return _coo(np.concatenate([rows, np.full(extra.size, row)]),
                np.concatenate([cols, extra]), (n, n))


def _empty_rows_matrix(n=260):
    """Every third row and the last 40 rows hold no entry."""
    rows, cols = _band(n, (-2, 0, 3))
    keep = (rows % 3 != 1) & (rows < n - 40)
    return _coo(rows[keep], cols[keep], (n, n))


#: case -> (matrix, does HYB put a COO tail on it?)
GRID_CASES = {
    "long_row": (_long_row_matrix, True),
    "empty_rows": (_empty_rows_matrix, False),
    "ragged_rows": (lambda: _coo(*_band(301, (-4, 0, 2)), (301, 301)), False),
    "one_by_one": (lambda: _coo([0], [0], (1, 1)), False),
    "all_zero": (lambda: COOMatrix.empty((70, 70)), False),
}


class TestGridKernels:
    """The shape-generic baseline kernels run by ``launch_grid``: in
    chunks of a few groups, in one chunk and per group they agree."""

    @pytest.mark.parametrize("chunk_lanes", [1, 384])
    @pytest.mark.parametrize("runner", sorted(BASELINES))
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_chunked_equals_unchunked_and_pergroup(
            self, case, runner, chunk_lanes, monkeypatch):
        build, has_tail = GRID_CASES[case]
        coo = build()
        x = np.random.default_rng(5).standard_normal(coo.ncols)
        if runner == "hyb":
            assert bool(HYBMatrix.from_coo(coo).coo.nnz) == has_tail

        def make():
            return BASELINES[runner](coo)

        ref, ref_kernels = observed_run(make, x, monkeypatch, "pergroup")
        assert not isinstance(ref, str)
        assert np.allclose(ref.y, coo.todense() @ x)
        monkeypatch.setattr(executor_mod, "BATCH_CHUNK_LANES", 1 << 30)
        whole, whole_kernels = observed_run(make, x, monkeypatch, "batched")
        monkeypatch.setattr(executor_mod, "BATCH_CHUNK_LANES", chunk_lanes)
        chunked, kernels = observed_run(make, x, monkeypatch, "batched")
        assert_same_run(ref, whole)
        assert_same_run(ref, chunked)
        expected = (["ell_kernel"] + ["coo_kernel"] * has_tail
                    if runner == "hyb" else ["kernel"])
        for launched in (ref_kernels, whole_kernels, kernels):
            assert [k for k, _ in launched] == expected


class TestEdgeCases:
    @pytest.mark.parametrize("shape", [(48, 96), (96, 48)])
    def test_rectangular_spmv(self, rng, monkeypatch, shape):
        nrows, ncols = shape
        offsets = (-3, 0, 2, 5) if ncols >= nrows else (-40, -3, 0, 2)
        coo = rectangular_coo(nrows, ncols, offsets, rng)
        crsd = CRSDMatrix.from_coo(coo, mrows=8, wavefront_size=8)
        x = rng.standard_normal(ncols)
        p, b = run_both_modes(lambda: CrsdSpMV(crsd), x, monkeypatch)
        assert_identical(p, b)
        assert b.y.shape == (nrows,)
        assert np.allclose(b.y, coo.todense() @ x)

    @pytest.mark.parametrize("shape", [(48, 96), (96, 48)])
    def test_rectangular_spmm(self, rng, monkeypatch, shape):
        nrows, ncols = shape
        offsets = (-3, 0, 2, 5) if ncols >= nrows else (-40, -3, 0, 2)
        coo = rectangular_coo(nrows, ncols, offsets, rng)
        crsd = CRSDMatrix.from_coo(coo, mrows=8, wavefront_size=8)
        x = rng.standard_normal((ncols, 3))
        p, b = run_both_modes(lambda: CrsdSpMM(crsd, nvec=3), x, monkeypatch)
        assert_identical(p, b)
        assert b.y.shape == (nrows, 3)
        assert np.allclose(b.y, coo.todense() @ x)

    def test_scatter_only_matrix(self, monkeypatch, rng):
        entries = [(1, 7), (9, 2), (20, 15), (33, 33)]
        rows, cols = zip(*entries)
        coo = COOMatrix(np.array(rows), np.array(cols),
                        np.arange(1.0, 5.0), (40, 40))
        crsd = CRSDMatrix.from_coo(coo, mrows=8, wavefront_size=8,
                                   idle_fill_max_rows=1)
        assert len(crsd.regions) == 0 and crsd.num_scatter_rows == 4
        x = rng.standard_normal(40)
        p, b = run_both_modes(lambda: CrsdSpMV(crsd), x, monkeypatch)
        assert_identical(p, b)
        assert np.allclose(b.y, coo.todense() @ x)

    def test_all_zero_matrix(self, monkeypatch):
        crsd = CRSDMatrix.from_coo(COOMatrix.empty((64, 64)),
                                   mrows=16, wavefront_size=16)
        x = np.ones(64)
        p, b = run_both_modes(lambda: CrsdSpMV(crsd), x, monkeypatch)
        assert_identical(p, b)
        assert np.array_equal(b.y, np.zeros(64))

    def test_matvec_out_reuse(self, rng):
        """The same ``out`` buffer must be fully re-zeroed on every call
        (stale values from a previous matvec must never leak)."""
        coo = random_diagonal_matrix(rng, n=60, density=0.5, scatter=3)
        crsd = CRSDMatrix.from_coo(coo, mrows=4, wavefront_size=4)
        dense = coo.todense()
        out = np.full(60, np.nan)
        for _ in range(3):
            x = rng.standard_normal(60)
            y = crsd.matvec(x, out=out)
            assert y is out
            assert np.allclose(out, dense @ x)


class TestAllocationStability:
    def test_spmv_buffers_allocated_once(self, rng):
        coo = random_diagonal_matrix(rng, n=120, scatter=3)
        runner = CrsdSpMV(CRSDMatrix.from_coo(coo, mrows=32))
        runner.prepare()
        baseline = runner.device_bytes
        assert baseline > 0
        x = rng.standard_normal(120)
        for _ in range(3):
            runner.run(x)
            runner.prepare()
            assert runner.device_bytes == baseline

    def test_spmm_buffers_allocated_once(self, rng):
        coo = random_diagonal_matrix(rng, n=96, scatter=2)
        runner = CrsdSpMM(CRSDMatrix.from_coo(coo, mrows=32), nvec=4)
        runner.prepare()
        baseline = runner.device_bytes
        assert baseline > 0
        x = rng.standard_normal((96, 4))
        for _ in range(3):
            runner.run(x)
            runner.prepare()
            assert runner.device_bytes == baseline

    def test_spmm_local_memory_warning(self, rng):
        coo = random_diagonal_matrix(rng, n=96, density=0.9)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        with pytest.warns(UserWarning, match="local"):
            CrsdSpMM(crsd, nvec=2, use_local_memory=True)
