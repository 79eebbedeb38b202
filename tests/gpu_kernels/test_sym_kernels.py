"""Symmetric CRSD runner: differential bit-identity and DRAM gates.

The half-storage runner must serve exactly the bits the full CRSD
runner serves — every generator, both precisions, both executor
engines — while moving measurably fewer DRAM bytes, and the analyzer's
closed-form L2 prediction must equal the dynamic trace *exactly*.
"""

import numpy as np
import pytest

from repro.analyze import build_model, build_sym_model, synthesize_trace
from repro.codegen.sym_codelet import build_sym_plan
from repro.core.crsd import CRSDMatrix
from repro.core.symcrsd import SymCRSDMatrix
from repro.gpu_kernels import CrsdSpMM, CrsdSpMV, SymCrsdSpMV
from repro.matrices import generators as gen
from repro.obs.metrics import derive_metrics
from repro.ocl.device import TESLA_C2050
from tests.conftest import random_diagonal_matrix


@pytest.fixture
def nprng():
    return np.random.default_rng(99)


CASES = {
    "banded_k7": lambda r: gen.symmetric_banded(512, 7, r),
    "banded_k3": lambda r: gen.symmetric_banded(256, 3, r),
    "gapped": lambda r: gen.symmetric_diagonals(320, [1, 4, 9], r),
    "indefinite": lambda r: gen.symmetric_diagonals(256, [2, 5], r,
                                                    spd=False),
    "kkt_h": lambda r: gen.kkt_blocks(256, 128, r)[0],
    "kkt_c": lambda r: gen.kkt_blocks(256, 128, r)[3],
}


def build_pair(coo, mrows=32):
    full = CRSDMatrix.from_coo(coo, mrows=mrows)
    sym = SymCRSDMatrix.from_crsd(full, coo=coo)
    return full, sym


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("mode", ["batched", "pergroup"])
def test_bit_identical_to_full_crsd(case, precision, mode, nprng,
                                    monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", mode)
    coo = CASES[case](nprng)
    full, sym = build_pair(coo)
    x = nprng.standard_normal(coo.shape[1])
    run_full = CrsdSpMV(full, precision=precision).run(x)
    run_sym = SymCrsdSpMV(sym, precision=precision).run(x)
    assert run_sym.y.dtype == run_full.y.dtype
    assert np.array_equal(run_sym.y, run_full.y)


@pytest.mark.parametrize("case", sorted(CASES))
def test_executor_engines_identical(case, nprng, monkeypatch):
    coo = CASES[case](nprng)
    _, sym = build_pair(coo)
    x = nprng.standard_normal(coo.shape[1])
    runs = {}
    for mode in ("batched", "pergroup"):
        monkeypatch.setenv("REPRO_EXECUTOR", mode)
        runs[mode] = SymCrsdSpMV(sym).run(x)
    assert np.array_equal(runs["batched"].y, runs["pergroup"].y)
    assert (runs["batched"].trace.global_load_transactions
            == runs["pergroup"].trace.global_load_transactions)


def test_dram_bytes_reduction_at_least_40pct(nprng):
    """ISSUE gate: obs-derived DRAM bytes for the banded halfwidth-7
    workload drop by >= 40% versus the full slab (closed form predicts
    k/(2k+3) = 41.2%)."""
    coo = gen.symmetric_banded(1024, 7, nprng)
    full, sym = build_pair(coo, mrows=64)
    x = nprng.standard_normal(1024)
    t_full = CrsdSpMV(full).run(x).trace
    t_sym = SymCrsdSpMV(sym).run(x).trace
    m_full = derive_metrics(t_full, nnz=coo.nnz)
    m_sym = derive_metrics(t_sym, nnz=coo.nnz)
    reduction = 1.0 - m_sym["dram_bytes"] / m_full["dram_bytes"]
    assert reduction >= 0.40, f"only {reduction:.1%} DRAM reduction"
    # both runners still computed the same bits
    assert np.array_equal(SymCrsdSpMV(sym).run(x).y, full.matvec(x))


#: full CRSD inputs with scatter rows: (nvec, L2 bytes or None for
#: the device default); the small L2 forces evictions, so the replay
#: order has to match the engine's, not just the set of lines touched
FULL_CASES = {
    "full_scatter": (1, None),
    "full_scatter_nvec2": (2, None),
    "full_scatter_small_l2": (1, 2048),
}


@pytest.mark.parametrize("case", sorted(CASES) + sorted(FULL_CASES))
def test_static_l2_prediction_exact(case, nprng, monkeypatch):
    """The analyzer's replayed L2 model must equal the dynamic batched
    trace exactly — every counter, transactions and hits included."""
    monkeypatch.setenv("REPRO_EXECUTOR", "batched")
    device = TESLA_C2050
    if case in CASES:
        coo = CASES[case](nprng)
        _, sym = build_pair(coo)
        x = nprng.standard_normal(coo.shape[1])
        dyn = SymCrsdSpMV(sym).run(x).trace
        model = build_sym_model(build_sym_plan(sym))
    else:
        nvec, l2_bytes = FULL_CASES[case]
        if l2_bytes is not None:
            device = TESLA_C2050.with_overrides(l2_bytes=l2_bytes)
        coo = random_diagonal_matrix(nprng, n=300, density=0.7, scatter=8)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        if nvec > 1:
            runner = CrsdSpMM(crsd, nvec, device=device)
            x = nprng.standard_normal((coo.shape[1], nvec))
        else:
            runner = CrsdSpMV(crsd, device=device)
            x = nprng.standard_normal(coo.shape[1])
        dyn = runner.run(x).trace
        model = build_model(runner.plan, scatter_colval=crsd.scatter_colval,
                            scatter_rowno=crsd.scatter_rowno)
        assert model.scatter is not None and model.scatter.num_rows > 0
    pred = synthesize_trace(model, device)
    assert dyn.l2_hits > 0
    assert pred == dyn


def test_strict_mode_compiles_clean(nprng):
    coo = gen.symmetric_banded(256, 4, nprng)
    _, sym = build_pair(coo)
    runner = SymCrsdSpMV(sym, strict=True)
    x = nprng.standard_normal(256)
    assert np.array_equal(runner.run(x).y, sym.matvec(x))


def test_opencl_source_renders(nprng):
    coo = gen.symmetric_banded(128, 2, nprng)
    _, sym = build_pair(coo)
    src = SymCrsdSpMV(sym).opencl_source
    assert "__kernel" in src and "sym" in src
