"""Static analysis of the symmetric codelets: green across the
symmetric generator set, with every checker actually exercised.  The
symmetric plans go through the shared entries (``analyze_matrix``,
``analyze_plan``, ``build_model``), which read the plan kind off its
``kind="SYM"`` groups."""

import numpy as np
import pytest

from repro.analyze import analyze_matrix, analyze_plan, build_model
from repro.analyze.coalescing import _dia_val_efficiency
from repro.codegen.plan import build_sym_plan
from repro.core.symcrsd import SymCRSDMatrix
from repro.matrices import generators as gen
from repro.ocl.device import TESLA_C2050


@pytest.fixture
def nprng():
    return np.random.default_rng(17)


CASES = {
    "banded_k7": lambda r: gen.symmetric_banded(512, 7, r),
    "gapped": lambda r: gen.symmetric_diagonals(320, [1, 4, 9], r),
    "indefinite": lambda r: gen.symmetric_diagonals(256, [2, 5], r,
                                                    spd=False),
    "kkt_h": lambda r: gen.kkt_blocks(256, 128, r)[0],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_certification_green(case, nprng):
    sym = SymCRSDMatrix.from_coo(CASES[case](nprng), mrows=32)
    report = analyze_matrix(sym)
    assert report.exit_code == 0, [f.message for f in report.findings]
    assert not report.findings


@pytest.mark.parametrize("precision", ["double", "single"])
def test_certification_both_precisions(precision, nprng):
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(256, 4, nprng),
                                 mrows=32, wavefront_size=32)
    report = analyze_matrix(sym, precision=precision)
    assert report.exit_code == 0


def test_model_shape(nprng):
    """The symbolic model exposes the half carrier, not the full slab:
    its dia_val buffer is sized to the stored slots, no local memory,
    no scatter kernel."""
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(256, 3, nprng),
                                 mrows=32)
    plan = build_sym_plan(sym)
    model = build_model(plan)
    assert model.buffer_sizes["dia_val"] == sym.stored_elements
    assert model.buffer_sizes["x"] == sym.ncols
    assert model.buffer_sizes["y"] == sym.nrows
    assert all(acc.buffer in ("dia_val", "x", "y")
               for reg in model.regions for acc in reg.accesses)
    assert all(not reg.local_ops for reg in model.regions)
    assert model.scatter is None


def test_render_check_runs(nprng):
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(128, 2, nprng),
                                 mrows=32)
    plan = build_sym_plan(sym)
    with_render = analyze_plan(plan, check_render=True)
    without = analyze_plan(plan, check_render=False)
    assert with_render.exit_code == 0
    assert without.exit_code == 0
    assert with_render.divergence_efficiency == 1.0
    assert without.divergence_efficiency is None


def test_forward_slab_loads_coalesce_perfectly(nprng):
    """The paper's coalescing claim holds for the half slab's forward
    (unguarded) reads; the guarded mirror reads straddle transaction
    boundaries, so the all-loads efficiency is lower."""
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(512, 7, nprng),
                                 mrows=32)
    model = build_model(build_sym_plan(sym))
    assert _dia_val_efficiency(model, TESLA_C2050) == 1.0
    report = analyze_matrix(sym)
    assert report.load_coalescing_efficiency < 1.0
    assert not report.findings
