"""Golden-file stability of the code generator and the access model.

The OpenCL C emitted for the paper's Fig. 2 worked example is pinned
byte-for-byte in ``tests/data/fig2_kernel_golden.cl``.  Any change to
the generator's output — intended or not — fails this test, forcing a
reviewed regeneration of the golden file (and of the paper-pinned
structure tests that guard its semantics).

``tests/data/render_digests.json`` pins, by sha256, the Python
rendering, the OpenCL rendering in double and single precision and the
``repr`` of the analyzer's region models for the 23-suite (scale 0.03,
``mrows`` 32, local memory on/off, ``nvec`` 1/2), the symmetric
differential cases of ``tests/gpu_kernels/test_sym_kernels.py`` and
CI's ``symband`` plan.  Regenerate it, after reviewing why a rendering
or the model moved, with::

    PYTHONPATH=src python -m tests.codegen.test_golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.analyze import build_model
from repro.codegen import build_plan, generate_opencl_source
from repro.codegen.plan import build_sym_plan
from repro.codegen.python_codelet import emit_python_source
from repro.core.crsd import CRSDMatrix, compatible_wavefront
from repro.core.symcrsd import SymCRSDMatrix
from repro.formats.coo import COOMatrix
from repro.matrices import generators as gen
from repro.matrices.suite23 import SUITE
from tests.conftest import FIG2_ENTRIES, FIG2_SHAPE

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "fig2_kernel_golden.cl"
DIGESTS = DATA / "render_digests.json"


def fig2_crsd():
    """Build the Fig. 2 CRSD matrix (mrows=2)."""
    rows, cols = zip(*FIG2_ENTRIES)
    coo = COOMatrix(np.array(rows), np.array(cols),
                    np.array(list(FIG2_ENTRIES.values())), FIG2_SHAPE)
    return CRSDMatrix.from_coo(coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)


def test_opencl_source_matches_golden():
    src = generate_opencl_source(build_plan(fig2_crsd()))
    assert src == GOLDEN.read_text(), (
        "generated OpenCL changed; review the diff and regenerate "
        "tests/data/fig2_kernel_golden.cl if intentional"
    )


def test_generation_is_deterministic():
    a = generate_opencl_source(build_plan(fig2_crsd()))
    b = generate_opencl_source(build_plan(fig2_crsd()))
    assert a == b
    pa = emit_python_source(build_plan(fig2_crsd()))
    pb = emit_python_source(build_plan(fig2_crsd()))
    assert pa == pb


def test_golden_contains_the_paper_constants():
    """Belt and braces: the golden file itself carries the Fig. 4
    constants, so a silently regenerated golden cannot drift far."""
    src = GOLDEN.read_text()
    assert "case 0:" in src and "case 1:" in src
    assert "row = 2 + seg * 2 + local_id;" in src   # SR=2, mrows=2
    assert "crsd_dia_val[10 + seg * 6" in src       # slab base 10, NNzRS 6
    assert "__local double xtile[3];" in src        # AD tile of 3


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_digests(plan) -> dict:
    return {
        "python": _sha(emit_python_source(plan)),
        "opencl_double": _sha(generate_opencl_source(plan, "double")),
        "opencl_single": _sha(generate_opencl_source(plan, "single")),
        "model": _sha(repr(build_model(plan).regions)),
    }


def render_digests() -> dict:
    """Digest of every pinned plan, keyed by plan."""
    from tests.gpu_kernels.test_sym_kernels import CASES, build_pair

    out = {}
    for spec in SUITE:
        crsd = CRSDMatrix.from_coo(spec.generate(scale=0.03), mrows=32,
                                   wavefront_size=compatible_wavefront(32))
        for local in (True, False):
            for nvec in (1, 2):
                plan = build_plan(crsd, use_local_memory=local, nvec=nvec)
                key = f"suite/{spec.number}/local={int(local)}/nvec={nvec}"
                out[key] = _plan_digests(plan)
    for case in sorted(CASES):
        coo = CASES[case](np.random.default_rng(99))
        out[f"sym/{case}"] = _plan_digests(build_sym_plan(build_pair(coo)[1]))
    # CI's ``repro analyze symband.mtx --sym --mrows 64``
    coo = gen.symmetric_banded(1024, 7, np.random.default_rng(7))
    crsd = CRSDMatrix.from_coo(coo, mrows=64,
                               wavefront_size=compatible_wavefront(64))
    out["sym/symband"] = _plan_digests(
        build_sym_plan(SymCRSDMatrix.from_crsd(crsd, coo=coo)))
    return out


def test_renders_and_models_match_digests():
    """Both renderings and the access model of every pinned plan are
    byte-identical to the committed digests."""
    pinned = json.loads(DIGESTS.read_text())
    now = render_digests()
    assert sorted(now) == sorted(pinned)
    moved = [f"{key}: {part}" for key in sorted(pinned)
             for part in pinned[key] if now[key][part] != pinned[key][part]]
    assert not moved, moved


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(render_digests(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
