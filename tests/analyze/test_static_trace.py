"""Differential tests: the static trace prediction is *exact*.

``repro.analyze.predict_trace`` claims to compute the dynamic
:class:`KernelTrace` in closed form, with the L2 model disabled
(L2 residency depends on execution order and is out of static scope).
These tests hold it to that claim bit-for-bit — every counter equal,
``dataclasses.asdict`` on both sides — across the whole 23-matrix
bench suite, both precisions, local memory on and off, and the
multi-vector SpMM variant.

``repro.analyze.synthesize_trace`` is the one walk the fused engine
and the shard certificate trust for every counter; it is held to the
closed form on the L2-free device and to the batched engine's dynamic
trace on an L2 device, across the same variants.
"""

import dataclasses

import numpy as np
import pytest

import repro.analyze.trace as trace_mod
from repro.analyze import (
    analyze_matrix,
    build_model,
    predict_trace,
    synthesize_trace,
)
from repro.bench.runner import bench_scale, effective_scale, scaled_device
from repro.codegen.plan import build_plan
from repro.core.crsd import CRSDMatrix, compatible_wavefront
from repro.gpu_kernels.crsd_runner import CrsdSpMM, CrsdSpMV
from repro.matrices.suite23 import SUITE, get_spec
from repro.ocl.device import TESLA_C2050
from tests.conftest import random_diagonal_matrix

#: static prediction is defined on the L2-disabled device
NO_L2 = TESLA_C2050.with_overrides(l2_bytes=0)


def suite_crsd(spec, mrows=128):
    scale = effective_scale(spec, bench_scale())
    coo = spec.generate(scale=scale, seed=0)
    crsd = CRSDMatrix.from_coo(
        coo, mrows=mrows, wavefront_size=compatible_wavefront(mrows))
    return coo, crsd


def static_trace(crsd, use_local_memory=True, nvec=1, precision="double"):
    plan = build_plan(crsd, use_local_memory=use_local_memory, nvec=nvec)
    model = build_model(plan, precision=precision,
                        scatter_colval=crsd.scatter_colval,
                        scatter_rowno=crsd.scatter_rowno)
    return predict_trace(model, NO_L2)


def assert_bit_identical(static, dynamic):
    assert static is not None
    assert dataclasses.asdict(static) == dataclasses.asdict(dynamic)


class TestSuite23:
    """Zero violations and exact counters on every bench matrix."""

    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_static_equals_dynamic(self, spec):
        coo, crsd = suite_crsd(spec)
        x = np.random.default_rng(7).standard_normal(coo.ncols)
        run = CrsdSpMV(crsd, device=NO_L2).run(x)
        assert_bit_identical(static_trace(crsd), run.trace)

    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_analyzer_clean(self, spec):
        _, crsd = suite_crsd(spec)
        report = analyze_matrix(crsd)
        assert report.ok, [str(f) for f in report.violations]
        assert report.exit_code == 0
        assert report.divergence_efficiency == 1.0
        assert report.batched_write_sets_disjoint is True
        assert report.predicted is not None


class TestVariants:
    """Exactness holds for the ablations and the SpMM variant too."""

    # nemeth21 exercises multi-pass AD tile staging (ndiags > mrows+1),
    # wang3 is the paper's no-local-memory discussion case
    @pytest.mark.parametrize("name", ["nemeth21", "wang3"])
    @pytest.mark.parametrize("use_local", [True, False])
    def test_local_memory_ablation(self, name, use_local):
        coo, crsd = suite_crsd(get_spec(name))
        x = np.random.default_rng(3).standard_normal(coo.ncols)
        run = CrsdSpMV(crsd, use_local_memory=use_local,
                       device=NO_L2).run(x)
        assert_bit_identical(
            static_trace(crsd, use_local_memory=use_local), run.trace)

    @pytest.mark.parametrize("name", ["crystk03", "nemeth21"])
    def test_single_precision(self, name):
        coo, crsd = suite_crsd(get_spec(name))
        x = np.random.default_rng(5).standard_normal(coo.ncols)
        run = CrsdSpMV(crsd, device=NO_L2, precision="single").run(x)
        assert_bit_identical(
            static_trace(crsd, precision="single"), run.trace)

    @pytest.mark.parametrize("name,nvec", [("nemeth21", 2), ("wang3", 4)])
    def test_spmm(self, name, nvec):
        coo, crsd = suite_crsd(get_spec(name))
        x = np.random.default_rng(9).standard_normal((coo.ncols, nvec))
        run = CrsdSpMM(crsd, nvec=nvec, device=NO_L2).run(x)
        assert_bit_identical(static_trace(crsd, nvec=nvec), run.trace)


class TestReportMetrics:
    """The report's static efficiencies equal the dynamic counters'."""

    def test_efficiencies_match_dynamic(self, rng):
        coo = random_diagonal_matrix(rng, n=300, density=0.7, scatter=4)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        report = analyze_matrix(crsd, device=NO_L2)
        x = rng.standard_normal(coo.ncols)
        tr = CrsdSpMV(crsd, device=NO_L2).run(x).trace
        dev = NO_L2
        assert report.load_coalescing_efficiency == pytest.approx(
            tr.load_coalescing_efficiency(8, dev.transaction_bytes))
        assert report.store_coalescing_efficiency == pytest.approx(
            tr.store_coalescing_efficiency(dev.transaction_bytes))
        assert_bit_identical(report.predicted, tr)


#: (use_local_memory, nvec) variants the walk is held to
WALK_VARIANTS = ((True, 1), (False, 1), (True, 3))


def walk_cases(spec):
    """``(crsd, plan, precision)`` over mrows 32/128 x local memory on
    and off x nvec x precision for one suite matrix (scale 0.02, at
    least 1000 rows)."""
    coo = spec.generate(scale=effective_scale(spec, 0.02, min_rows=1000),
                        seed=0)
    for mrows in (32, 128):
        crsd = CRSDMatrix.from_coo(
            coo, mrows=mrows, wavefront_size=compatible_wavefront(mrows))
        for use_local, nvec in WALK_VARIANTS:
            plan = build_plan(crsd, use_local_memory=use_local, nvec=nvec)
            for precision in ("double", "single"):
                yield crsd, plan, precision


def crsd_model(crsd, plan, precision="double"):
    return build_model(plan, precision=precision,
                       scatter_colval=crsd.scatter_colval,
                       scatter_rowno=crsd.scatter_rowno)


class TestTraceWalk:
    """The synthesized trace's one walk gives every counter exactly."""

    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_walk_equals_closed_form_without_l2(self, spec):
        for crsd, plan, precision in walk_cases(spec):
            model = crsd_model(crsd, plan, precision)
            assert_bit_identical(predict_trace(model, NO_L2),
                                 synthesize_trace(model, NO_L2))

    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_walk_equals_dynamic_with_l2(self, spec, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        device = scaled_device(0.02)
        rng = np.random.default_rng(11)
        for crsd, plan, precision in walk_cases(spec):
            nvec = plan.nvec
            if nvec > 1:
                runner = CrsdSpMM(crsd, nvec=nvec, device=device,
                                  precision=precision)
                x = rng.standard_normal((crsd.ncols, nvec))
            else:
                runner = CrsdSpMV(crsd, device=device, precision=precision,
                                  use_local_memory=plan.use_local_memory)
                x = rng.standard_normal(crsd.ncols)
            dynamic = runner.run(x).trace
            assert_bit_identical(
                synthesize_trace(crsd_model(crsd, runner.plan, precision),
                                 device), dynamic)

    @pytest.mark.parametrize("name", ["nemeth21", "wang3"])
    def test_batch_limit_boundary(self, name, monkeypatch):
        """Forcing the stacked grid down to 100 lanes splits every
        access across batches (one group per batch at mrows 128, three
        straddling access boundaries at mrows 32); the traces must not
        change."""
        device = scaled_device(0.02)
        models = [crsd_model(crsd, plan, precision) for crsd, plan,
                  precision in walk_cases(get_spec(name))]
        wide = [(synthesize_trace(m, device), synthesize_trace(m, NO_L2))
                for m in models]
        monkeypatch.setattr(trace_mod, "WALK_BATCH_LANES", 100)
        narrow = [(synthesize_trace(m, device), synthesize_trace(m, NO_L2))
                  for m in models]
        assert narrow == wide

    def test_unindexed_scatter_raises(self, rng):
        coo = random_diagonal_matrix(rng, n=200, scatter=4)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        model = build_model(build_plan(crsd))
        assert model.scatter_unindexed
        assert predict_trace(model, NO_L2) is None
        with pytest.raises(ValueError, match="index data"):
            synthesize_trace(model, NO_L2)
