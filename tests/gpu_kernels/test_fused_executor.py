"""Differential tests: the fused engine vs. the dynamic engines.

``REPRO_EXECUTOR=fused`` executes certified CRSD launches as
whole-matrix expressions with a *synthesized* trace; these tests hold
it to the same bar the batched engine is held to against the per-group
oracle — bit-identical ``y`` (``np.array_equal``, not allclose) and
equality of every trace counter, across the 23-matrix bench suite,
both precisions, the SpMM variant, the local-memory ablation and the
edge-case shapes.  Plans the provers decline must silently serve
through the batched engine, still bit-identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.runner import bench_scale, effective_scale, scaled_device
from repro.core.crsd import CRSDMatrix, compatible_wavefront
from repro.formats.coo import COOMatrix
from repro.gpu_kernels.crsd_runner import CrsdSpMM, CrsdSpMV, y_bits
from repro.gpu_kernels.fused import FusedKernel, build_fused_state
from repro.matrices.suite23 import SUITE, get_spec
from repro.ocl.errors import LaunchError
from tests.conftest import random_diagonal_matrix
from tests.gpu_kernels.test_executor_modes import (
    assert_identical,
    rectangular_coo,
)


def run_fused_and_batched(make_runner, x, monkeypatch, trace=True):
    """Execute one runner config under each engine on fresh state."""
    runs = {}
    for mode in ("batched", "fused"):
        monkeypatch.setenv("REPRO_EXECUTOR", mode)
        runs[mode] = make_runner().run(x, trace=trace)
    return runs["fused"], runs["batched"]


def suite_crsd(spec):
    scale = effective_scale(spec, bench_scale())
    coo = spec.generate(scale=scale, seed=0)
    crsd = CRSDMatrix.from_coo(
        coo, mrows=128, wavefront_size=compatible_wavefront(128))
    return coo, crsd, scaled_device(scale)


class TestDifferentialSuite23:
    """Fused and batched agree bit-for-bit across the full bench
    suite, in both precisions (the CI ``fused-smoke`` gate)."""

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_suite_matrix(self, spec, precision, monkeypatch):
        coo, crsd, dev = suite_crsd(spec)
        x = np.random.default_rng(17).standard_normal(coo.ncols)
        f, b = run_fused_and_batched(
            lambda: CrsdSpMV(crsd, device=dev, precision=precision),
            x, monkeypatch)
        assert_identical(f, b)


class TestThreeEngines:
    """All three engines produce the same bits on one matrix."""

    def test_pergroup_batched_fused_agree(self, rng, monkeypatch):
        coo = random_diagonal_matrix(rng, n=200, density=0.7, scatter=4)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal(200)
        runs = {}
        for mode in ("pergroup", "batched", "fused"):
            monkeypatch.setenv("REPRO_EXECUTOR", mode)
            runs[mode] = CrsdSpMV(crsd).run(x)
        assert_identical(runs["pergroup"], runs["batched"])
        assert_identical(runs["batched"], runs["fused"])
        assert np.allclose(runs["fused"].y, coo.todense() @ x)


class TestVariants:
    @pytest.mark.parametrize("name,nvec", [("nemeth21", 2), ("wang3", 4),
                                           ("kim1", 8)])
    def test_spmm(self, name, nvec, monkeypatch):
        coo, crsd, dev = suite_crsd(get_spec(name))
        x = np.random.default_rng(9).standard_normal((coo.ncols, nvec))
        f, b = run_fused_and_batched(
            lambda: CrsdSpMM(crsd, nvec=nvec, device=dev), x, monkeypatch)
        assert_identical(f, b)
        assert np.allclose(f.y, coo.todense() @ x)

    # nemeth21 exercises multi-pass AD tile staging (the fused engine
    # replaces tile reads by the windows the local-memory prover
    # certified they hold); wang3 is the no-local discussion case
    @pytest.mark.parametrize("name", ["nemeth21", "wang3"])
    @pytest.mark.parametrize("use_local", [True, False])
    def test_local_memory_ablation(self, name, use_local, monkeypatch):
        coo, crsd, dev = suite_crsd(get_spec(name))
        x = np.random.default_rng(3).standard_normal(coo.ncols)
        f, b = run_fused_and_batched(
            lambda: CrsdSpMV(crsd, use_local_memory=use_local,
                             device=dev),
            x, monkeypatch)
        assert_identical(f, b)

    def test_untraced_y_identical(self, rng, monkeypatch):
        coo = random_diagonal_matrix(rng, n=100)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal(100)
        f, b = run_fused_and_batched(lambda: CrsdSpMV(crsd), x,
                                     monkeypatch, trace=False)
        assert np.array_equal(f.y, b.y)
        # untraced runs still report the launch geometry
        assert f.trace.work_groups == b.trace.work_groups
        assert f.trace.wavefronts == b.trace.wavefronts


class TestEdgeCases:
    @pytest.mark.parametrize("shape", [(48, 96), (96, 48)])
    def test_rectangular(self, rng, monkeypatch, shape):
        nrows, ncols = shape
        offsets = (-3, 0, 2, 5) if ncols >= nrows else (-40, -3, 0, 2)
        coo = rectangular_coo(nrows, ncols, offsets, rng)
        crsd = CRSDMatrix.from_coo(coo, mrows=8, wavefront_size=8)
        x = rng.standard_normal(ncols)
        f, b = run_fused_and_batched(lambda: CrsdSpMV(crsd), x,
                                     monkeypatch)
        assert_identical(f, b)
        assert np.allclose(f.y, coo.todense() @ x)

    def test_scatter_only_matrix(self, monkeypatch, rng):
        entries = [(1, 7), (9, 2), (20, 15), (33, 33)]
        rows, cols = zip(*entries)
        coo = COOMatrix(np.array(rows), np.array(cols),
                        np.arange(1.0, 5.0), (40, 40))
        crsd = CRSDMatrix.from_coo(coo, mrows=8, wavefront_size=8,
                                   idle_fill_max_rows=1)
        assert len(crsd.regions) == 0 and crsd.num_scatter_rows == 4
        x = rng.standard_normal(40)
        f, b = run_fused_and_batched(lambda: CrsdSpMV(crsd), x,
                                     monkeypatch)
        assert_identical(f, b)

    def test_all_zero_matrix(self, monkeypatch):
        crsd = CRSDMatrix.from_coo(COOMatrix.empty((64, 64)),
                                   mrows=16, wavefront_size=16)
        x = np.ones(64)
        f, b = run_fused_and_batched(lambda: CrsdSpMV(crsd), x,
                                     monkeypatch)
        assert_identical(f, b)
        assert np.array_equal(f.y, np.zeros(64))

    def test_repeated_runs_stable(self, rng, monkeypatch):
        """The cached fused state serves every run with fresh trace
        objects and a fully re-zeroed y."""
        monkeypatch.setenv("REPRO_EXECUTOR", "fused")
        coo = random_diagonal_matrix(rng, n=120, scatter=3)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        runner = CrsdSpMV(crsd)
        dense = coo.todense()
        traces = []
        for _ in range(3):
            x = rng.standard_normal(120)
            run = runner.run(x)
            assert np.allclose(run.y, dense @ x)
            traces.append(run.trace)
        assert traces[0] is not traces[1]
        assert dataclasses.asdict(traces[0]) == dataclasses.asdict(
            traces[1])


# ----------------------------------------------------------------------
# non-finite x and signed zeros
# ----------------------------------------------------------------------
X_KINDS = ("nonfinite", "negzero")


def special_x(kind, shape, rng):
    """``x`` holding inf, -inf, NaN and -0.0 among normal values, or
    all -0.0."""
    if kind == "negzero":
        return np.full(shape, -0.0)
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    idx = rng.permutation(flat.size)[:max(8, flat.size // 16)]
    for k, v in enumerate((np.inf, -np.inf, np.nan, -0.0)):
        flat[idx[k::4]] = v
    return x


def fill_and_scatter(rng):
    """Slab fill zeros (density 0.7) and scatter rows."""
    coo = random_diagonal_matrix(rng, n=256, density=0.7, scatter=6)
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    assert crsd.num_scatter_rows and (crsd.dia_val == 0).any()
    return coo, crsd


def long_thin(rng):
    """One region of 96 row segments and 3 diagonals."""
    coo = random_diagonal_matrix(rng, n=32 * 96, offsets=(-1, 0, 1),
                                 density=0.9, scatter=3)
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    assert any(r.nrs >= 90 and r.ndiags <= 4 for r in crsd.regions)
    return coo, crsd


def wide_segment(rng):
    """One row segment of 64 diagonals."""
    coo = rectangular_coo(32, 128, range(64), rng, scatter=3)
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    assert any(r.nrs == 1 and r.ndiags >= 60 for r in crsd.regions)
    return coo, crsd


def assert_same_bytes(a, b):
    assert a.y.dtype == b.y.dtype and y_bits(a.y) == y_bits(b.y)
    assert dataclasses.asdict(a.trace) == dataclasses.asdict(b.trace)


# a numpy warning out of a kernel fails the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteX:
    """Fused ``y`` bytes equal batched ``y`` bytes when x holds inf,
    -inf, NaN and -0.0, or is all -0.0: each row forms the same
    products, fill zeros included (``0 * inf`` is NaN), and adds them
    to ``+0`` in the same order.  A NaN's sign and payload are left
    out (see :func:`~repro.gpu_kernels.crsd_runner.y_bits`)."""

    @pytest.mark.parametrize("kind", X_KINDS)
    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("nvec", [1, 2, 4])
    @pytest.mark.parametrize("build", [fill_and_scatter, long_thin,
                                       wide_segment],
                             ids=lambda f: f.__name__)
    def test_fused_matches_batched(self, build, nvec, precision, kind,
                                   monkeypatch):
        rng = np.random.default_rng(11)
        coo, crsd = build(rng)
        x = special_x(kind, (coo.ncols, nvec) if nvec > 1 else coo.ncols,
                      rng)

        def make():
            if nvec == 1:
                return CrsdSpMV(crsd, precision=precision)
            return CrsdSpMM(crsd, nvec=nvec, precision=precision)

        runs = {}
        for mode in ("batched", "fused"):
            monkeypatch.setenv("REPRO_EXECUTOR", mode)
            runner = make()
            runs[mode] = runner.run(x)
            if mode == "fused":
                assert runner._executor.fused_state
        assert_same_bytes(runs["fused"], runs["batched"])
        if kind == "nonfinite":
            assert np.isnan(runs["fused"].y).any()
        else:
            # every sum starts at +0, and +0 + -0 is +0
            assert not np.signbit(runs["fused"].y).any()

    def test_verification_accepts_nan_rows(self, monkeypatch):
        """``REPRO_FUSED_VERIFY`` compares bits with NaNs made equal, so
        a NaN row the oracle also computes does not demote the fused
        kernel."""
        rng = np.random.default_rng(3)
        coo, crsd = fill_and_scatter(rng)
        x = special_x("nonfinite", coo.ncols, rng)
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        ref = CrsdSpMV(crsd).run(x)
        monkeypatch.setenv("REPRO_EXECUTOR", "fused")
        monkeypatch.setenv("REPRO_FUSED_VERIFY", "always")
        runner = CrsdSpMV(crsd)
        run = runner.run(x)
        assert runner._executor.verified and runner._executor.fused_state
        assert run.resilience is None and runner.fused_incidents == []
        assert_same_bytes(run, ref)


class TestKernelContract:
    @staticmethod
    def kernel_and_buffers(rng):
        coo, crsd = fill_and_scatter(rng)
        runner = CrsdSpMV(crsd)
        state, _ = build_fused_state(
            runner.plan, runner.device, "double",
            scatter_colval=crsd.scatter_colval,
            scatter_rowno=crsd.scatter_rowno)
        sval = np.ascontiguousarray(crsd.scatter_val.T).ravel()
        return crsd, state.kernel, (crsd.dia_val.copy(), sval,
                                    rng.standard_normal(coo.ncols),
                                    np.zeros(coo.nrows))

    def test_mixed_dtypes_raise(self, rng):
        """Products round in x's dtype, so a mix is refused instead of
        silently changing bits."""
        _, kernel, buffers = self.kernel_and_buffers(rng)
        kernel(*buffers)
        for i in range(4):
            args = list(buffers)
            args[i] = args[i].astype(np.float32)
            with pytest.raises(LaunchError, match="mix dtypes"):
                kernel(*args)

    def test_termless_region_rows_are_zeroed(self, rng):
        crsd, kernel, (dv, sv, x, y) = self.kernel_and_buffers(rng)
        plan = kernel.plan
        r0 = dataclasses.replace(plan.regions[0], groups=(),
                                 nnz_per_segment=0)
        bare = FusedKernel(
            dataclasses.replace(plan, regions=(r0,) + plan.regions[1:]),
            crsd.scatter_colval, crsd.scatter_rowno)
        y[:] = 7.0
        bare(dv, sv, x, y)
        rows = np.setdiff1d(
            np.arange(r0.start_row,
                      min(r0.start_row + r0.nrs * r0.mrows, plan.nrows)),
            crsd.scatter_rowno)
        assert rows.size
        assert y[rows].tobytes() == np.zeros(rows.size).tobytes()

    def test_slots_out_of_order_are_refused(self, rng):
        plan = self.kernel_and_buffers(rng)[1].plan
        r0 = plan.regions[0]
        shifted = dataclasses.replace(r0, groups=tuple(
            dataclasses.replace(g, d_first=g.d_first + 1)
            for g in r0.groups))
        with pytest.raises(ValueError, match="segment slots"):
            FusedKernel(dataclasses.replace(
                plan, regions=(shifted,) + plan.regions[1:]))


class TestCertificationGate:
    def test_uncertified_plan_falls_back_silently(self, rng,
                                                  monkeypatch):
        """A plan the provers cleanly decline serves through the
        batched engine with no incident — fallback by design, not a
        failure."""
        import repro.gpu_kernels.crsd_runner as runner_mod
        from repro.gpu_kernels.fused import FusedCertificate

        monkeypatch.setenv("REPRO_EXECUTOR", "fused")
        declined = FusedCertificate(ok=False, reasons=("declined",),
                                    model=None, trace=None)
        monkeypatch.setattr(runner_mod, "build_fused_state",
                            lambda *a, **kw: (None, declined))
        coo = random_diagonal_matrix(rng, n=200, scatter=3)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal(200)
        runner = CrsdSpMV(crsd)
        fused_run = runner.run(x)
        assert runner._executor.fused_state is False
        assert runner.fused_incidents == []
        assert fused_run.resilience is None
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        batched_run = CrsdSpMV(crsd).run(x)
        assert_identical(fused_run, batched_run)

    def test_certificate_carries_reasons(self, rng):
        from repro.gpu_kernels.fused import certify_plan

        coo = random_diagonal_matrix(rng, n=200, density=0.8, scatter=0)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        runner = CrsdSpMV(crsd)
        tiny = runner.device.with_overrides(local_mem_per_cu_bytes=8)
        cert = certify_plan(runner.plan, tiny, "double",
                            scatter_colval=crsd.scatter_colval,
                            scatter_rowno=crsd.scatter_rowno)
        assert not cert.ok
        assert cert.reasons

    def test_certified_plan_has_trace(self, rng):
        from repro.gpu_kernels.fused import certify_plan

        coo = random_diagonal_matrix(rng, n=200, scatter=3)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        runner = CrsdSpMV(crsd)
        cert = certify_plan(runner.plan, runner.device, "double",
                            scatter_colval=crsd.scatter_colval,
                            scatter_rowno=crsd.scatter_rowno)
        assert cert.ok and cert.reasons == ()
        assert cert.trace is not None

    def test_certification_walks_once_without_closed_form(
            self, rng, monkeypatch):
        """A fused state costs one trace walk and no closed-form
        prediction; a plan the provers decline is never walked."""
        import repro.analyze.coalescing as coalescing
        import repro.gpu_kernels.fused as fused_mod

        calls = {"predict_trace": 0, "_affine_traffic": 0,
                 "synthesize_trace": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(coalescing, "predict_trace")
        counting(coalescing, "_affine_traffic")
        counting(fused_mod, "synthesize_trace")
        coo = random_diagonal_matrix(rng, n=200, scatter=3)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        runner = CrsdSpMV(crsd)
        state, cert = fused_mod.build_fused_state(
            runner.plan, runner.device, "double",
            scatter_colval=crsd.scatter_colval,
            scatter_rowno=crsd.scatter_rowno)
        assert state is not None and state.trace is cert.trace
        assert calls == {"predict_trace": 0, "_affine_traffic": 0,
                         "synthesize_trace": 1}
        tiny = runner.device.with_overrides(local_mem_per_cu_bytes=8)
        state, cert = fused_mod.build_fused_state(
            runner.plan, tiny, "double",
            scatter_colval=crsd.scatter_colval,
            scatter_rowno=crsd.scatter_rowno)
        assert state is None and not cert.ok and cert.trace is None
        assert calls == {"predict_trace": 0, "_affine_traffic": 0,
                         "synthesize_trace": 1}


class TestTemplateReuse:
    def test_same_pattern_shares_plan_and_fused_state(self, rng,
                                                      monkeypatch):
        """A same-pattern new-values matrix adopts the donor's plan,
        codelets and fused state; only the value buffers differ — and
        the served bits still match the batched engine."""
        monkeypatch.setenv("REPRO_EXECUTOR", "fused")
        coo = random_diagonal_matrix(rng, n=160, scatter=3)
        vals2 = coo.vals * 1.5 + 0.25
        coo2 = COOMatrix(coo.rows, coo.cols, vals2, coo.shape)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        crsd2 = CRSDMatrix.from_coo(coo2, mrows=32)
        donor = CrsdSpMV(crsd)
        x = rng.standard_normal(160)
        donor.run(x)  # builds the fused state
        adopted = CrsdSpMV(crsd2, artifacts=donor.artifacts)
        assert adopted.plan is donor.plan
        assert adopted.kernel is donor.kernel
        run = adopted.run(x)
        assert adopted._executor.fused_state is donor._executor.fused_state
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        ref = CrsdSpMV(crsd2).run(x)
        assert np.array_equal(run.y, ref.y)
        assert dataclasses.asdict(run.trace) == dataclasses.asdict(
            ref.trace)

    def test_incompatible_artifacts_raise(self, rng):
        coo = random_diagonal_matrix(rng, n=160, scatter=3)
        other = random_diagonal_matrix(rng, n=96, scatter=2)
        donor = CrsdSpMV(CRSDMatrix.from_coo(other, mrows=32))
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        with pytest.raises(ValueError, match="do not fit"):
            CrsdSpMV(crsd, artifacts=donor.artifacts)
        with pytest.raises(ValueError, match="do not fit"):
            CrsdSpMM(crsd, nvec=2, artifacts=donor.artifacts)

    def test_artifacts_bound_to_one_device_and_precision(self, rng):
        crsd = CRSDMatrix.from_coo(
            random_diagonal_matrix(rng, n=160, scatter=3), mrows=32)
        donor = CrsdSpMV(crsd)
        with pytest.raises(ValueError, match="another device"):
            CrsdSpMV(crsd, precision="single", artifacts=donor.artifacts)
