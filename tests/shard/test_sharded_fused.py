"""The fused engine on certified shards.

Shard sub-plans keep absolute slab addressing and run against the full
matrix's ``dia_val`` buffer, so fused certification must bound their
reads by that buffer, not by the sub-plan's own slab sum.  Every shard
of a split then runs fused, bit-identical to the batched engine.  The
ladder behaviours of a shard — a declined shard's ``fused.uncertified``
event, a crashed certification's incident, verification and demotion
— are tabled over every CRSD runner, whole and sharded, in
``tests/gpu_kernels/test_engine_ladder.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.analyze.bounds import check_bounds
from repro.analyze.model import build_model
from repro.analyze.report import AnalysisReport
from repro.analyze.sharding import certify_shard_plan
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.crsd_runner import CrsdSpMM, y_bits
from repro.gpu_kernels.fused import build_fused_state
from repro.obs.recorder import observe
from repro.shard.executor import ShardedSpMV
from repro.shard.plan import ShardPlanner
from tests.conftest import random_diagonal_matrix
from tests.gpu_kernels.test_fused_executor import (
    X_KINDS,
    assert_same_bytes,
    fill_and_scatter,
    long_thin,
    special_x,
)

N = 512


@pytest.fixture
def split():
    """A 4-way certified split whose shards 1-3 start past slab 0."""
    rng = np.random.default_rng(0)
    coo = random_diagonal_matrix(rng, n=N, density=0.7, scatter=4)
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    cert = certify_shard_plan(crsd, ShardPlanner(crsd, coo=coo).plan(4))
    assert cert.ok, cert.reasons
    assert all(sp.regions[0].slab_base > 0 for sp in cert.subplans[1:])
    return crsd, cert


def batched_run(crsd, cert, x, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "batched")
    run = ShardedSpMV(crsd, cert).run(x)
    monkeypatch.delenv("REPRO_EXECUTOR")
    return run


def assert_identical(a, b):
    assert np.array_equal(a.y, b.y)
    assert dataclasses.asdict(a.trace) == dataclasses.asdict(b.trace)


class TestEveryShardFused:
    def test_all_shards_certify_and_match_batched(self, split,
                                                  monkeypatch):
        crsd, cert = split
        x = np.random.default_rng(1).standard_normal(N)
        ref = batched_run(crsd, cert, x, monkeypatch)
        runner = ShardedSpMV(crsd, cert)
        with observe("sharded") as sess:
            run = runner.run(x)
        assert all(e.fused_state for e in runner._executors.values())
        assert [k.attrs["executor"] for k in sess.by_category("kernel")] \
            == ["fused"] * 4
        assert not [s for s in sess.spans if s.name.startswith("fused.")]
        assert_identical(run, ref)
        assert run.resilience is None

    def test_bounds_still_flag_reads_past_the_bound_buffer(self, split):
        """Binding the full buffer does not let a sub-plan whose slab
        reads run past its end certify."""
        crsd, cert = split
        sub = cert.subplans[-1]
        size = crsd.dia_val.size

        def bounds_errors(plan):
            report = AnalysisReport(plan=plan)
            check_bounds(build_model(plan, dia_val_size=size), report)
            return [f for f in report.violations if f.check == "bounds"]

        assert not bounds_errors(sub)
        last = sub.regions[-1]
        past_end = dataclasses.replace(
            sub, regions=sub.regions[:-1] + (dataclasses.replace(
                last, slab_base=last.slab_base + 1),))
        assert bounds_errors(past_end)


@pytest.mark.parametrize("kind", X_KINDS)
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("num_shards", [2, 4])
@pytest.mark.parametrize("build", [fill_and_scatter, long_thin],
                         ids=lambda f: f.__name__)
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteX:
    """Sharded fused ``y`` bytes equal the batched bytes, NaN payloads
    aside, when x holds inf, -inf, NaN and -0.0, or is all -0.0."""

    @staticmethod
    def certified(build, num_shards, precision, nvec=1):
        coo, crsd = build(np.random.default_rng(5))
        cert = certify_shard_plan(
            crsd, ShardPlanner(crsd, coo=coo).plan(num_shards),
            precision=precision, nvec=nvec)
        assert cert.ok, cert.reasons
        return coo, crsd, cert

    def test_spmv(self, build, num_shards, precision, kind, monkeypatch):
        coo, crsd, cert = self.certified(build, num_shards, precision)
        x = special_x(kind, coo.ncols, np.random.default_rng(6))
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        ref = ShardedSpMV(crsd, cert, precision=precision).run(x)
        monkeypatch.delenv("REPRO_EXECUTOR")
        runner = ShardedSpMV(crsd, cert, precision=precision)
        run = runner.run(x)
        assert all(e.fused_state for e in runner._executors.values())
        assert_same_bytes(run, ref)

    @pytest.mark.parametrize("nvec", [2, 4])
    def test_spmm_shard_kernels(self, build, num_shards, precision, kind,
                                nvec, monkeypatch):
        """Every shard's fused kernel, run over the shared buffers,
        writes the whole-matrix batched SpMM bytes."""
        coo, crsd, cert = self.certified(build, num_shards, precision,
                                         nvec)
        x = special_x(kind, (coo.ncols, nvec), np.random.default_rng(6))
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        whole = CrsdSpMM(crsd, nvec=nvec, precision=precision)
        ref = whole.run(x)
        dtype = whole.dtype
        dia_val = crsd.dia_val.astype(dtype)
        flat_x = np.ascontiguousarray(x.astype(dtype).T).ravel()
        y = np.zeros(nvec * crsd.nrows, dtype=dtype)
        for spec, sub in zip(cert.shard_plan.shards, cert.subplans):
            lo, hi = spec.scatter_start, spec.scatter_end
            state, _ = build_fused_state(
                sub, whole.device, precision,
                scatter_colval=crsd.scatter_colval[lo:hi],
                scatter_rowno=crsd.scatter_rowno[lo:hi],
                dia_val_size=crsd.dia_val.size)
            assert state is not None
            sval = np.ascontiguousarray(crsd.scatter_val[lo:hi].T)
            # the kernel called directly, in the runner entry's
            # floating-point state
            with np.errstate(invalid="ignore", over="ignore"):
                state.kernel(dia_val, sval.astype(dtype).ravel(), flat_x, y)
        assert y_bits(y.reshape(nvec, crsd.nrows).T) == y_bits(ref.y)
