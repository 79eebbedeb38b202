"""Python codelets are generated only when an engine needs them.

A CRSD runner builds its plan at construction; the codelets (emit,
source validation, ``compile``) are generated on the first batched or
per-group launch, or for fused verification.  A runner the fused
engine serves never generates them, while ``strict=True`` still
analyzes, and so fails, at construction.
"""

import numpy as np
import pytest

import repro.gpu_kernels.crsd_runner as runner_mod
from repro.analyze import driver
from repro.analyze.report import KernelAnalysisError
from repro.analyze.sharding import certify_shard_plan
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.crsd_runner import (
    FUSED_VERIFY_ENV,
    CrsdSpMM,
    CrsdSpMV,
)
from repro.gpu_kernels.fused import FusedCertificate
from repro.ocl.device import TESLA_C2050
from repro.shard.executor import ShardedSpMV
from repro.shard.plan import ShardPlanner
from tests.conftest import random_diagonal_matrix

N = 160


@pytest.fixture
def codegen_calls(monkeypatch):
    """Counts codelet generations by the CRSD and sharded runners (all
    of them generate through their plan executors)."""
    calls = []
    real = runner_mod.generate_python_kernel

    def counting(plan, strict=False):
        calls.append(plan)
        return real(plan, strict=strict)

    monkeypatch.setattr(runner_mod, "generate_python_kernel", counting)
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv(FUSED_VERIFY_ENV, raising=False)
    return calls


@pytest.fixture
def crsd():
    coo = random_diagonal_matrix(np.random.default_rng(0), n=N, scatter=3)
    return CRSDMatrix.from_coo(coo, mrows=32)


def x_of(n=N, nvec=None):
    rng = np.random.default_rng(1)
    return rng.standard_normal(n if nvec is None else (n, nvec))


class TestFusedServedRunners:
    def test_spmv_never_generates(self, crsd, codegen_calls):
        runner = CrsdSpMV(crsd)
        runner.run(x_of())
        runner.run(x_of())
        assert runner._executor.fused_state
        assert codegen_calls == []

    def test_spmm_never_generates(self, crsd, codegen_calls):
        runner = CrsdSpMM(crsd, nvec=3)
        runner.run(x_of(nvec=3))
        assert codegen_calls == []

    def test_sharded_never_generates(self, crsd, codegen_calls):
        plan = ShardPlanner(crsd).plan(2)
        ShardedSpMV(crsd, certify_shard_plan(crsd, plan)).run(x_of())
        assert codegen_calls == []


class TestGeneratedOnDemand:
    def test_batched_launch_generates_once(self, crsd, codegen_calls,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        runner = CrsdSpMV(crsd)
        assert codegen_calls == []
        runner.run(x_of())
        runner.run(x_of())
        assert codegen_calls == [runner.plan]

    def test_fused_verification_generates(self, crsd, codegen_calls,
                                          monkeypatch):
        monkeypatch.setenv(FUSED_VERIFY_ENV, "first")
        runner = CrsdSpMV(crsd)
        runner.run(x_of())
        runner.run(x_of())
        assert runner._executor.verified
        assert codegen_calls == [runner.plan]

    def test_decline_generates(self, crsd, codegen_calls, monkeypatch):
        declined = FusedCertificate(ok=False, reasons=("declined",))
        monkeypatch.setattr(runner_mod, "build_fused_state",
                            lambda *a, **kw: (None, declined))
        runner = CrsdSpMV(crsd)
        runner.run(x_of())
        assert codegen_calls == [runner.plan]

    def test_declined_shard_generates_only_its_own(self, crsd,
                                                   codegen_calls,
                                                   monkeypatch):
        real = runner_mod.build_fused_state
        declined = FusedCertificate(ok=False, reasons=("declined",))
        runner = ShardedSpMV(
            crsd, certify_shard_plan(crsd, ShardPlanner(crsd).plan(2)))
        # decline shard 1 only
        monkeypatch.setattr(
            runner_mod, "build_fused_state",
            lambda plan, *a, **kw: ((None, declined)
                                    if plan is runner.subplans[1]
                                    else real(plan, *a, **kw)))
        runner.run(x_of())
        assert codegen_calls == [runner.subplans[1]]

    def test_twin_shares_donor_codelets(self, crsd, codegen_calls):
        donor = CrsdSpMV(crsd)
        twin = CrsdSpMV(crsd, artifacts=donor.artifacts)
        assert twin.kernel is donor.kernel
        assert len(codegen_calls) == 1


class TestStrictStaysEager:
    def test_strict_raises_at_construction(self, crsd, codegen_calls,
                                           monkeypatch):
        """``strict=True`` runs the analyzer before any run: a plan it
        refutes (here, on a device with 8 bytes of local memory) raises
        from the constructor, while a non-strict runner constructs."""
        real = driver.analyze_plan
        tiny = TESLA_C2050.with_overrides(local_mem_per_cu_bytes=8)
        monkeypatch.setattr(driver, "analyze_plan",
                            lambda plan, **kw: real(plan, device=tiny))
        CrsdSpMV(crsd)
        assert codegen_calls == []
        with pytest.raises(KernelAnalysisError):
            CrsdSpMV(crsd, strict=True)
