"""Fused-engine demotion: prover crashes and verification mismatches.

The fused engine's safety story has two failure modes beyond the clean
certification decline (covered in ``tests/gpu_kernels``): a *crashed*
prover and a *wrong answer* caught by ``REPRO_FUSED_VERIFY``.  Both
must demote the runner to the batched engine permanently, file an
:class:`~repro.resilience.engine.IncidentReport`, and still serve a
``y`` bit-identical to an uncorrupted batched run.
"""

import numpy as np
import pytest

from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.crsd_runner import (
    FUSED_RUNG,
    FUSED_VERIFY_ENV,
    CrsdSpMV,
    fused_verify_mode,
)
from repro.resilience.faults import FaultInjector, FaultSpec, inject
from tests.conftest import random_diagonal_matrix


@pytest.fixture
def crsd(rng):
    coo = random_diagonal_matrix(rng, n=160, scatter=3)
    return coo, CRSDMatrix.from_coo(coo, mrows=32)


def batched_reference(crsd, x, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "batched")
    run = CrsdSpMV(crsd).run(x)
    monkeypatch.setenv("REPRO_EXECUTOR", "fused")
    return run


class TestProverCrash:
    def test_crash_demotes_and_files_incident(self, crsd, rng,
                                              monkeypatch):
        coo, m = crsd
        x = rng.standard_normal(160)
        ref = batched_reference(m, x, monkeypatch)
        spec = FaultSpec(site="phase:*.fused_certify", kind="launch",
                         at_calls=(0,))
        runner = CrsdSpMV(m)
        with inject(FaultInjector(seed=5, specs=[spec])) as inj:
            run = runner.run(x)
            assert any(e.site == "phase:crsd.fused_certify"
                       for e in inj.events)
        # served through batched, bits identical to the clean engine
        assert np.array_equal(run.y, ref.y)
        # the crash is an incident, not a silent decline
        report = run.resilience
        assert report is not None
        assert report.requested == FUSED_RUNG
        assert report.served_rung == "crsd"
        assert report.attempts[0].outcome == "fault"
        assert report.attempts[0].rung == FUSED_RUNG
        assert report.attempts[-1].outcome == "served"
        assert runner.fused_incidents == [report]

    def test_demotion_is_permanent_and_reported_once(self, crsd, rng,
                                                     monkeypatch):
        _, m = crsd
        monkeypatch.setenv("REPRO_EXECUTOR", "fused")
        spec = FaultSpec(site="phase:*.fused_certify", kind="launch",
                         at_calls=(0,))
        runner = CrsdSpMV(m)
        with inject(FaultInjector(seed=5, specs=[spec])):
            first = runner.run(rng.standard_normal(160))
        assert first.resilience is not None
        # injector gone, but the runner stays demoted — and the
        # incident is attached only to the run that triggered it
        later = runner.run(rng.standard_normal(160))
        assert runner._executor.fused_state is False
        assert later.resilience is None
        assert len(runner.fused_incidents) == 1


class TestVerifyMismatch:
    def test_corrupted_fused_output_is_caught(self, crsd, rng,
                                              monkeypatch):
        """A soft fault corrupting the fused kernel's y is caught by
        the always-on verifier: the batched oracle's answer is served,
        the incident says verify-failed, and the runner never runs
        fused again."""
        coo, m = crsd
        x = rng.standard_normal(160)
        ref = batched_reference(m, x, monkeypatch)
        monkeypatch.setenv(FUSED_VERIFY_ENV, "always")
        spec = FaultSpec(site="launch:crsd_fused_kernel", kind="soft",
                         payload="nan", at_calls=(0,), max_fires=1)
        runner = CrsdSpMV(m)
        with inject(FaultInjector(seed=11, specs=[spec])) as inj:
            run = runner.run(x)
            assert any(e.kind == "soft" for e in inj.events)
        assert np.array_equal(run.y, ref.y)
        assert not np.isnan(run.y).any()
        report = run.resilience
        assert report is not None
        assert report.requested == FUSED_RUNG
        assert report.verified is True
        assert report.attempts[0].outcome == "verify-failed"
        assert runner._executor.fused_state is False
        # subsequent runs serve batched, still bit-identical
        again = runner.run(x)
        assert np.array_equal(again.y, ref.y)
        assert again.resilience is None

    def test_clean_fused_run_passes_verification(self, crsd, rng,
                                                 monkeypatch):
        _, m = crsd
        x = rng.standard_normal(160)
        ref = batched_reference(m, x, monkeypatch)
        monkeypatch.setenv(FUSED_VERIFY_ENV, "always")
        runner = CrsdSpMV(m)
        run = runner.run(x)
        assert np.array_equal(run.y, ref.y)
        assert run.resilience is None
        assert runner._executor.fused_state
        assert runner.fused_incidents == []


class TestVerifyModeEnv:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(FUSED_VERIFY_ENV, raising=False)
        assert fused_verify_mode() == "off"

    @pytest.mark.parametrize("mode", ["off", "first", "always"])
    def test_valid_modes(self, monkeypatch, mode):
        monkeypatch.setenv(FUSED_VERIFY_ENV, mode)
        assert fused_verify_mode() == mode

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv(FUSED_VERIFY_ENV, "paranoid")
        with pytest.raises(ValueError, match="REPRO_FUSED_VERIFY"):
            fused_verify_mode()
