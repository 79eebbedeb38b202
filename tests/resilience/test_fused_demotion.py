"""The ``REPRO_FUSED_VERIFY`` policy switch.

The fused engine's demotion behaviours — a *crashed* prover and a
*wrong answer* caught by verification, each demoting the runner to the
batched engine for good and filing an
:class:`~repro.resilience.engine.IncidentReport` — are tabled over
every CRSD runner, whole and sharded, in
``tests/gpu_kernels/test_engine_ladder.py``.
"""

import pytest

from repro.gpu_kernels.crsd_runner import FUSED_VERIFY_ENV, fused_verify_mode


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
