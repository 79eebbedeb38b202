"""Profile sweeps record every combination they could not run as a
machine-readable skip — not just a log line."""

import json

import numpy as np
import pytest

from repro.obs.profiler import profile_matrix
from repro.ocl.device import TESLA_C2050
from tests.conftest import random_diagonal_matrix


@pytest.fixture()
def oom_report():
    """A sweep on a device too small for HYB (CRSD still fits)."""
    rng = np.random.default_rng(0)
    coo = random_diagonal_matrix(rng, n=512)
    from repro.formats.footprint import footprint_bytes
    from repro.formats.hyb import HYBMatrix
    from repro.core.crsd import CRSDMatrix

    crsd_b = footprint_bytes(CRSDMatrix.from_coo(coo, mrows=128), "double")
    hyb_b = footprint_bytes(HYBMatrix.from_coo(coo), "double")
    assert crsd_b < hyb_b
    vectors = 16 * (coo.nrows + coo.ncols)
    cap = (crsd_b + vectors + hyb_b) // 2
    device = TESLA_C2050.with_overrides(global_mem_bytes=int(cap))
    return profile_matrix(
        coo, "small-dev", formats=("crsd", "hyb"),
        executors=("batched", "pergroup"), precisions=("double",),
        device=device)


def test_each_oom_combo_recorded(oom_report):
    skipped = {(s["format"], s["executor"], s["precision"])
               for s in oom_report.skips}
    assert skipped == {("hyb", "batched", "double"),
                       ("hyb", "pergroup", "double")}
    for s in oom_report.skips:
        assert s["error"] == "DeviceMemoryError"
        assert "exceeds device memory" in s["reason"]
        assert s["entry"] == f"{s['format']}/{s['executor']}/{s['precision']}"


def test_skips_are_machine_readable_json(oom_report):
    payload = oom_report.to_dict()
    assert "skips" in payload
    # round-trips as plain JSON (no numpy scalars, no exceptions)
    again = json.loads(json.dumps(payload["skips"]))
    assert again == payload["skips"]


def test_ran_combos_not_in_skips(oom_report):
    ran = {e["name"] for e in oom_report.registry.entries}
    assert ran == {"crsd/batched/double", "crsd/pergroup/double"}
    assert not ran & {s["entry"] for s in oom_report.skips}


def test_summary_mentions_skips(oom_report):
    text = oom_report.summary()
    assert "skipped: DeviceMemoryError" in text


def test_clean_sweep_has_empty_skips():
    rng = np.random.default_rng(1)
    coo = random_diagonal_matrix(rng, n=64)
    report = profile_matrix(coo, "clean", formats=("crsd",),
                            executors=("batched",))
    assert report.skips == []
    assert report.to_dict()["skips"] == []
