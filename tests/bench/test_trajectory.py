"""Benchmark trajectory persistence (``BENCH_spmv.json``)."""

import json

import pytest

from repro.bench.runner import (
    TRAJECTORY_ENV,
    TRAJECTORY_SCHEMA,
    append_trajectory,
    run_gpu_suite,
    trajectory_entry,
)
from repro.ocl.executor import executor_mode


@pytest.fixture(scope="module")
def suite_result():
    return run_gpu_suite(scale=0.01, matrices=[1, 9], formats=["crsd", "ell"])


class TestTrajectoryEntry:
    def test_entry_shape(self, suite_result):
        entry = trajectory_entry(suite_result)
        assert entry["schema"] == TRAJECTORY_SCHEMA
        assert entry["precision"] == "double"
        assert entry["executor"] == executor_mode()
        assert entry["scale"] == 0.01
        # ISO-8601 UTC timestamp
        assert entry["timestamp"].endswith("Z")
        assert set(entry["formats"]) == {"crsd", "ell"}
        crsd = entry["formats"]["crsd"]
        assert crsd["matrices"] == 2
        assert crsd["gflops_min"] <= crsd["gflops_mean"] <= crsd["gflops_max"]
        assert 0.0 < crsd["coalescing_mean"] <= 1.0
        assert crsd["dram_bytes_per_nnz_mean"] > 0

    def test_entry_is_json_safe(self, suite_result):
        json.dumps(trajectory_entry(suite_result))


class TestAppendTrajectory:
    def test_creates_then_appends(self, suite_result, tmp_path):
        path = tmp_path / "BENCH_spmv.json"
        append_trajectory(suite_result, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == TRAJECTORY_SCHEMA
        assert len(payload["entries"]) == 1
        append_trajectory(suite_result, path)
        payload = json.loads(path.read_text())
        assert len(payload["entries"]) == 2

    def test_recovers_from_corrupt_file(self, suite_result, tmp_path):
        path = tmp_path / "BENCH_spmv.json"
        path.write_text("{not json")
        append_trajectory(suite_result, path)
        payload = json.loads(path.read_text())
        assert len(payload["entries"]) == 1


class TestSuiteIntegration:
    def test_explicit_path(self, tmp_path):
        path = tmp_path / "traj.json"
        run_gpu_suite(scale=0.01, matrices=[1], formats=["crsd"],
                      trajectory=path)
        payload = json.loads(path.read_text())
        (entry,) = payload["entries"]
        assert set(entry["formats"]) == {"crsd"}

    def test_env_var_default(self, tmp_path, monkeypatch):
        path = tmp_path / "traj.json"
        monkeypatch.setenv(TRAJECTORY_ENV, str(path))
        run_gpu_suite(scale=0.01, matrices=[1], formats=["crsd"])
        assert json.loads(path.read_text())["entries"]

    def test_no_persistence_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(TRAJECTORY_ENV, raising=False)
        run_gpu_suite(scale=0.01, matrices=[1], formats=["crsd"])
        assert not list(tmp_path.iterdir())
