"""Multi-tenant loadgen through the cluster, CLI, and trajectories."""

import json

import pytest

from repro.cli import main
from repro.serve import serve_session
from repro.serve.loadgen import (
    CLUSTER_TRAJECTORY_SCHEMA,
    LoadConfig,
    append_serve_trajectory,
    report_json,
    run_loadgen,
)

#: small, fast config reused across tests
FAST = dict(scale=0.02, num_requests=24, matrices=("kim1", "wang3"))


def _cluster(devices=3, **kwargs):
    return serve_session(cluster=devices, size_scale=FAST["scale"],
                         keep_y="digest", split_threshold_rows=1,
                         **kwargs)


class TestClusterLoadgen:
    def test_same_seed_same_bytes(self):
        """Same seed + matrix set → byte-identical report across two
        cluster runs (placement, splits, rebalancing all included)."""
        a = run_loadgen(LoadConfig(seed=3, **FAST), engine=_cluster())
        b = run_loadgen(LoadConfig(seed=3, **FAST), engine=_cluster())
        assert report_json(a) == report_json(b)

    def test_cluster_checksum_matches_single_engine(self):
        """The digest-fold checksum is engine-agnostic: a cluster run
        certifies bit-identical ys against the single-engine run."""
        cfg = LoadConfig(seed=3, **FAST)
        single = run_loadgen(cfg)
        clustered = run_loadgen(cfg, engine=_cluster())
        assert clustered.y_checksum == single.y_checksum
        assert single.schema == "repro-serve-report/v1"
        assert clustered.schema == "repro-cluster-report/v1"

    def test_device_loss_run_serves_everything(self):
        """A mid-run loss changes timing but zero answers: the
        checksum still matches the single-engine run."""
        cfg = LoadConfig(seed=3, **FAST)
        single = run_loadgen(cfg)
        engine = _cluster()
        engine.fail_device(0, at_s=3e-5)
        lossy = run_loadgen(cfg, engine=engine)
        assert lossy.y_checksum == single.y_checksum
        assert lossy.to_dict()["requests"]["served"] == FAST["num_requests"]

    def test_tenants_extend_population_but_share_patterns(self):
        cfg = LoadConfig(seed=3, tenants=3, **FAST)
        engine = _cluster()
        report = run_loadgen(cfg, engine=engine)
        assert report.y_checksum != run_loadgen(
            LoadConfig(seed=3, **FAST)).y_checksum
        # 2 suite patterns regardless of tenants: certificates are
        # pattern-keyed, so the store holds one per suite matrix
        store = engine.stats()["cluster"]["cert_store"]
        assert store["certificates"] <= len(FAST["matrices"])
        assert cfg.to_dict()["tenants"] == 3

    def test_tenants_validated(self):
        with pytest.raises(ValueError):
            LoadConfig(tenants=0)


class TestDeprecatedPositionalEngine:
    def test_positional_engine_rejected(self):
        with pytest.raises(TypeError):
            run_loadgen(LoadConfig(seed=3, **FAST), serve_session())

    def test_engine_with_construction_args_rejected(self):
        from repro.serve import BatchConfig

        with pytest.raises(TypeError):
            run_loadgen(LoadConfig(seed=3, **FAST),
                        engine=serve_session(),
                        batch=BatchConfig())


class TestClusterTrajectory:
    def test_cluster_schema_envelope(self, tmp_path):
        traj = tmp_path / "BENCH_cluster.json"
        report = run_loadgen(LoadConfig(seed=3, **FAST), engine=_cluster())
        append_serve_trajectory(report, traj,
                                schema=CLUSTER_TRAJECTORY_SCHEMA)
        payload = json.loads(traj.read_text())
        assert payload["schema"] == CLUSTER_TRAJECTORY_SCHEMA
        (entry,) = payload["entries"]
        assert entry["schema"] == CLUSTER_TRAJECTORY_SCHEMA
        assert entry["y_checksum"] == report.y_checksum
        assert entry["cluster"]["num_devices"] == 3

    def test_entries_identical_across_runs_modulo_timestamp(self, tmp_path):
        traj = tmp_path / "BENCH_cluster.json"
        for _ in range(2):
            report = run_loadgen(LoadConfig(seed=3, **FAST),
                                 engine=_cluster())
            append_serve_trajectory(report, traj,
                                    schema=CLUSTER_TRAJECTORY_SCHEMA)
        a, b = json.loads(traj.read_text())["entries"]
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b


class TestClusterCli:
    LOADGEN = ["loadgen", "--scale", "0.02", "--requests", "16",
               "--matrices", "kim1,wang3", "--devices", "3",
               "--split-rows", "1", "--tenants", "2"]

    def test_loadgen_devices_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.LOADGEN + ["-o", str(a)]) == 0
        assert main(self.LOADGEN + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["schema"] == "repro-cluster-report/v1"
        assert payload["cluster"]["num_devices"] == 3

    def test_loadgen_devices_trajectory_schema(self, tmp_path):
        traj = tmp_path / "BENCH_cluster.json"
        assert main(self.LOADGEN + ["--trajectory", str(traj)]) == 0
        payload = json.loads(traj.read_text())
        assert payload["schema"] == CLUSTER_TRAJECTORY_SCHEMA

    def test_loadgen_fail_device(self, tmp_path, capsys):
        out = tmp_path / "loss.json"
        assert main(self.LOADGEN + ["--fail-device", "0",
                                    "--fail-at-us", "30",
                                    "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["requests"]["served"] == 16
        (reb,) = payload["cluster"]["rebalances"]
        assert reb["device"] == 0

    def test_split_rows_requires_devices(self, capsys):
        assert main(["loadgen", "--scale", "0.02", "--requests", "4",
                     "--split-rows", "1"]) == 2
        assert "--devices" in capsys.readouterr().err

    def test_serve_devices(self, capsys):
        assert main(["serve", "kim1", "--scale", "0.02", "--requests",
                     "8", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 8/8" in out
        assert "cluster 2 devices" in out

    def test_cluster_status_tables(self, capsys):
        assert main(["cluster", "status", "--devices", "3", "--requests",
                     "12", "--scale", "0.02",
                     "--matrices", "kim1,wang3"]) == 0
        out = capsys.readouterr().out
        assert "placement:" in out
        assert "load:" in out

    def test_cluster_status_json(self, capsys):
        assert main(["cluster", "status", "--devices", "3", "--requests",
                     "12", "--scale", "0.02", "--matrices", "kim1,wang3",
                     "--split-rows", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["load"]) == 3
        assert payload["placement"]
        assert payload["cluster"]["split_dispatches"] >= 1

    def test_analyze_devices_alias(self, capsys):
        assert main(["analyze", "kim1", "--scale", "0.02",
                     "--devices", "2"]) == 0
        assert "2-way row-block plan certified" in capsys.readouterr().out
