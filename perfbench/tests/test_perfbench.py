"""Small-size smoke of the three workloads and the tracer's wrappers."""

import sys
import types

import pytest

from perfbench import bench
from perfbench.tracer import LAYERS, Tracer, installed_wrappers
from perfbench.workloads import ServeConfig, SweepConfig, request_trace, \
    tenant_population

SERVE_SMALL = ServeConfig(matrices=("kim1", "wang3", "ecology2"), tenants=2,
                          scale=0.01, copies=2,
                          split_threshold_rows=5000)
SMALL = {
    "serve-tenants": SERVE_SMALL,
    "cluster-split": SERVE_SMALL,
    "suite-sweep": SweepConfig(matrices=("kim1", "wang3"), scale=0.01,
                               min_rows=500),
}


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    """Keep run artifacts and the cross-run reference out of the tree."""
    monkeypatch.setattr(bench, "OUT", tmp_path)
    for var in ("REPRO_EXECUTOR", "REPRO_FUSED_VERIFY"):
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_untraced_smoke(workload):
    result = bench.run_untraced(workload, 3, 0.01, config=SMALL[workload],
                                setup_reps=1)
    assert result.correct, result.errors
    assert result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == set(bench.END_TO_END)
    assert all(v > 0 for v, _ in result.metrics.values())


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_smoke(workload):
    result = bench.run_traced(workload, 3, 0.01, config=SMALL[workload])
    assert result.correct, result.errors
    assert set(result.metrics) == set(bench.per_layer_units())
    assert result.metrics["tracing.unfired"][0] == 0
    assert installed_wrappers() == []
    # a second run of the seed repeats every exact count
    again = bench.run_traced(workload, 3, 0.01, config=SMALL[workload])
    assert again.correct, again.errors


def test_serving_workloads_serve_identical_bits():
    serve = bench.run_untraced("serve-tenants", 4, 0.01,
                               config=SERVE_SMALL, setup_reps=1)
    cluster = bench.run_untraced("cluster-split", 4, 0.01,
                                 config=SERVE_SMALL, setup_reps=1)
    assert serve.correct and cluster.correct, serve.errors + cluster.errors
    assert serve.details["checksum"] == cluster.details["checksum"]


def test_trace_generation_is_seeded_and_stratified():
    population = tenant_population(SERVE_SMALL, 5)
    a = request_trace(SERVE_SMALL, 5, population)
    b = request_trace(SERVE_SMALL, 5, population)
    assert (a.picks == b.picks).all() and (a.arrivals == b.arrivals).all()
    patterns = len(SERVE_SMALL.matrices)
    for start in range(0, a.picks.size, patterns):
        block = a.picks[start:start + patterns] // SERVE_SMALL.tenants
        assert sorted(block) == list(range(patterns))


def test_wrappers_patch_import_sites_and_restore():
    import repro.gpu_kernels.crsd_runner as crsd_runner
    import repro.serve.engine as engine
    from repro.gpu_kernels.base import GPUSpMV
    from repro.ocl import executor

    originals = (engine.predict_gpu_time, crsd_runner.launch_batched,
                 executor.launch_batched, GPUSpMV.run)
    tracer = Tracer()
    with tracer.installed():
        patched = (engine.predict_gpu_time, crsd_runner.launch_batched,
                   executor.launch_batched, GPUSpMV.run)
        assert all(p is not o for p, o in zip(patched, originals))
        assert all(n >= 1 for n in tracer.sites.values()), tracer.sites
        assert set(tracer.sites) == {t for ts in LAYERS.values() for t in ts}
    assert (engine.predict_gpu_time, crsd_runner.launch_batched,
            executor.launch_batched, GPUSpMV.run) == originals
    assert installed_wrappers() == []


def test_restore_reaches_modules_imported_while_traced():
    import repro.perf.costmodel as costmodel

    tracer = Tracer()
    late = types.ModuleType("repro._perfbench_late_import")
    with tracer.installed():
        late.predict_gpu_time = costmodel.predict_gpu_time
        sys.modules[late.__name__] = late
    try:
        assert late.predict_gpu_time is costmodel.predict_gpu_time
        assert "_perfbench_original" not in vars(late.predict_gpu_time)
    finally:
        del sys.modules[late.__name__]


def test_self_time_excludes_children():
    tracer = Tracer({"outer": ("perfbench.workloads:fold_checksum",)})
    tracer.spans.extend([(0, 0.0, 1.0, -1), (0, 0.2, 0.5, 0)])
    summary = tracer.summary(2.0)
    assert summary["layers"]["outer"]["self_s"] == pytest.approx(1.0)
    assert summary["outside_share"] == pytest.approx(0.5)


def test_fused_engine_fires_the_certify_wrappers(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "fused")
    result = bench.run_traced("serve-tenants", 3, 0.01,
                              config=SERVE_SMALL, dump=False)
    assert result.correct, result.errors
    calls = result.details["setup_fn_calls"]
    for target in ("repro.gpu_kernels.fused:build_fused_state",
                   "repro.gpu_kernels.fused:certify_plan",
                   "repro.gpu_kernels.fused:synthesize_trace"):
        assert calls[target] > 0, target


def test_reference_check_flags_a_changed_count(tmp_path):
    path = tmp_path / "reference.json"
    assert bench.reference_check("k", {"counts": {"a": 1}}, path) == []
    assert bench.reference_check("k", {"counts": {"a": 1}}, path) == []
    assert bench.reference_check("k", {"counts": {"a": 2}}, path) != []
