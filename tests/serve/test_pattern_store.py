"""The engine-scoped PatternStore: layouts and plan artifacts built once.

A 4-device replicated cluster serving same-pattern tenants plus one
split matrix analyses each pattern's structure once, and certifies each
fused plan and generates each plan's codelets once, cluster-wide, while
every device keeps its own cache counters, demotions and incidents.
The reference run shares only shard certificates across devices: every
layout and plan lookup misses, so each runner builds its own.
"""

import numpy as np
import pytest

import repro.core.crsd as crsd_mod
import repro.gpu_kernels.crsd_runner as runner_mod
from repro.cluster.engine import ClusterEngine
from repro.core.serialize import ingest
from repro.formats.coo import COOMatrix
from repro.gpu_kernels.crsd_runner import FUSED_VERIFY_ENV
from repro.gpu_kernels.fused import FusedState
from repro.matrices.suite23 import get_spec
from repro.resilience.faults import FaultInjector, FaultSpec, inject
from repro.serve.cache import PatternStore, PlanCache

SCALE = 0.01
TENANTS = 3
#: ecology2 (10,000 rows at this scale) splits; kim1 and wang3 do not
SPLIT_ROWS = 5000


def revalued(coo, seed):
    factors = np.random.default_rng(seed).uniform(0.5, 1.5, coo.nnz)
    return COOMatrix(coo.rows, coo.cols, coo.vals * factors, coo.shape)


@pytest.fixture(scope="module")
def population():
    mats = []
    for name in ("kim1", "wang3"):
        base = get_spec(name).generate(scale=SCALE, seed=0)
        mats += [base] + [revalued(base, t) for t in range(1, TENANTS)]
    return mats + [get_spec("ecology2").generate(scale=SCALE, seed=0)]


@pytest.fixture(autouse=True)
def default_engine(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv(FUSED_VERIFY_ENV, raising=False)


@pytest.fixture
def calls(monkeypatch):
    """Counts of structure analyses, fused certifications and codelet
    generations."""
    counts = {"analyze": 0, "certify": 0, "codegen": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(crsd_mod, "analyze_structure",
                        counting("analyze", crsd_mod.analyze_structure))
    monkeypatch.setattr(runner_mod, "build_fused_state",
                        counting("certify", runner_mod.build_fused_state))
    monkeypatch.setattr(runner_mod, "generate_python_kernel",
                        counting("codegen",
                                 runner_mod.generate_python_kernel))
    return counts


def serve(population, certificates_only=False, monkeypatch=None):
    """Serve every matrix twice, one request apart, on a 4-device
    cluster with two replicas; returns ``(cluster, served results)``.

    ``certificates_only`` makes every layout and plan lookup miss.
    """
    if certificates_only:
        real = PatternStore.get
        monkeypatch.setattr(
            PatternStore, "get",
            lambda self, kind, key, token: (
                real(self, kind, key, token) if kind == "certificate"
                else (None, False)))
    cluster = ClusterEngine(4, replicas=2, split_threshold_rows=SPLIT_ROWS,
                            size_scale=SCALE)
    rng = np.random.default_rng(0)
    rids = []
    t = 0.0
    for _ in range(2):
        for coo in population:
            rids.append(cluster.submit(coo, rng.standard_normal(coo.ncols),
                                       at=t))
            t += 1e-3
    by_rid = {r.request_id: r for r in cluster.run()}
    assert all(by_rid[rid].served for rid in rids)
    return cluster, [by_rid[rid] for rid in rids]


def executors(engine):
    """``(runner key, executor)`` of every prepared runner on one
    device."""
    out = []
    for entry in engine.cache._entries.values():
        for key, runner in entry._runners.items():
            if hasattr(runner, "_executors"):
                out += [(key, ex) for ex in runner._executors.values()]
            else:
                out.append((key, runner._executor))
    return out


def fused_outcomes(store):
    return [v.fused for v, _ in store._entries["plan"].values()]


@pytest.fixture
def reference(population, monkeypatch):
    """The certificates-only run's device counters and served ys."""
    with monkeypatch.context() as m:
        cluster, served = serve(population, certificates_only=True,
                                monkeypatch=m)
    stats = [(d.engine.cache.stats.hits, d.engine.cache.stats.misses)
             for d in cluster.devices]
    return stats, [r.y for r in served]


def test_each_pattern_analysed_and_certified_once(population, calls,
                                                  monkeypatch):
    with monkeypatch.context() as m:
        serve(population, certificates_only=True, monkeypatch=m)
    unshared = dict(calls)
    calls.update(analyze=0, certify=0)
    cluster, _ = serve(population)
    store = cluster.store
    assert store.count("layout") == 3  # kim1, wang3, ecology2
    assert calls["analyze"] == store.count("layout")
    assert calls["certify"] == store.count("plan")
    assert store.count("certificate") == 1
    # replicas and same-pattern tenants certified per device before
    assert unshared["analyze"] > calls["analyze"]
    assert unshared["certify"] > calls["certify"]
    assert all(isinstance(v, FusedState) for v in fused_outcomes(store))
    assert calls["codegen"] == 0  # the fused engine serves every plan


def test_batched_cluster_generates_each_plan_once(population, calls,
                                                  monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "batched")
    cluster, _ = serve(population)
    runs = [ex for d in cluster.devices for _, ex in executors(d.engine)]
    plans = {ex.plan for ex in runs}
    # replicas and same-pattern tenants share the generated codelets
    assert calls["codegen"] == len(plans) < len(runs)
    assert len({id(ex.kernel) for ex in runs}) == len(plans)
    assert cluster.store.count("plan") == len(plans)
    assert calls["certify"] == 0


def test_device_counters_and_ys_match_unshared_builds(population,
                                                      reference):
    stats, ys = reference
    cluster, served = serve(population)
    assert [(d.engine.cache.stats.hits, d.engine.cache.stats.misses)
            for d in cluster.devices] == stats
    for r, y in zip(served, ys):
        assert np.array_equal(r.y, y)


def assert_demoted_on_one_device(cluster, served, ys, outcome):
    incidents = [r.resilience for r in served if r.resilience is not None]
    assert len(incidents) == 1
    assert incidents[0].attempts[0].outcome == outcome
    demoted = {d.index for d in cluster.devices
               for _, ex in executors(d.engine) if ex.fused_state is False}
    assert len(demoted) == 1
    # the same plans still run fused on the other devices
    (bad,) = demoted
    bad_keys = {key for key, ex in executors(cluster.devices[bad].engine)
                if ex.fused_state is False}
    others = [ex for d in cluster.devices if d.index != bad
              for key, ex in executors(d.engine) if key in bad_keys]
    assert others and all(ex.fused_state for ex in others)
    # nothing of the demotion reached the store
    assert all(isinstance(v, FusedState)
               for v in fused_outcomes(cluster.store))
    for r, y in zip(served, ys):
        assert np.array_equal(r.y, y)


def test_prover_crash_demotes_one_device_and_publishes_nothing(
        population, reference, calls):
    _, ys = reference
    calls.update(analyze=0, certify=0)
    spec = FaultSpec(site="phase:*.fused_certify", kind="launch",
                     at_calls=(0,))
    with inject(FaultInjector(seed=5, specs=[spec])) as inj:
        cluster, served = serve(population)
        assert len(inj.events) == 1
    # the crashed plan was certified (once) by another runner
    assert calls["certify"] == cluster.store.count("plan")
    assert_demoted_on_one_device(cluster, served, ys, "fault")


def test_verify_mismatch_demotes_one_device_and_publishes_nothing(
        population, reference, monkeypatch):
    _, ys = reference
    monkeypatch.setenv(FUSED_VERIFY_ENV, "always")
    spec = FaultSpec(site="launch:crsd_fused_kernel", kind="soft",
                     payload="nan", at_calls=(0,), max_fires=1)
    with inject(FaultInjector(seed=11, specs=[spec])):
        cluster, served = serve(population)
    assert_demoted_on_one_device(cluster, served, ys, "verify-failed")


class TestPrivateStore:
    def test_eviction_drops_orphaned_layouts_and_fused_outcomes(
            self, population):
        kim1, wang3 = population[0], population[TENANTS]
        cache = PlanCache(capacity=1)
        assert isinstance(cache.store, PatternStore)
        for coo in (kim1, wang3):
            cache.runner(coo).run(np.ones(coo.ncols))
            assert cache.store.count("layout") == 1
            assert cache.store.count("plan") == 1
        live = ingest(wang3)[1].pattern
        assert all(isinstance(v, FusedState)
                   for v in fused_outcomes(cache.store))
        for kind in ("layout", "plan"):
            assert [k[0] for k in cache.store._entries[kind]] == [live]

    def test_same_pattern_eviction_keeps_the_layout(self, population):
        kim1, twin = population[0], population[1]
        cache = PlanCache(capacity=1)
        first = cache.runner(kim1)
        second = cache.runner(twin)
        assert cache.stats.evictions == 1
        assert second.matrix.layout is first.matrix.layout
        assert cache.store.count("layout") == 1
