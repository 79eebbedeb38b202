"""PlanCache: memoisation, LRU bounds, counters, obs integration."""

import numpy as np
import pytest

import repro
from repro.core.serialize import fingerprint, ingest
from repro.serve.cache import PlanCache, default_cache, reset_default_cache
from tests.conftest import random_diagonal_matrix


def matrices(n, size=64):
    return [random_diagonal_matrix(np.random.default_rng(100 + i), n=size)
            for i in range(n)]


@pytest.fixture
def coo():
    return matrices(1)[0]


@pytest.fixture(autouse=True)
def fresh_default_cache():
    reset_default_cache()
    yield
    reset_default_cache()


class TestRunnerMemoisation:
    def test_second_lookup_is_a_hit(self, coo):
        cache = PlanCache()
        r1 = cache.runner(coo, mrows=32)
        r2 = cache.runner(coo, mrows=32)
        assert r1 is r2
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_prepared_runner_returned(self, coo):
        cache = PlanCache()
        runner = cache.runner(coo, mrows=32)
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        assert np.allclose(runner.run(x).y, coo.matvec(x))

    def test_config_is_part_of_the_key(self, coo):
        cache = PlanCache()
        a = cache.runner(coo, mrows=32, precision="double")
        b = cache.runner(coo, mrows=32, precision="single")
        c = cache.runner(coo, mrows=32, nvec=4)
        assert a is not b and a is not c
        assert cache.stats.misses == 3

    def test_crsd_build_shared_across_runners(self, coo):
        """Different runner configs at one mrows share the CRSD build."""
        cache = PlanCache()
        a = cache.runner(coo, mrows=32)
        b = cache.runner(coo, mrows=32, nvec=2)
        assert a.matrix is b.matrix

    def test_passed_crsd_is_adopted(self, coo):
        from repro.core.crsd import CRSDMatrix

        cache = PlanCache()
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        runner = cache.runner(crsd, mrows=32)
        assert runner.matrix is crsd

    def test_nvec_none_vs_one_are_distinct(self, coo):
        from repro.gpu_kernels.crsd_runner import CrsdSpMM, CrsdSpMV

        cache = PlanCache()
        assert isinstance(cache.runner(coo, mrows=32), CrsdSpMV)
        assert isinstance(cache.runner(coo, mrows=32, nvec=1), CrsdSpMM)


class TestPatternReuse:
    """Same-pattern, different-values matrices share the donor's plan
    artifacts (plan, codelets, fused outcome) through the cache's
    pattern store instead of re-running pattern analysis and codegen;
    run-time demotions stay with the runner that met them."""

    @staticmethod
    def revalued(coo, factor=2.0):
        from repro.formats.coo import COOMatrix

        return COOMatrix(coo.rows, coo.cols, coo.vals * factor,
                         coo.shape)

    def test_same_pattern_adopts_plan(self, coo):
        cache = PlanCache()
        donor = cache.runner(coo, mrows=32)
        twin = cache.runner(self.revalued(coo), mrows=32)
        assert twin is not donor
        assert twin.plan is donor.plan
        assert twin.kernel is donor.kernel
        assert cache.stats.pattern_reuses == 1
        assert cache.stats.misses == 2  # still a runner miss

    def test_adopted_runner_computes_its_own_values(self, coo):
        cache = PlanCache()
        coo2 = self.revalued(coo)
        cache.runner(coo, mrows=32)
        twin = cache.runner(coo2, mrows=32)
        x = np.random.default_rng(5).standard_normal(coo.ncols)
        assert np.allclose(twin.run(x).y, coo2.todense() @ x)

    def test_different_pattern_not_adopted(self, coo):
        cache = PlanCache()
        other = random_diagonal_matrix(np.random.default_rng(200),
                                       n=coo.ncols)
        cache.runner(coo, mrows=32)
        r2 = cache.runner(other, mrows=32)
        assert r2.plan is not cache.runner(coo, mrows=32).plan
        assert cache.stats.pattern_reuses == 0

    def test_duplicate_submission_reuses_pattern(self, coo):
        """A value-only update arriving with explicit duplicate COO
        entries still lands on the canonical pattern fingerprint and
        adopts the donor's plan — pattern_reuses counts it."""
        from repro.formats.coo import COOMatrix

        cache = PlanCache()
        donor = cache.runner(coo, mrows=32)
        dup = COOMatrix(np.concatenate([coo.rows, coo.rows]),
                        np.concatenate([coo.cols, coo.cols]),
                        np.concatenate([coo.vals, coo.vals]),  # sums to 2v
                        coo.shape)
        twin = cache.runner(dup, mrows=32)
        assert twin is not donor
        assert twin.plan is donor.plan
        assert cache.stats.pattern_reuses == 1
        x = np.random.default_rng(7).standard_normal(coo.ncols)
        assert np.allclose(twin.run(x).y, 2.0 * (coo.todense() @ x))

    def test_config_is_part_of_the_pattern_key(self, coo):
        cache = PlanCache()
        cache.runner(coo, mrows=32)
        twin = cache.runner(self.revalued(coo), mrows=64)
        assert cache.stats.pattern_reuses == 0
        assert twin.plan.mrows == 64

    def test_eviction_drops_pattern_donor(self, coo):
        cache = PlanCache(capacity=1)
        cache.runner(coo, mrows=32)
        filler = random_diagonal_matrix(np.random.default_rng(300),
                                        n=48)
        cache.runner(filler, mrows=32)  # evicts coo's entry
        cache.runner(self.revalued(coo), mrows=32)
        assert cache.stats.pattern_reuses == 0

    def test_counter_in_stats_dict(self, coo):
        cache = PlanCache()
        cache.runner(coo, mrows=32)
        cache.runner(self.revalued(coo), mrows=32)
        assert cache.stats.to_dict()["pattern_reuses"] == 1

    def test_twin_of_a_crash_demoted_donor_certifies_and_runs_fused(
            self, coo, monkeypatch):
        """A demotion is the donor's own: the twin gets the plan, not
        the crash, and certifies the plan itself."""
        from repro.gpu_kernels.fused import FusedState
        from repro.resilience.faults import FaultInjector, FaultSpec, inject

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        cache = PlanCache()
        x = np.random.default_rng(3).standard_normal(coo.ncols)
        spec = FaultSpec(site="phase:*.fused_certify", kind="launch",
                         at_calls=(0,))
        with inject(FaultInjector(seed=5, specs=[spec])) as inj:
            donor = cache.runner(coo, mrows=32)
            runs = [donor.run(x)]
            twin = cache.runner(self.revalued(coo), mrows=32)
            runs.append(twin.run(x))
            assert len(inj.events) == 1
        assert twin.artifacts is donor.artifacts
        assert donor._executor.fused_state is False
        assert isinstance(twin._executor.fused_state, FusedState)
        assert twin._executor.fused_state is donor.artifacts.fused
        assert [r.resilience is not None for r in runs] == [True, False]
        assert len(donor.fused_incidents + twin.fused_incidents) == 1
        assert np.allclose(runs[1].y, 2.0 * (coo.todense() @ x))

    def test_twin_of_a_verify_demoted_donor_verifies_itself(
            self, coo, monkeypatch):
        from repro.gpu_kernels.crsd_runner import FUSED_VERIFY_ENV
        from repro.resilience.faults import FaultInjector, FaultSpec, inject

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setenv(FUSED_VERIFY_ENV, "first")
        cache = PlanCache()
        x = np.random.default_rng(4).standard_normal(coo.ncols)
        spec = FaultSpec(site="launch:crsd_fused_kernel", kind="soft",
                         payload="nan", at_calls=(0,), max_fires=1)
        with inject(FaultInjector(seed=11, specs=[spec])):
            donor = cache.runner(coo, mrows=32)
            demoted = donor.run(x)
            twin = cache.runner(self.revalued(coo), mrows=32)
            run = twin.run(x)
        assert demoted.resilience.attempts[0].outcome == "verify-failed"
        assert donor._executor.fused_state is False
        assert not donor._executor.verified
        assert twin._executor.fused_state is donor.artifacts.fused
        assert twin._executor.verified and run.resilience is None
        assert twin.fused_incidents == []
        assert np.allclose(run.y, 2.0 * (coo.todense() @ x))


class TestLRU:
    def test_eviction_beyond_capacity(self):
        ms = matrices(3, size=48)
        cache = PlanCache(capacity=2)
        for m in ms:
            cache.entry(*ingest(m))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert fingerprint(ms[0]) not in cache
        assert fingerprint(ms[2]) in cache

    def test_touch_refreshes_recency(self):
        ms = matrices(3, size=48)
        cache = PlanCache(capacity=2)
        cache.entry(*ingest(ms[0]))
        cache.entry(*ingest(ms[1]))
        cache.entry(*ingest(ms[0]))  # ms[0] now most recent
        cache.entry(*ingest(ms[2]))  # evicts ms[1]
        assert fingerprint(ms[0]) in cache
        assert fingerprint(ms[1]) not in cache

    def test_eviction_drops_prepared_artifacts(self):
        ms = matrices(2, size=48)
        cache = PlanCache(capacity=1)
        cache.runner(ms[0], mrows=32)
        cache.runner(ms[1], mrows=32)
        cache.runner(ms[0], mrows=32)  # re-prepared after eviction
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_hit_rate(self, coo):
        cache = PlanCache()
        assert cache.stats.hit_rate == 0.0
        cache.runner(coo, mrows=32)
        cache.runner(coo, mrows=32)
        cache.runner(coo, mrows=32)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestTuneMemo:
    def test_tune_memoised(self, coo, monkeypatch):
        import repro.core.autotune as autotune

        calls = []
        real = autotune.tune

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(autotune, "tune", counting)
        cache = PlanCache()
        r1 = cache.tune(coo, fast=True)
        r2 = cache.tune(coo, fast=True)
        assert r1 is r2
        assert len(calls) == 1

    def test_distinct_kwargs_tune_separately(self, coo):
        cache = PlanCache()
        cache.tune(coo, fast=True)
        cache.tune(coo, fast=True, mrows_grid=(64, 128))
        assert cache.stats.misses == 2


class TestAutoFormatMemo:
    def test_facade_consults_default_cache(self, coo):
        fmt1 = repro.auto_format(coo)
        assert default_cache().stats.misses == 1
        fmt2 = repro.auto_format(coo)
        assert fmt1 == fmt2
        assert default_cache().stats.hits == 1

    def test_decision_matches_uncached(self, coo):
        from repro.api import _auto_format_impl

        assert repro.auto_format(coo) == _auto_format_impl(coo)

    def test_reset_default_cache(self, coo):
        repro.auto_format(coo)
        first = default_cache()
        reset_default_cache()
        assert default_cache() is not first
        assert default_cache().stats.lookups == 0


class TestObsIntegration:
    def test_events_emitted_under_session(self, coo):
        cache = PlanCache(capacity=1)
        with repro.observe() as sess:
            cache.runner(coo, mrows=32)
            cache.runner(coo, mrows=32)
            # evicts coo's entry
            cache.entry(*ingest(matrices(1, size=48)[0]))
        names = [s.name for s in sess.spans]
        assert "plan_cache.miss.runner" in names
        assert "plan_cache.hit.runner" in names
        assert "plan_cache.evict" in names

    def test_no_session_no_events(self, coo):
        cache = PlanCache()
        cache.runner(coo, mrows=32)  # must not raise without a session
        assert cache.stats.misses == 1
