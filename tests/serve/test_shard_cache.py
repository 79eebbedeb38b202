"""PlanCache.shard_certificate: pattern-keyed certificate memoisation.

The shard provers never read matrix *values*, so certificates are
cached under the pattern fingerprint: the serving steady state — the
same sparsity structure arriving with fresh values — inherits the
certified plan without re-proving.  Declined certificates are cached
too, and eviction prunes certificates whose pattern no longer has a
resident entry.
"""

import numpy as np
import pytest

import repro
from repro.core.serialize import ingest
from repro.formats.coo import COOMatrix
from repro.serve.cache import PlanCache, reset_default_cache
from tests.conftest import random_diagonal_matrix


def matrices(n, size=64):
    return [random_diagonal_matrix(np.random.default_rng(100 + i), n=size)
            for i in range(n)]


def revalued(coo, factor=2.0):
    return COOMatrix(coo.rows, coo.cols, coo.vals * factor, coo.shape)


@pytest.fixture
def coo():
    return matrices(1)[0]


@pytest.fixture(autouse=True)
def fresh_default_cache():
    reset_default_cache()
    yield
    reset_default_cache()


class TestMemoisation:
    def test_second_lookup_is_a_hit(self, coo):
        cache = PlanCache()
        a = cache.shard_certificate(coo, 2, mrows=32)
        b = cache.shard_certificate(coo, 2, mrows=32)
        assert a is b
        assert a.ok
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_config_is_part_of_the_key(self, coo):
        cache = PlanCache()
        a = cache.shard_certificate(coo, 2, mrows=32)
        b = cache.shard_certificate(coo, 4, mrows=32)
        c = cache.shard_certificate(coo, 2, mrows=32, precision="single")
        assert a is not b and a is not c
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_same_pattern_new_values_inherits_certificate(self, coo):
        """The steady-state serving case: value-only updates keep the
        pattern fingerprint, so no re-proving happens."""
        cache = PlanCache()
        donor = cache.shard_certificate(coo, 4, mrows=32)
        twin = cache.shard_certificate(revalued(coo), 4, mrows=32)
        assert twin is donor
        assert cache.stats.hits == 1

    def test_ladder_input_certified_via_crsd_build(self, coo):
        """The cache certifies its own CRSD build, so a DIA-rung input
        still yields a usable certificate (unlike direct
        ``certify_shard_plan`` on the DIA matrix, which declines)."""
        from repro.formats.dia import DIAMatrix

        cache = PlanCache()
        cert = cache.shard_certificate(DIAMatrix.from_coo(coo), 2,
                                       mrows=32)
        assert cert.ok
        assert cert.shard_plan.format == "crsd"

    def test_declined_certificate_is_cached(self, coo, monkeypatch):
        """Re-asking cannot make an unprovable plan provable, so a
        decline is memoised exactly like a pass."""
        import repro.analyze.sharding as sharding
        from repro.analyze.sharding import ShardCertificate

        declined = ShardCertificate(ok=False, num_shards=2)
        monkeypatch.setattr(sharding, "certify_shard_plan",
                            lambda *a, **k: declined)
        cache = PlanCache()
        a = cache.shard_certificate(coo, 2, mrows=32)
        b = cache.shard_certificate(coo, 2, mrows=32)
        assert a is declined and a is b
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_certificate_executes(self, coo):
        from repro.core.crsd import CRSDMatrix
        from repro.shard.executor import ShardedSpMV

        cache = PlanCache()
        cert = cache.shard_certificate(coo, 2, mrows=32)
        crsd = cache.entry(*ingest(coo))._crsd[32]
        assert isinstance(crsd, CRSDMatrix)
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        run = ShardedSpMV(crsd, cert).run(x)
        assert np.allclose(run.y, coo.todense() @ x)

    def test_build_params_are_part_of_the_key(self):
        """A certificate proven for a carrier built with other CRSD
        params (here, no scatter detection) is not served to a
        same-pattern twin built with the defaults: its sub-plans index
        another layout."""
        from repro.core.crsd import CRSDMatrix
        from repro.matrices.suite23 import generate

        wang3 = generate("wang3", scale=0.02, seed=0)
        carrier = CRSDMatrix.from_coo(wang3, mrows=32, detect_scatter=False)
        cache = PlanCache()
        cache.runner(carrier, mrows=32)
        cert = cache.shard_certificate(carrier, 2, mrows=32)
        twin = revalued(wang3, 0.5)
        entry = cache.entry(*ingest(twin))
        runner = cache.shard_runner_for(entry, num_shards=2, shard_index=1,
                                        mrows=32)
        assert runner.certificate is not cert
        assert cache.stats.cert_reuses == 0
        x = np.random.default_rng(0).standard_normal(twin.ncols)
        spec = runner.shard_plan.shards[1]
        rows = slice(spec.row_start, spec.row_end)
        assert np.allclose(runner.run(x).y[rows], (twin.todense() @ x)[rows])


class TestEviction:
    def test_evicting_the_pattern_drops_the_certificate(self):
        a, b = matrices(2)
        cache = PlanCache(capacity=1)
        cache.shard_certificate(a, 2, mrows=32)
        cache.entry(*ingest(b))  # evicts a's entry -> a's pattern is gone
        cache.shard_certificate(a, 2, mrows=32)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_surviving_pattern_keeps_the_certificate(self, coo):
        cache = PlanCache(capacity=2)
        cache.shard_certificate(coo, 2, mrows=32)
        # the revalued twin shares the pattern; inserting it must not
        # orphan the certificate even as other entries churn
        cache.shard_certificate(revalued(coo), 2, mrows=32)
        # evicts the LRU entry
        cache.entry(*ingest(matrices(1, size=48)[0]))
        cache.shard_certificate(revalued(coo, 3.0), 2, mrows=32)
        assert cache.stats.hits == 2


class TestObsIntegration:
    def test_shard_plan_events_emitted(self, coo):
        cache = PlanCache()
        with repro.observe() as sess:
            cache.shard_certificate(coo, 2, mrows=32)
            cache.shard_certificate(coo, 2, mrows=32)
        names = [s.name for s in sess.spans]
        assert "plan_cache.miss.shard_plan" in names
        assert "plan_cache.hit.shard_plan" in names
