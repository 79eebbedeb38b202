"""Ingest memo: each carrier is hashed once, frozen, and never stale."""

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.core import serialize
from repro.core.crsd import CRSDMatrix
from repro.core.serialize import Ingested, as_ingested, fingerprints, ingest
from repro.core.symcrsd import SymCRSDMatrix
from repro.formats.coo import COOMatrix
from repro.matrices.generators import symmetric_diagonals
from repro.serve.engine import ServeEngine
from tests.conftest import random_diagonal_matrix


def _coo(seed=0, n=96):
    return random_diagonal_matrix(np.random.default_rng(seed), n=n)


def _carrier(kind):
    if kind == "coo":
        return _coo()
    if kind == "crsd":
        return CRSDMatrix.from_coo(_coo(), mrows=32)
    sym = symmetric_diagonals(96, (0, 1, 4), np.random.default_rng(1))
    return SymCRSDMatrix.from_coo(sym, mrows=32)


def _serve_one(engine, matrix, x):
    rid = engine.submit(matrix, x)
    (result,) = [r for r in engine.run() if r.request_id == rid]
    assert result.served
    return result.y


@pytest.fixture
def hash_count(monkeypatch):
    """Counts calls of the uncached hashing function."""
    calls = []
    digest = serialize._digest

    def counting(coo, variant):
        calls.append(coo.nnz)
        return digest(coo, variant)

    monkeypatch.setattr(serialize, "_digest", counting)
    return calls


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Counts calls of the memoised entry point (one per ingest)."""
    calls = []
    memoised = serialize.fingerprints

    def counting(matrix):
        calls.append(matrix)
        return memoised(matrix)

    monkeypatch.setattr(serialize, "fingerprints", counting)
    return calls


class TestFrozenOnSubmit:
    @pytest.mark.parametrize("kind", ["coo", "crsd", "sym"])
    def test_in_place_write_raises(self, kind):
        """A submitted carrier's arrays are read-only: writing into one
        raises numpy's ValueError instead of leaving a stale hash."""
        matrix = _carrier(kind)
        x = np.random.default_rng(2).standard_normal(matrix.ncols)
        _serve_one(ServeEngine(mrows=32), matrix, x)
        arrays = [a for a in matrix.array_inventory().values() if a.size]
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0

    def test_rebinding_values_rehashes_and_rebuilds(self, hash_count):
        """Rebinding ``coo.vals`` re-hashes the matrix: the next request
        is served with the new values through a new cache entry, never
        through the plan built for the old values."""
        coo = _coo()
        x = np.random.default_rng(3).standard_normal(coo.ncols)
        engine = ServeEngine(mrows=32)
        old = fingerprints(coo)
        y_old = _serve_one(engine, coo, x)

        coo.vals = coo.vals * 2.0
        y_new = _serve_one(engine, coo, x)

        new = fingerprints(coo)
        assert len(hash_count) == 2
        assert new.combined != old.combined
        assert new.pattern == old.pattern
        assert np.array_equal(y_new, 2.0 * y_old)
        assert len(engine.cache) == 2
        assert engine.cache.stats.misses == 2  # one runner per entry

    def test_writeable_again_rehashes(self, hash_count):
        """Turning an array writeable again drops the memo: the next
        call re-hashes the edited values."""
        coo = _coo()
        before = fingerprints(coo)
        coo.vals.flags.writeable = True
        coo.vals[0] += 1.0
        after = fingerprints(coo)
        assert len(hash_count) == 2
        assert after.combined != before.combined
        assert not coo.vals.flags.writeable

    def test_constructor_copies_user_arrays(self):
        """COOMatrix copies its inputs, so freezing the carrier never
        reaches the caller's arrays — already-canonical and empty
        inputs included."""
        idx = np.arange(4, dtype=np.int64)
        vals = np.arange(1.0, 5.0)
        coo = COOMatrix(idx, idx, vals, (4, 4))
        fingerprints(coo)
        assert not coo.vals.flags.writeable
        idx[0], vals[0] = 3, 7.0
        assert coo.rows[0] == 0 and coo.vals[0] == 1.0

        empty = np.empty(0)
        fingerprints(COOMatrix(empty, empty, empty, (4, 4)))
        assert empty.flags.writeable


class TestHashCount:
    @staticmethod
    def _cluster():
        return ClusterEngine(4, replicas=2, mrows=32,
                             split_threshold_rows=256)

    @staticmethod
    def _population():
        """A split matrix plus two patterns with a value variant each
        (the variants fan out to the replicas)."""
        big = _coo(seed=10, n=512)
        small = [_coo(seed=11), _coo(seed=12)]
        variants = [COOMatrix(m.rows, m.cols, m.vals * 3.0, m.shape)
                    for m in small]
        return [big, *small, *variants]

    def test_each_carrier_hashed_once(self, hash_count,
                                      fingerprint_calls):
        """Repeated requests, shard sub-requests and value fan-out
        hash each carrier once; each request ingests once."""
        cluster = self._cluster()
        population = self._population()
        rng = np.random.default_rng(4)
        at = 0.0
        for _ in range(3):
            for m in population:
                cluster.submit(m, rng.standard_normal(m.ncols), at=at)
                at += 1e-4
        results = cluster.run()
        assert len(results) == 3 * len(population)
        assert all(r.served for r in results)
        stats = cluster.stats()["cluster"]
        assert stats["split_dispatches"] == 3
        assert stats["resilience"]["value_fanouts"] > 0
        assert len(hash_count) == len(population)
        assert len(fingerprint_calls) == 3 * len(population)

    def test_fresh_dense_request_hashes_once(self, hash_count):
        cluster = self._cluster()
        dense = _coo(seed=13).todense()
        x = np.random.default_rng(5).standard_normal(dense.shape[1])
        for k in range(3):
            cluster.submit(dense.copy(), x, at=k * 1e-4)
        assert len(hash_count) == 3
        assert all(r.served for r in cluster.run())
        assert len(hash_count) == 3

    def test_failover_hashes_nothing(self, hash_count, fingerprint_calls):
        cluster = self._cluster()
        population = self._population()
        rng = np.random.default_rng(6)
        at = 0.0
        for _ in range(3):
            for m in population:
                cluster.submit(m, rng.standard_normal(m.ncols), at=at)
                at += 1e-4
        hashed, ingested = len(hash_count), len(fingerprint_calls)
        # strands one split and one whole-matrix request on device 1
        cluster.fail_device(1, at_s=5e-4)
        results = cluster.run()
        assert all(r.served for r in results)
        assert cluster.stats()["cluster"]["resilience"]["failovers"] == 2
        assert (len(hash_count), len(fingerprint_calls)) == \
            (hashed, ingested)


class TestCarrierIngest:
    def test_resident_crsd_converts_and_hashes_once(self, hash_count,
                                                    monkeypatch):
        """A resident non-COO carrier costs one canonicalisation and
        one hash however often it is served; the memoised COO form is
        shared and frozen."""
        crsd = _carrier("crsd")
        conversions = []
        to_coo = CRSDMatrix.to_coo

        def counting(self):
            conversions.append(self)
            return to_coo(self)

        monkeypatch.setattr(CRSDMatrix, "to_coo", counting)
        engine = ServeEngine(mrows=32)
        x = np.random.default_rng(7).standard_normal(crsd.ncols)
        ys = [_serve_one(engine, crsd, x) for _ in range(3)]
        coo, fps = ingest(crsd)
        assert len(conversions) == 1 and len(hash_count) == 1
        assert ingest(crsd).coo is coo
        assert fps == fingerprints(crsd)
        assert all(np.array_equal(y, ys[0]) for y in ys)
        with pytest.raises(ValueError, match="read-only"):
            coo.vals[0] = 1.0
        monkeypatch.setattr(CRSDMatrix, "to_coo", to_coo)
        assert np.array_equal(coo.todense(), crsd.to_coo().todense())


class TestIngestedHandOff:
    """``ServeEngine.submit`` takes an ``ingest`` result in place of
    the matrix, and refuses a pair ``ingest`` did not produce."""

    def test_ingested_value_is_served_without_hashing(self, hash_count):
        m = _coo(seed=20)
        x = np.random.default_rng(8).standard_normal(m.ncols)
        ingested = ingest(m)
        hashed = len(hash_count)
        y = _serve_one(ServeEngine(mrows=32), ingested, x)
        assert len(hash_count) == hashed
        assert np.array_equal(y, _serve_one(ServeEngine(mrows=32), m, x))

    def test_non_coo_carrier_is_rejected(self):
        crsd = _carrier("crsd")
        x = np.zeros(crsd.ncols)
        with pytest.raises(TypeError, match="COOMatrix"):
            ServeEngine(mrows=32).submit(
                Ingested(crsd, fingerprints(crsd)), x)

    def test_foreign_fingerprints_are_rejected(self):
        a, b = _coo(seed=21), _coo(seed=22)
        x = np.random.default_rng(9).standard_normal(a.ncols)
        engine = ServeEngine(mrows=32)
        _serve_one(engine, b, x)  # b's entry is cached
        with pytest.raises(ValueError, match="fingerprints"):
            engine.submit(Ingested(a, fingerprints(b)), x)
        with pytest.raises(ValueError, match="fingerprints"):
            engine.submit_shard(Ingested(a, fingerprints(b)), x,
                                num_shards=2, shard_index=0)

    def test_symmetric_canonical_form_keeps_the_carriers_hashes(self):
        """The COO form of a symmetric carrier travels with the
        carrier's (variant-folded) fingerprints, even after the COO
        itself has been fingerprinted."""
        sym = _carrier("sym")
        ingested = ingest(sym)
        assert fingerprints(ingested.coo) != ingested.fingerprints
        assert as_ingested(ingested) is ingested
