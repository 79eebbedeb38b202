"""Cluster serving: bit-identity, certified splits, halo accounting."""

import numpy as np
import pytest

import repro
from repro.cluster.halo import shard_halo_elements
from repro.matrices.suite23 import get_spec
from repro.serve import serve_session
from repro.serve.engine import Engine, ServeEngine
from repro.validation import InputValidationError

#: the acceptance sweep population: eight structural families
SWEEP_MATRICES = ("crystk03", "s3dkt3m2", "ecology2", "wang3", "kim1",
                  "Lin", "nemeth22", "s80_80_50")
SCALE = 0.01


def _traffic(names, precision, seed=0):
    """Deterministic (matrix, x) request pairs, one per suite name."""
    rng = np.random.default_rng(seed)
    pairs = []
    for name in names:
        coo = get_spec(name).generate(scale=SCALE, seed=0)
        pairs.append((coo, rng.standard_normal(coo.ncols)))
    return pairs


def _single_engine_ys(pairs, precision):
    """Reference: the same traffic through one ServeEngine."""
    engine = serve_session(precision=precision, size_scale=SCALE)
    rids = [engine.submit(coo, x, at=0.0) for coo, x in pairs]
    by_rid = {r.request_id: r for r in engine.run()}
    return [by_rid[rid].y for rid in rids]


class TestBitIdentity:
    @pytest.mark.parametrize("devices", [2, 4])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_cluster_equals_single_engine(self, devices, precision):
        """Cluster-served y is bit-for-bit the single-engine y for the
        full sweep population, on 2 and 4 devices, both precisions —
        split serving included (threshold 1 row splits everything the
        certifier accepts; declines fall back to whole-matrix home
        serving, which must be bit-identical too)."""
        pairs = _traffic(SWEEP_MATRICES, precision)
        expected = _single_engine_ys(pairs, precision)

        cluster = serve_session(cluster=devices, precision=precision,
                                size_scale=SCALE, split_threshold_rows=1)
        rids = [cluster.submit(coo, x, at=0.0) for coo, x in pairs]
        by_rid = {r.request_id: r for r in cluster.run()}
        for rid, ref in zip(rids, expected):
            got = by_rid[rid]
            assert got.served
            assert got.y.dtype == ref.dtype
            assert np.array_equal(got.y, ref)

    def test_split_requests_actually_split(self):
        cluster = serve_session(cluster=3, size_scale=SCALE,
                                split_threshold_rows=1)
        for coo, x in _traffic(("kim1", "wang3"), "double"):
            cluster.submit(coo, x, at=0.0)
        cluster.run()
        stats = cluster.stats()["cluster"]
        assert stats["split_dispatches"] >= 1
        assert stats["halo"]["total_bytes"] > 0


class TestCertificateGating:
    def test_uncertified_plan_never_activates(self, monkeypatch):
        """When every certification declines, no shard runner is built
        — requests fall back to whole-matrix serving on their home
        device and still serve correctly."""
        import repro.analyze.sharding as sharding
        from repro.analyze.sharding import ShardCertificate

        def declined(matrix, shard_plan, **kwargs):
            return ShardCertificate(ok=False,
                                    num_shards=len(shard_plan.shards))

        monkeypatch.setattr(sharding, "certify_shard_plan", declined)
        pairs = _traffic(("kim1",), "double")
        cluster = serve_session(cluster=2, size_scale=SCALE,
                                split_threshold_rows=1)
        rid = cluster.submit(*pairs[0], at=0.0)
        by_rid = {r.request_id: r for r in cluster.run()}
        stats = cluster.stats()["cluster"]
        assert stats["split_dispatches"] == 0
        assert stats["split_declines"] >= 1
        assert by_rid[rid].served
        ref = _single_engine_ys(pairs, "double")[0]
        assert np.array_equal(by_rid[rid].y, ref)

    def test_cert_store_shared_across_devices(self):
        """The certificate is proven once; every other device's
        activation is a counted cross-device reuse."""
        pairs = _traffic(("kim1",), "double")
        cluster = serve_session(cluster=3, size_scale=SCALE,
                                split_threshold_rows=1)
        for _ in range(4):
            cluster.submit(*pairs[0], at=0.0)
        cluster.run()
        store = cluster.stats()["cluster"]["cert_store"]
        assert store["certificates"] == 1
        assert store["cross_device_reuses"] >= 1


class TestHaloAccounting:
    def test_bytes_match_certificate_widths(self):
        """Shipped halo bytes are exactly the certificate's declared
        [halo_lo, halo_hi) widths minus the device-owned row block —
        per shard (obs events) and in total (stats)."""
        pairs = _traffic(("kim1",), "double")
        n_requests = 3
        cluster = serve_session(cluster=2, size_scale=SCALE,
                                split_threshold_rows=1)
        with repro.observe() as sess:
            for _ in range(n_requests):
                cluster.submit(*pairs[0], at=0.0)
            cluster.run()

        placements = cluster.placement_table()
        assert len(placements) == 1 and placements[0]["split"]
        cert = cluster._placements[placements[0]["pattern"]].cert
        per_shard = {spec.index: shard_halo_elements(spec) * 8
                     for spec in cert.shard_plan.shards if spec.num_rows}

        events = [s for s in sess.spans if s.name == "cluster.halo_exchange"]
        assert len(events) == n_requests * len(per_shard)
        for ev in events:
            assert ev.attrs["bytes"] == per_shard[ev.attrs["shard"]]

        halo = cluster.stats()["cluster"]["halo"]
        assert halo["total_bytes"] == n_requests * sum(per_shard.values())


class TestSubmitChecksOperand:
    def test_bad_request_raises_at_submit(self):
        """A NaN or wrong-length ``x`` raises at ``submit``, queues
        nothing, and the next ``run()`` serves every good request."""
        pairs = _traffic(("kim1", "wang3"), "double")
        cluster = serve_session(cluster=2, size_scale=SCALE)
        good = [cluster.submit(coo, x, at=0.0) for coo, x in pairs]
        coo, x = pairs[0]
        nan_x = x.copy()
        nan_x[3] = np.nan
        for bad in (nan_x, x[:-1]):
            with pytest.raises(InputValidationError):
                cluster.submit(coo, bad, at=0.0)
        results = cluster.run()
        assert sorted(r.request_id for r in results) == good
        assert all(r.served for r in results)
        assert cluster.run() == []
        # no id was spent on the refused requests
        assert cluster.submit(coo, x) == len(good)

    def test_each_request_is_checked_at_submit(self, monkeypatch):
        """The cluster checks ``x`` once per request, at its front
        door, over whole-matrix and shard dispatches alike."""
        import repro.cluster.engine as cluster_engine

        calls = []
        real = cluster_engine.check_operand

        def check(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)
        monkeypatch.setattr(cluster_engine, "check_operand", check)
        pairs = _traffic(("kim1", "wang3", "ecology2"), "double")
        cluster = serve_session(cluster=3, size_scale=SCALE,
                                split_threshold_rows=5000)
        for coo, x in pairs:
            cluster.submit(coo, x, at=0.0)
        assert all(r.served for r in cluster.run())
        engines = [d.engine for d in cluster.devices]
        assert sum(e.shard_launches for e in engines) > 0
        assert sum(e.spmv_launches + e.spmm_launches for e in engines) > 0
        assert calls == [coo.ncols for coo, _ in pairs]


class TestEngineProtocol:
    def test_both_engines_satisfy_protocol(self):
        assert isinstance(serve_session(), Engine)
        assert isinstance(serve_session(cluster=2), Engine)
        assert isinstance(serve_session(), ServeEngine)

    def test_facade_validation(self):
        with pytest.raises(ValueError):
            serve_session(cluster=0)
        with pytest.raises(ValueError):
            serve_session(split_threshold_rows=1)  # needs cluster=N
        with pytest.raises(ValueError):
            serve_session(cluster=2, cache=repro.PlanCache())
