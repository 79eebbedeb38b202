"""The four shard provers: certification, declines, conservation.

``certify_shard_plan`` must either *prove* a row-block plan (halo
coverage, write disjointness, trace conservation, deterministic
reduction order) or decline it with a finding naming the violated
prover — never pass silently-wrong plans.  These tests pin both sides,
plus the conservation arithmetic the certificate carries.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.analyze.report import CHECKS
from repro.analyze.sharding import (
    INVARIANT_COUNTERS,
    build_shard_subplan,
    certify_shard_plan,
    shard_segment_range,
)
from repro.codegen.plan import build_plan
from repro.core.crsd import CRSDMatrix
from repro.formats.coo import COOMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hyb import HYBMatrix
from repro.shard.plan import ShardPlanner
from tests.conftest import random_diagonal_matrix


@pytest.fixture
def coo(rng):
    return random_diagonal_matrix(rng, n=256, scatter=6)


@pytest.fixture
def crsd(coo):
    return CRSDMatrix.from_coo(coo, mrows=32)


class TestCertified:
    def test_random_matrix_certifies(self, crsd, coo):
        plan = ShardPlanner(crsd, coo=coo).plan(4)
        cert = certify_shard_plan(crsd, plan)
        assert cert.ok
        assert cert.reasons == ()
        assert cert.num_shards == 4
        assert len(cert.subplans) == 4
        assert len(cert.per_shard_traces) == 4
        assert cert.whole_trace is not None
        assert cert.halo_reread_transactions is not None

    def test_conservation_identity(self, crsd, coo):
        """sum(shards) == whole + scatter_repack + halo re-read, exact,
        auditable from the certificate's own fields."""
        plan = ShardPlanner(crsd, coo=coo).plan(4)
        cert = certify_shard_plan(crsd, plan)
        assert cert.ok
        whole, repack = cert.whole_trace, cert.scatter_repack
        for counter in INVARIANT_COUNTERS:
            total = sum(getattr(t, counter) for t in cert.per_shard_traces)
            assert total == getattr(whole, counter) \
                + repack.get(counter, 0), counter
        txn = sum(t.global_load_transactions for t in cert.per_shard_traces)
        assert txn == whole.global_load_transactions \
            + repack.get("global_load_transactions", 0) \
            + cert.halo_reread_transactions

    def test_single_shard_has_no_halo_reread(self, crsd, coo):
        plan = ShardPlanner(crsd, coo=coo).plan(1)
        cert = certify_shard_plan(crsd, plan)
        assert cert.ok
        assert cert.halo_reread_transactions == 0

    def test_empty_matrix_certifies(self):
        coo = COOMatrix.empty((64, 64))
        crsd = CRSDMatrix.from_coo(coo, mrows=16, wavefront_size=16)
        plan = ShardPlanner(crsd, coo=coo).plan(4)
        cert = certify_shard_plan(crsd, plan)
        assert cert.ok

    def test_scatter_only_matrix_certifies(self, rng):
        n = 40
        coo = COOMatrix(rng.integers(0, n, 12), rng.integers(0, n, 12),
                        rng.standard_normal(12), (n, n))
        crsd = CRSDMatrix.from_coo(coo, mrows=8, wavefront_size=8,
                                   idle_fill_max_rows=1)
        plan = ShardPlanner(crsd, coo=coo).plan(2)
        cert = certify_shard_plan(crsd, plan)
        assert cert.ok


class TestDeclines:
    """Every decline names the violated prover; the check slugs are
    registered in the analyzer's CHECKS vocabulary."""

    def test_prover_checks_are_registered(self):
        for check in ("shard-halo", "shard-disjoint", "shard-trace",
                      "shard-order"):
            assert check in CHECKS

    @pytest.mark.parametrize("make", [
        DIAMatrix.from_coo, ELLMatrix.from_coo, HYBMatrix.from_coo,
    ])
    def test_non_crsd_rung_declined_by_name(self, coo, make):
        matrix = make(coo)
        plan = ShardPlanner(matrix, coo=coo).plan(2)
        cert = certify_shard_plan(matrix, plan)
        assert not cert.ok
        assert any(f.check == "shard-halo" for f in cert.findings)
        assert any("no symbolic access model" in r for r in cert.reasons)
        assert cert.per_shard_traces == ()
        assert cert.whole_trace is None

    def test_segment_straddling_boundary_declined(self, crsd, coo):
        """Wavefront-aligned but segment-cutting boundaries survive
        planning and are caught by the disjointness prover."""
        plan = ShardPlanner(crsd, coo=coo, alignment=16).plan(
            2, boundaries=[112])
        cert = certify_shard_plan(crsd, plan)
        assert not cert.ok
        assert any(f.check == "shard-disjoint" for f in cert.findings)
        assert any("straddles the boundary" in r for r in cert.reasons)

    def test_plan_for_other_matrix_declined(self, crsd, coo, rng):
        other = CRSDMatrix.from_coo(
            random_diagonal_matrix(rng, n=128), mrows=32)
        plan = ShardPlanner(other).plan(2)
        cert = certify_shard_plan(crsd, plan)
        assert not cert.ok
        assert any(f.check == "shard-disjoint" for f in cert.findings)


class TestSegmentRange:
    def test_blocks_partition_the_segments(self):
        # region of 10 segments x 32 rows starting at row 64
        edges = [0, 96, 128, 224, 384]
        ranges = [shard_segment_range(64, 10, 32, lo, hi)
                  for lo, hi in zip(edges, edges[1:])]
        assert ranges[0] == (0, 1)  # segment starting at 64
        covered = []
        for lo, hi in ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(10))

    def test_empty_block(self):
        assert shard_segment_range(0, 4, 32, 64, 64) == (2, 2)

    def test_block_outside_region(self):
        assert shard_segment_range(0, 4, 32, 256, 512) == (4, 4)
        lo, hi = shard_segment_range(256, 4, 32, 0, 128)
        assert lo == hi


class TestSubplans:
    def test_subplans_cover_the_whole_launch(self, crsd, coo):
        whole = build_plan(crsd)
        planner = ShardPlanner(crsd, coo=coo)
        plan = planner.plan(4)
        subs = [build_shard_subplan(whole, s.row_start, s.row_end,
                                    s.scatter_start, s.scatter_end)
                for s in plan.shards]
        assert sum(sp.num_groups for sp in subs) == whole.num_groups
        assert sum(sp.scatter.num_rows for sp in subs) == \
            whole.scatter.num_rows
        for sp in subs:
            assert sp.nrows == whole.nrows and sp.ncols == whole.ncols
            assert sp.local_size == whole.local_size

    def test_subplan_keeps_absolute_rows(self, crsd, coo):
        whole = build_plan(crsd)
        plan = ShardPlanner(crsd, coo=coo).plan(2)
        spec = plan.shards[1]
        sub = build_shard_subplan(whole, spec.row_start, spec.row_end,
                                  spec.scatter_start, spec.scatter_end)
        assert all(r.start_row >= spec.row_start for r in sub.regions)


class TestSerialisation:
    def test_certified_to_dict_is_json_safe(self, crsd, coo):
        plan = ShardPlanner(crsd, coo=coo).plan(2)
        cert = certify_shard_plan(crsd, plan)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["ok"] is True
        assert payload["plan"]["num_shards"] == 2
        assert len(payload["per_shard_traces"]) == 2
        assert isinstance(payload["halo_reread_transactions"], int)

    def test_declined_to_dict_is_json_safe(self, coo):
        dia = DIAMatrix.from_coo(coo)
        plan = ShardPlanner(dia, coo=coo).plan(2)
        cert = certify_shard_plan(dia, plan)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["ok"] is False
        assert payload["reasons"]
        assert payload["findings"][0]["check"] == "shard-halo"


class TestLayering:
    def test_certification_does_not_load_the_engines(self, coo, crsd,
                                                     tmp_path):
        """The analyzer sits below the execution engines: certifying a
        shard plan (L2 replay included) must not import
        ``repro.gpu_kernels``.  The plan is built here and handed over
        as plain geometry, because importing ``repro.shard`` itself
        loads the sharded executor."""
        plan = ShardPlanner(crsd, coo=coo).plan(4)
        np.savez(tmp_path / "coo.npz", rows=coo.rows, cols=coo.cols,
                 vals=coo.vals, shape=np.array(coo.shape))
        (tmp_path / "plan.json").write_text(json.dumps(plan.to_dict()))
        code = f"""
import json, sys
from types import SimpleNamespace
import numpy as np
from repro.analyze.sharding import certify_shard_plan
from repro.core.crsd import CRSDMatrix
from repro.formats.coo import COOMatrix

arrays = np.load({str(tmp_path / "coo.npz")!r})
coo = COOMatrix(arrays["rows"], arrays["cols"], arrays["vals"],
                tuple(int(n) for n in arrays["shape"]))
plan = json.load(open({str(tmp_path / "plan.json")!r}))
plan["shards"] = [SimpleNamespace(**s) for s in plan["shards"]]
cert = certify_shard_plan(CRSDMatrix.from_coo(coo, mrows=32),
                          SimpleNamespace(**plan))
assert cert.ok and cert.whole_trace.l2_hits > 0, cert.reasons
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "repro.analyze.sharding" in loaded
        assert not [m for m in loaded if m.startswith("repro.gpu_kernels")]
