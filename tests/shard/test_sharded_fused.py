"""The fused engine on certified shards.

Shard sub-plans keep absolute slab addressing and run against the full
matrix's ``dia_val`` buffer, so fused certification must bound their
reads by that buffer, not by the sub-plan's own slab sum.  Every shard
of a split then runs fused, bit-identical to the batched engine; a
shard the provers decline leaves a ``fused.uncertified`` event, and a
crashed shard certification is an incident, never a silent decline.
The same ladder behaviours are tabled over every CRSD runner, whole
and sharded, in ``tests/gpu_kernels/test_engine_ladder.py``.
"""

import dataclasses

import numpy as np
import pytest

import repro.gpu_kernels.crsd_runner as runner_mod
from repro.analyze.bounds import check_bounds
from repro.analyze.model import build_model
from repro.analyze.report import AnalysisReport
from repro.analyze.sharding import certify_shard_plan
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.crsd_runner import FUSED_RUNG
from repro.gpu_kernels.fused import FusedCertificate
from repro.obs.recorder import observe
from repro.resilience.faults import FaultInjector, FaultSpec, inject
from repro.shard.executor import ShardedSpMV
from repro.shard.plan import ShardPlanner
from tests.conftest import random_diagonal_matrix

N = 512


@pytest.fixture
def split():
    """A 4-way certified split whose shards 1-3 start past slab 0."""
    rng = np.random.default_rng(0)
    coo = random_diagonal_matrix(rng, n=N, density=0.7, scatter=4)
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    cert = certify_shard_plan(crsd, ShardPlanner(crsd, coo=coo).plan(4))
    assert cert.ok, cert.reasons
    assert all(sp.regions[0].slab_base > 0 for sp in cert.subplans[1:])
    return crsd, cert


def batched_run(crsd, cert, x, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "batched")
    run = ShardedSpMV(crsd, cert).run(x)
    monkeypatch.delenv("REPRO_EXECUTOR")
    return run


def assert_identical(a, b):
    assert np.array_equal(a.y, b.y)
    assert dataclasses.asdict(a.trace) == dataclasses.asdict(b.trace)


class TestEveryShardFused:
    def test_all_shards_certify_and_match_batched(self, split,
                                                  monkeypatch):
        crsd, cert = split
        x = np.random.default_rng(1).standard_normal(N)
        ref = batched_run(crsd, cert, x, monkeypatch)
        runner = ShardedSpMV(crsd, cert)
        with observe("sharded") as sess:
            run = runner.run(x)
        assert all(e.fused_state for e in runner._executors.values())
        assert [k.attrs["executor"] for k in sess.by_category("kernel")] \
            == ["fused"] * 4
        assert not [s for s in sess.spans if s.name.startswith("fused.")]
        assert_identical(run, ref)
        assert run.resilience is None

    def test_bounds_still_flag_reads_past_the_bound_buffer(self, split):
        """Binding the full buffer does not let a sub-plan whose slab
        reads run past its end certify."""
        crsd, cert = split
        sub = cert.subplans[-1]
        size = crsd.dia_val.size

        def bounds_errors(plan):
            report = AnalysisReport(plan=plan)
            check_bounds(build_model(plan, dia_val_size=size), report)
            return [f for f in report.violations if f.check == "bounds"]

        assert not bounds_errors(sub)
        last = sub.regions[-1]
        past_end = dataclasses.replace(
            sub, regions=sub.regions[:-1] + (dataclasses.replace(
                last, slab_base=last.slab_base + 1),))
        assert bounds_errors(past_end)


class TestShardFallbackEvents:
    def test_clean_decline_records_event_per_shard(self, split,
                                                   monkeypatch):
        crsd, cert = split
        x = np.random.default_rng(2).standard_normal(N)
        ref = batched_run(crsd, cert, x, monkeypatch)
        declined = FusedCertificate(ok=False, reasons=("declined",))
        monkeypatch.setattr(runner_mod, "build_fused_state",
                            lambda *a, **kw: (None, declined))
        runner = ShardedSpMV(crsd, cert)
        with observe("declined") as sess:
            run = runner.run(x)
        events = [s for s in sess.spans if s.name == "fused.uncertified"]
        assert [e.attrs["shard"] for e in events] == [0, 1, 2, 3]
        assert all(e.attrs["reasons"] == ["declined"] for e in events)
        assert run.resilience is None and runner.fused_incidents == []
        assert_identical(run, ref)

    def test_crash_demotes_shard_and_files_incident(self, split,
                                                    monkeypatch):
        crsd, cert = split
        x = np.random.default_rng(3).standard_normal(N)
        ref = batched_run(crsd, cert, x, monkeypatch)
        spec = FaultSpec(site="phase:crsd_sharded.fused_certify",
                         kind="launch", at_calls=(0,))
        runner = ShardedSpMV(crsd, cert)
        with observe("crash") as sess, \
                inject(FaultInjector(seed=5, specs=[spec])):
            run = runner.run(x)
        (event,) = [s for s in sess.spans if s.name == "fused.demoted"]
        assert event.attrs["outcome"] == "fault"
        assert event.attrs["shard"] == 0
        report = run.resilience
        assert report is not None and runner.fused_incidents == [report]
        assert report.requested == FUSED_RUNG
        assert report.attempts[0].outcome == "fault"
        assert report.attempts[-1].outcome == "served"
        # only the crashed shard falls back; the others run fused
        states = [e.fused_state for e in runner._executors.values()]
        assert states[0] is False and all(states[1:])
        assert_identical(run, ref)
        # the incident goes on one run only; the shard stays demoted
        again = runner.run(x)
        assert again.resilience is None
        assert runner._executors[0].fused_state is False
        assert_identical(again, ref)


class TestShardVerification:
    """``REPRO_FUSED_VERIFY`` checks each shard against its own
    batched launches and demotes only a shard that disagrees."""

    def test_clean_split_passes_and_first_verifies_once(self, split,
                                                         monkeypatch):
        crsd, cert = split
        x = np.random.default_rng(4).standard_normal(N)
        ref = batched_run(crsd, cert, x, monkeypatch)
        monkeypatch.setenv("REPRO_FUSED_VERIFY", "first")
        launches = []
        real = runner_mod.launch_batched

        def counting(*args, **kwargs):
            launches.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "launch_batched", counting)
        runner = ShardedSpMV(crsd, cert)
        first = runner.run(x)
        assert len(launches) >= 4
        assert all(e.verified and e.fused_state
                   for e in runner._executors.values())
        assert first.resilience is None and runner.fused_incidents == []
        assert_identical(first, ref)
        del launches[:]
        again = runner.run(x)
        assert launches == []
        assert_identical(again, ref)

    def test_corrupted_shard_is_caught_and_demoted(self, split,
                                                   monkeypatch):
        crsd, cert = split
        x = np.random.default_rng(5).standard_normal(N)
        ref = batched_run(crsd, cert, x, monkeypatch)
        monkeypatch.setenv("REPRO_FUSED_VERIFY", "always")
        # corrupts y after the second fused launch (shard 1)
        spec = FaultSpec(site="launch:crsd_fused_kernel", kind="soft",
                         payload="nan", at_calls=(1,), max_fires=1)
        runner = ShardedSpMV(crsd, cert)
        with observe("verify") as sess, \
                inject(FaultInjector(seed=11, specs=[spec])) as inj:
            run = runner.run(x)
            assert any(e.kind == "soft" for e in inj.events)
        (event,) = [s for s in sess.spans if s.name == "fused.demoted"]
        assert event.attrs["outcome"] == "verify-failed"
        assert event.attrs["shard"] == 1
        assert not np.isnan(run.y).any()
        assert_identical(run, ref)
        report = run.resilience
        assert report is not None and runner.fused_incidents == [report]
        assert report.attempts[0].outcome == "verify-failed"
        states = [e.fused_state for e in runner._executors.values()]
        assert states.pop(1) is False and all(states)
        again = runner.run(x)
        assert again.resilience is None
        assert_identical(again, ref)

    def test_untraced_mismatch_returns_launch_geometry(self, split,
                                                       monkeypatch):
        crsd, cert = split
        x = np.random.default_rng(6).standard_normal(N)
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        ref = ShardedSpMV(crsd, cert).run(x, trace=False)
        monkeypatch.delenv("REPRO_EXECUTOR")
        monkeypatch.setenv("REPRO_FUSED_VERIFY", "always")
        spec = FaultSpec(site="launch:crsd_fused_kernel", kind="soft",
                         payload="flip", at_calls=(0,), max_fires=1)
        runner = ShardedSpMV(crsd, cert)
        with inject(FaultInjector(seed=3, specs=[spec])):
            run = runner.run(x, trace=False)
        assert run.resilience is not None
        assert np.array_equal(run.y, ref.y)
        assert (run.trace.work_groups, run.trace.wavefronts) == \
            (ref.trace.work_groups, ref.trace.wavefronts)
