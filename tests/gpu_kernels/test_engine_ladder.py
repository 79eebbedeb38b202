"""The CRSD engine ladder, tested once as a table.

Every CRSD runner executes its plans through
:class:`~repro.gpu_kernels.crsd_runner.PlanExecutor`: a whole-matrix
runner (SpMV or SpMM) holds one, a sharded runner one per shard.  Each
behaviour of the fused → batched ladder is checked here for each
runner, on a suite matrix whose four shards all carry scatter rows:

- a clean prover decline leaves one ``fused.uncertified`` event per
  executor, labelled with ``shard`` only on shards;
- a crashed prover files one incident and the demotion is permanent;
- ``REPRO_FUSED_VERIFY=first`` verifies each executor exactly once,
  ``always`` on every run;
- a corrupted fused result is caught, only that executor is demoted,
  and the batched oracle's ``y`` is served;
- an untraced mismatch returns launch geometry only.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import repro.gpu_kernels.crsd_runner as runner_mod
from repro.analyze.sharding import certify_shard_plan
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.crsd_runner import (
    FUSED_RUNG,
    FUSED_VERIFY_ENV,
    CrsdSpMM,
    CrsdSpMV,
)
from repro.gpu_kernels.fused import FusedCertificate
from repro.matrices.suite23 import generate
from repro.obs.recorder import observe
from repro.ocl.trace import KernelTrace
from repro.resilience.faults import FaultInjector, FaultSpec, inject
from repro.shard.executor import ShardedSpMV
from repro.shard.plan import ShardPlanner

NUM_SHARDS = 4
NVEC = 2


@pytest.fixture(scope="module")
def split():
    """wang3 at 2% scale, certified for a 4-way split whose every shard
    has scatter rows (so each executor makes a dia and a scatter
    launch) and whose shards 1-3 address the full slab past its start."""
    coo = generate("wang3", scale=0.02, seed=0)
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    cert = certify_shard_plan(crsd,
                              ShardPlanner(crsd, coo=coo).plan(NUM_SHARDS))
    assert cert.ok, cert.reasons
    assert all(sp.scatter.num_rows for sp in cert.subplans)
    assert all(sp.regions[0].slab_base > 0 for sp in cert.subplans[1:])
    return crsd, cert


@dataclass
class Ladder:
    """One runner column of the table."""

    make: Callable
    x: np.ndarray
    sharded: bool

    def executors(self, runner):
        if self.sharded:
            return list(runner._executors.values())
        return [runner._executor]

    def labels(self):
        """The ``shard`` label each executor's events carry, in run
        order (``"whole"`` for none)."""
        return list(range(NUM_SHARDS)) if self.sharded else ["whole"]

    def prefix(self, label):
        """The incident message prefix of the executor with ``label``."""
        return f"shard {label} " if self.sharded else ""

    def reference(self, monkeypatch, trace=True):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        run = self.make().run(self.x, trace=trace)
        monkeypatch.delenv("REPRO_EXECUTOR")
        return run


@pytest.fixture(params=["spmv", "spmm", "sharded"])
def ladder(request, split, monkeypatch):
    crsd, cert = split
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv(FUSED_VERIFY_ENV, raising=False)
    rng = np.random.default_rng(7)
    if request.param == "spmv":
        return Ladder(lambda: CrsdSpMV(crsd),
                      rng.standard_normal(crsd.ncols), False)
    if request.param == "spmm":
        return Ladder(lambda: CrsdSpMM(crsd, nvec=NVEC),
                      rng.standard_normal((crsd.ncols, NVEC)), False)
    return Ladder(lambda: ShardedSpMV(crsd, cert),
                  rng.standard_normal(crsd.ncols), True)


def label(event):
    return event.attrs.get("shard", "whole")


def assert_identical(a, b):
    assert np.array_equal(a.y, b.y)
    assert dataclasses.asdict(a.trace) == dataclasses.asdict(b.trace)


def test_clean_decline_leaves_one_event_per_executor(ladder, monkeypatch):
    ref = ladder.reference(monkeypatch)
    declined = FusedCertificate(ok=False, reasons=("declined",))
    monkeypatch.setattr(runner_mod, "build_fused_state",
                        lambda *a, **kw: (None, declined))
    runner = ladder.make()
    with observe("declined") as sess:
        run = runner.run(ladder.x)
        runner.run(ladder.x)
    events = [s for s in sess.spans if s.name == "fused.uncertified"]
    assert [label(e) for e in events] == ladder.labels()
    assert all(e.attrs["kernel"] == runner.name for e in events)
    assert all(e.attrs["reasons"] == ["declined"] for e in events)
    assert not [s for s in sess.spans if s.name == "fused.demoted"]
    assert all(ex.fused_state is False for ex in ladder.executors(runner))
    assert run.resilience is None and runner.fused_incidents == []
    assert_identical(run, ref)


def test_prover_crash_files_one_incident_and_demotes_for_good(
        ladder, monkeypatch):
    ref = ladder.reference(monkeypatch)
    runner = ladder.make()
    spec = FaultSpec(site=f"phase:{runner.name}.fused_certify",
                     kind="launch", at_calls=(0,))
    with observe("crash") as sess, \
            inject(FaultInjector(seed=5, specs=[spec])) as inj:
        run = runner.run(ladder.x)
        assert [e.site for e in inj.events] == \
            [f"phase:{runner.name}.fused_certify"]
    # the first executor's certification crashed; any others run fused
    crashed = ladder.labels()[0]
    message = (ladder.prefix(crashed)
               + "fused certification raised; demoted to batched")
    (event,) = [s for s in sess.spans if s.name == "fused.demoted"]
    assert label(event) == crashed
    assert event.attrs["outcome"] == "fault"
    assert event.attrs["message"] == message
    report = run.resilience
    assert report is not None and runner.fused_incidents == [report]
    assert report.requested == FUSED_RUNG
    assert report.served_rung == runner.name
    assert report.attempts[0].rung == FUSED_RUNG
    assert report.attempts[0].outcome == "fault"
    assert report.attempts[0].message == message
    assert report.attempts[-1].outcome == "served"
    first, *rest = ladder.executors(runner)
    assert first.fused_state is False and all(e.fused_state for e in rest)
    assert_identical(run, ref)
    # the incident goes on one run only; the demotion stays
    again = runner.run(ladder.x)
    assert again.resilience is None and len(runner.fused_incidents) == 1
    assert first.fused_state is False
    assert_identical(again, ref)


@pytest.mark.parametrize("mode", ["first", "always"])
def test_verification_runs_the_batched_oracle(ladder, monkeypatch, mode):
    ref = ladder.reference(monkeypatch)
    monkeypatch.setenv(FUSED_VERIFY_ENV, mode)
    launches = []
    real = runner_mod.launch_batched

    def counting(*args, **kwargs):
        launches.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "launch_batched", counting)
    runner = ladder.make()
    executors = ladder.executors(runner)
    per_run = 2 * len(executors)  # one dia and one scatter launch each
    first = runner.run(ladder.x)
    assert len(launches) == per_run
    assert all(ex.verified and ex.fused_state for ex in executors)
    assert first.resilience is None and runner.fused_incidents == []
    assert_identical(first, ref)
    del launches[:]
    again = runner.run(ladder.x)
    assert len(launches) == (per_run if mode == "always" else 0)
    assert_identical(again, ref)


def test_corrupted_fused_result_demotes_only_that_executor(
        ladder, monkeypatch):
    ref = ladder.reference(monkeypatch)
    monkeypatch.setenv(FUSED_VERIFY_ENV, "always")
    target = 1 if ladder.sharded else 0
    # corrupts y after the target executor's fused launch
    spec = FaultSpec(site="launch:crsd_fused_kernel", kind="soft",
                     payload="nan", at_calls=(target,), max_fires=1)
    runner = ladder.make()
    with observe("verify") as sess, \
            inject(FaultInjector(seed=11, specs=[spec])) as inj:
        run = runner.run(ladder.x)
        assert any(e.kind == "soft" for e in inj.events)
    corrupted = ladder.labels()[target]
    message = (ladder.prefix(corrupted) + "fused y/trace diverged from "
               "the batched oracle; demoted to batched")
    (event,) = [s for s in sess.spans if s.name == "fused.demoted"]
    assert label(event) == corrupted
    assert event.attrs["outcome"] == "verify-failed"
    assert event.attrs["message"] == message
    # the oracle's rows are served
    assert not np.isnan(run.y).any()
    assert_identical(run, ref)
    report = run.resilience
    assert report is not None and runner.fused_incidents == [report]
    assert report.requested == FUSED_RUNG
    assert report.verified is True
    assert report.attempts[0].outcome == "verify-failed"
    assert report.attempts[0].message == message
    states = [ex.fused_state for ex in ladder.executors(runner)]
    assert states.pop(target) is False and all(states)
    again = runner.run(ladder.x)
    assert again.resilience is None
    assert_identical(again, ref)


def test_untraced_mismatch_returns_launch_geometry_only(ladder,
                                                        monkeypatch):
    ref = ladder.reference(monkeypatch, trace=False)
    monkeypatch.setenv(FUSED_VERIFY_ENV, "always")
    spec = FaultSpec(site="launch:crsd_fused_kernel", kind="soft",
                     payload="flip", at_calls=(0,), max_fires=1)
    runner = ladder.make()
    with inject(FaultInjector(seed=3, specs=[spec])):
        run = runner.run(ladder.x, trace=False)
    assert run.resilience is not None
    assert np.array_equal(run.y, ref.y)
    geometry = KernelTrace(work_groups=ref.trace.work_groups,
                           wavefronts=ref.trace.wavefronts)
    assert dataclasses.asdict(run.trace) == dataclasses.asdict(geometry)
