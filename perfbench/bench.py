"""One benchmark run: set-up, timed rounds, checks and metrics.

``--trace 0`` sets the workload up :data:`SETUP_REPS` times (the median
is ``setup_s``), then times rounds of the last set-up until ``seconds``
of round time have passed, and reports the end-to-end metrics
(``ops_per_s`` takes each separately timed part of a round, a sweep
cell or a block of serving requests, at its fastest over the rounds).

``--trace 1`` sets up once with the wrappers installed, times untraced
rounds for half of ``seconds``, then one round with the wrappers
installed, and reports the per-layer metrics of that round plus the
tracing overhead.

Every round is checked outside the timed phase: each ``y`` against the
COO reference, and the checksum, exact counters and simulated metrics
against the first timed round.  Checksums and counters are also kept in
``perfbench/out/reference.json`` per (workload, seed, configuration,
source tree), so a later run of the same code and seed that disagrees
fails.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ocl.device import TESLA_C2050

from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, RoundCheck, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: set-ups per ``--trace 0`` run, repeated further until they add up
#: to ``SETUP_MIN_S`` (a set-up that takes milliseconds is mostly host
#: noise); ``setup_s`` is their median
SETUP_REPS = 3
SETUP_MIN_S = 2.0

#: fewest timed rounds of a ``--trace 0`` run, so that every part of a
#: round gets several chances to run while the host is quiet
MIN_ROUNDS = 3

#: end-to-end metrics: name -> unit
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "sim_p50_us": "sim_us",
    "sim_tail_us": "sim_us",
    "sim_rps": "1/sim_s",
    "sim_crsd_gflops": "GFLOPS",
    "sim_crsd_speedup": "x",
}

#: extra per-layer metrics beyond calls / self_s / share / setup_s
LAYER_EXTRAS = {
    "serialize": {"calls_per_op": "count/op", "mb_hashed": "MB"},
    "cache": {"hit_rate": "fraction", "misses": "count",
              "evictions": "count", "pattern_reuses": "count",
              "build_s": "s"},
    "crsd": {"builds": "count"},
    "codegen": {"validate_s": "s"},
    "certify": {"cert_reuses": "count"},
    "kernel": {f"runs_{f}": "count" for f in
               ("crsd", "crsd_spmm", "crsd_sharded", "dia", "ell", "csr",
                "hyb")},
    "executor": {"launches": "count", "launches_pergroup": "count"},
    "trace": {"l2_accesses": "count", "dram_mb": "MB"},
    "costmodel": {},
    "batcher": {"launches": "count", "mean_batch": "count",
                "sim_queue_wait_us": "sim_us"},
    "cluster": {"split_dispatches": "count", "halo_mb": "MB",
                "value_fanouts": "count", "fingerprints_per_op": "count/op"},
    "report": {},
}

TRACING = {
    "ops_per_s_untraced": "1/s",
    "ops_per_s_traced": "1/s",
    "slowdown": "x",
    "outside_share": "fraction",
    "spans": "count",
    "unfired": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer, extras in LAYER_EXTRAS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.setup_s"] = "s"
        for name, unit in extras.items():
            units[f"{layer}.{name}"] = unit
    for name, unit in TRACING.items():
        units[f"tracing.{name}"] = unit
    return units


# ----------------------------------------------------------------------
# bypass predictions of the traced run
# ----------------------------------------------------------------------
_SERVE_FIRES = (
    "repro.core.serialize:fingerprints",
    "repro.serve.cache:PlanCache.entry",
    "repro.serve.cache:PlanCache.runner_for",
    "repro.core.crsd:CRSDMatrix.from_coo",
    "repro.core.analysis:analyze_structure",
    "repro.codegen.plan:build_plan",
    "repro.gpu_kernels.base:GPUSpMV.run",
    "repro.gpu_kernels.crsd_runner:CrsdSpMM.run",
    "repro.perf.costmodel:predict_gpu_time",
    "repro.serve.engine:ServeEngine.submit",
    "repro.serve.engine:ServeEngine.run",
    "repro.serve.engine:ServeEngine.stats",
    "perfbench.workloads:fold_checksum",
)
#: functions the default (batched) engine runs for CRSD; a change of
#: default may stop them, so a miss is reported, not failed
_BATCHED_CRSD = (
    "repro.codegen.python_codelet:generate_python_kernel",
    "repro.codegen.validator:validate_python_source",
    "repro.ocl.executor:launch_batched",
    "repro.ocl.executor:BatchCtx.finalize",
    "repro.ocl.memory:SegmentCache.access",
)

#: workload -> (must fire, should fire under the default engine,
#: layers that must see no call at all)
PREDICTIONS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...],
                             Tuple[str, ...]]] = {
    "serve-tenants": (_SERVE_FIRES, _BATCHED_CRSD, ("cluster",)),
    "cluster-split": (
        _SERVE_FIRES + (
            "repro.serve.cache:PlanCache.shard_runner_for",
            "repro.serve.cache:PlanCache.shard_certificate_for",
            "repro.analyze.sharding:certify_shard_plan",
            "repro.shard.executor:ShardedSpMV.run",
            "repro.cluster.engine:ClusterEngine.submit",
            "repro.cluster.engine:ClusterEngine.run",
            "repro.cluster.engine:ClusterEngine.stats",
            "repro.cluster.halo:HaloExchange.ship"),
        _BATCHED_CRSD + ("repro.gpu_kernels.fused:synthesize_trace",),
        ()),
    "suite-sweep": (
        ("repro.core.crsd:CRSDMatrix.from_coo",
         "repro.core.analysis:analyze_structure",
         "repro.codegen.plan:build_plan",
         "repro.gpu_kernels.base:GPUSpMV.run",
         "repro.ocl.executor:launch_batched",
         "repro.ocl.executor:launch",
         "repro.ocl.executor:BatchCtx.finalize",
         "repro.ocl.memory:SegmentCache.access",
         "repro.perf.costmodel:predict_gpu_time"),
        ("repro.codegen.python_codelet:generate_python_kernel",
         "repro.codegen.validator:validate_python_source"),
        ("serialize", "cache", "cluster")),
}


def check_predictions(workload: str, fn_calls: Dict[str, int],
                      layer_calls: Dict[str, int]
                      ) -> Tuple[List[str], List[str]]:
    """``(violations, misses)``: broken must-fire and must-be-zero
    predictions, and default-engine functions that did not fire."""
    must, should, zero = PREDICTIONS[workload]
    violations = [f"{t} never fired" for t in must if not fn_calls.get(t)]
    violations += [f"layer {layer} was called {layer_calls[layer]} times"
                   for layer in zero if layer_calls.get(layer)]
    misses = [f"{t} never fired" for t in should if not fn_calls.get(t)]
    return violations, misses


# ----------------------------------------------------------------------
# provenance and the cross-run reference
# ----------------------------------------------------------------------
def source_digest(root: Path = ROOT) -> str:
    """Hash of every file under ``src/`` (the code being measured)."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` in a
    checkout that is not a git repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> Dict[str, Any]:
    return {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def _jsonable(value):
    return json.loads(json.dumps(value, sort_keys=True))


def reference_check(key: str, record: Dict[str, Any],
                    path: Optional[Path] = None) -> List[str]:
    """Compare ``record`` with what earlier runs stored under ``key``,
    then store it; returns one message per field that differs."""
    path = path or OUT / "reference.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = {}
    old = data.get(key, {})
    record = _jsonable(record)
    errors = [f"{name} differs from an earlier run ({key})"
              for name, value in record.items()
              if name in old and old[name] != value]
    data[key] = {**old, **record}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, sort_keys=True, indent=1))
    tmp.replace(path)
    return errors


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """The timed rounds of one phase."""

    walls: List[float] = field(default_factory=list)
    #: per round, host seconds of each separately timed part
    part_walls: List[List[float]] = field(default_factory=list)
    checks: List[RoundCheck] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(c.ops for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def best_round_s(self) -> float:
        """Host seconds of a round with every part at its fastest.

        The host's other tenants only ever add time, so the fastest
        time of a part over the rounds is the steadiest estimate of its
        own cost."""
        return sum(min(times) for times in zip(*self.part_walls))

    @property
    def ops_per_s(self) -> float:
        """Verified operations of a round per :attr:`best_round_s`."""
        return min(c.ops - c.failed for c in self.checks) / self.best_round_s


def timed_round(wl: Workload, phase: Phase,
                tracer: Optional[Tracer] = None) -> None:
    """One round: timed (and traced, given a tracer), then checked.  The
    collector runs before the round and not during it."""
    gc.collect()
    gc.disable()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        out = wl.run_round()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
        gc.enable()
    phase.walls.append(wall)
    phase.part_walls.append(out.walls)
    phase.checks.append(wl.check_round(out))


def timed_phase(wl: Workload, seconds: float,
                min_rounds: int = MIN_ROUNDS) -> Phase:
    """Rounds until their summed wall time reaches ``seconds`` and at
    least ``min_rounds`` have run."""
    phase = Phase()
    while len(phase.walls) < min_rounds or sum(phase.walls) < seconds:
        timed_round(wl, phase)
    return phase


def _sim_equal(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    # serving rounds run at different simulated offsets, which moves
    # the last bits of simulated times; everything else is exact
    return a.keys() == b.keys() and all(
        np.isclose(a[k], b[k], rtol=1e-9, atol=0) for k in a)


def reconcile(checks: List[RoundCheck],
              warm: Optional[RoundCheck]) -> List[str]:
    """Every timed round must repeat the first one exactly, and the
    set-up round (if any) must serve the same bits."""
    errors = []
    first = checks[0]
    if warm is not None and warm.checksum != first.checksum:
        errors.append(f"set-up round checksum {warm.checksum} != "
                      f"timed round checksum {first.checksum}")
    for i, c in enumerate(checks[1:], 1):
        if c.checksum != first.checksum:
            errors.append(f"round {i} checksum {c.checksum} != "
                          f"{first.checksum}")
        for key in sorted(set(c.counts) | set(first.counts)):
            if c.counts.get(key) != first.counts.get(key):
                errors.append(f"round {i} count {key}: {c.counts.get(key)}"
                              f" != {first.counts.get(key)}")
        if not _sim_equal(c.sim, first.sim):
            errors.append(f"round {i} simulated metrics differ")
    for name, c in [("set-up", warm)] + list(enumerate(checks)):
        errors += [f"round {name}: {e}" for e in (c.errors[:5] if c else [])]
    return errors


def config_digest(wl: Workload) -> str:
    return hashlib.sha256(repr(wl.config).encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    details: Dict[str, Any]
    errors: List[str]

    def line(self) -> str:
        """The result as the one-line JSON object printed last."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()},
        })


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cross_run(wl: Workload, first: RoundCheck, src: str,
               extra: Dict[str, Any]) -> List[str]:
    key = f"{wl.name}|seed={wl.seed}|config={config_digest(wl)}|src={src}"
    record = {"checksum": first.checksum, "counts": first.counts,
              "sim": first.sim, **extra}
    errors = reference_check(key, record)
    if wl.name in ("serve-tenants", "cluster-split"):
        # both serve the same generated trace: the same y bits
        errors += reference_check(
            f"served-trace|seed={wl.seed}|config={config_digest(wl)}"
            f"|src={src}", {"checksum": first.checksum})
    return errors


def run_untraced(name: str, seed: int, seconds: float, config=None,
                 setup_reps: int = SETUP_REPS) -> Result:
    cls = WORKLOADS[name]
    setups: List[float] = []
    wl = None
    while len(setups) < setup_reps or sum(setups) < SETUP_MIN_S:
        wl = None  # free the previous set-up before building the next
        gc.collect()
        wl = cls(seed, config)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    phase = timed_phase(wl, seconds)
    prov = provenance(seed)
    errors = reconcile(phase.checks, wl.warm)
    errors += _cross_run(wl, phase.checks[0], prov["source_digest"], {})
    first = phase.checks[0]
    attempted = phase.ops
    failed = phase.failed + (attempted - phase.failed if errors else 0)
    sim = first.sim
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
        **{k: sim[k] for k in END_TO_END if k.startswith("sim_")},
    }
    details = {
        "provenance": prov, "workload": name, "trace": 0,
        "setup_walls_s": setups, "round_walls_s": phase.walls,
        "best_round_s": phase.best_round_s,
        "ops_per_round": first.ops, "checksum": first.checksum,
        "sim": sim, "counts": first.counts,
    }
    return Result(correct=not errors and failed == 0, attempted=attempted,
                  failed=failed,
                  metrics={k: (float(v), END_TO_END[k])
                           for k, v in metrics.items()},
                  details=details, errors=errors)


def run_traced(name: str, seed: int, seconds: float, config=None,
               dump: bool = True) -> Result:
    cls = WORKLOADS[name]
    tracer = Tracer()
    wl = cls(seed, config)
    with tracer.installed():
        t0 = time.perf_counter()
        wl.setup()
        setup_wall = time.perf_counter() - t0
    setup = tracer.summary(setup_wall)
    setup_fn_calls = setup["fn_calls"]
    tracer.reset()

    untraced = timed_phase(wl, seconds / 2.0, min_rounds=1)
    traced = Phase()
    timed_round(wl, traced, tracer)
    wall = traced.walls[0]
    summ = tracer.summary(wall)

    prov = provenance(seed)
    check = traced.checks[0]
    errors = reconcile(untraced.checks + traced.checks, wl.warm)
    # the wrapper must see exactly the launches the engine accounted
    if summ["kernel_trace"] != check.counts["kernel_trace"]:
        errors.append("kernel-run wrapper counters disagree with the "
                      "program's own KernelTrace totals")
    fn_calls = {t: setup_fn_calls.get(t, 0) + summ["fn_calls"].get(t, 0)
                for t in tracer.targets}
    layer_calls = {layer: v["calls"] + setup["layers"][layer]["calls"]
                   for layer, v in summ["layers"].items()}
    violations, misses = check_predictions(name, fn_calls, layer_calls)
    errors += [f"prediction: {v}" for v in violations]
    traced_counts = {"fn_calls": summ["fn_calls"],
                     "runs_by_format": summ["runs_by_format"]}
    errors += _cross_run(wl, untraced.checks[0], prov["source_digest"],
                         {"traced_counts": traced_counts})

    metrics = layer_metrics(summ, setup, check)
    metrics["tracing.ops_per_s_untraced"] = untraced.ops_per_s
    metrics["tracing.ops_per_s_traced"] = traced.ops_per_s
    metrics["tracing.slowdown"] = untraced.ops_per_s / traced.ops_per_s
    metrics["tracing.outside_share"] = summ["outside_share"]
    metrics["tracing.spans"] = summ["spans"]
    metrics["tracing.unfired"] = len(misses)
    units = per_layer_units()
    attempted = untraced.ops + traced.ops
    failed = untraced.failed + traced.failed
    if errors:
        failed = attempted
    if dump:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json.gz", origin,
                    workload=name, seed=seed, phase="traced round")
    details = {
        "provenance": prov, "workload": name, "trace": 1,
        "setup_wall_s": setup_wall, "traced_round_wall_s": wall,
        "untraced_round_walls_s": untraced.walls,
        "install_sites": tracer.sites, "default_engine_misses": misses,
        "fn_calls": summ["fn_calls"], "fn_self_s": summ["fn_self_s"],
        "setup_fn_calls": setup_fn_calls, "counts": check.counts,
    }
    return Result(correct=not errors, attempted=attempted, failed=failed,
                  metrics={k: (float(metrics[k]), units[k]) for k in units},
                  details=details, errors=errors)


def layer_metrics(summ: Dict[str, Any], setup: Dict[str, Any],
                  check: RoundCheck) -> Dict[str, float]:
    """The ``<layer>.<metric>`` values of one traced round."""
    fn_calls = summ["fn_calls"]
    m: Dict[str, float] = {}
    for layer, v in summ["layers"].items():
        m[f"{layer}.calls"] = v["calls"]
        m[f"{layer}.self_s"] = v["self_s"]
        m[f"{layer}.share"] = v["share"]
        m[f"{layer}.setup_s"] = setup["layers"][layer]["self_s"]
    ops = check.ops
    counts = check.counts
    cache = counts.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    fp_calls = fn_calls["repro.core.serialize:fingerprints"]
    m["serialize.calls_per_op"] = fp_calls / ops
    m["serialize.mb_hashed"] = summ["mb_hashed"]
    m["cache.hit_rate"] = cache.get("hits", 0) / lookups if lookups else 0.0
    for k in ("misses", "evictions", "pattern_reuses"):
        m[f"cache.{k}"] = cache.get(k, 0)
    m["cache.build_s"] = summ["cache_build_s"]
    m["crsd.builds"] = fn_calls["repro.core.crsd:CRSDMatrix.from_coo"]
    m["codegen.validate_s"] = summ["fn_self_s"][
        "repro.codegen.validator:validate_python_source"]
    m["certify.cert_reuses"] = cache.get("cert_reuses", 0)
    runs = summ["runs_by_format"]
    for f in ("crsd", "crsd_spmm", "crsd_sharded", "dia", "ell", "csr",
              "hyb"):
        m[f"kernel.runs_{f}"] = runs.get(f, 0)
    batched = fn_calls["repro.ocl.executor:launch_batched"]
    pergroup = fn_calls["repro.ocl.executor:launch"]
    m["executor.launches"] = batched + pergroup
    m["executor.launches_pergroup"] = pergroup
    kt = summ["kernel_trace"]
    m["trace.l2_accesses"] = (kt.get("l2_hits", 0)
                              + kt.get("global_load_transactions", 0))
    m["trace.dram_mb"] = (kt.get("global_load_transactions", 0)
                          + kt.get("global_store_transactions", 0)) \
        * TESLA_C2050.transaction_bytes / 1e6
    hist = counts.get("batch_sizes", {})
    launches = counts.get("launches", {})
    m["batcher.launches"] = sum(launches.values())
    m["batcher.mean_batch"] = (
        sum(int(k) * v for k, v in hist.items()) / sum(hist.values())
        if hist else 0.0)
    m["batcher.sim_queue_wait_us"] = check.sim.get("sim_queue_wait_us", 0.0)
    m["cluster.split_dispatches"] = counts.get("split_dispatches", 0)
    m["cluster.halo_mb"] = counts.get("halo_bytes", 0) / 1e6
    m["cluster.value_fanouts"] = counts.get("value_fanouts", 0)
    m["cluster.fingerprints_per_op"] = (
        fp_calls / ops if summ["layers"]["cluster"]["calls"] else 0.0)
    return m


def write_result(result: Result, name: str, seed: int, trace: int) -> Path:
    """Keep the full result (metrics, provenance, details) in ``out/``."""
    path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.metrics.items()},
        "errors": result.errors, **result.details,
    }, indent=1, sort_keys=True, default=str))
    return path


def describe(result: Result) -> List[str]:
    """Human-readable lines printed before the JSON result."""
    d = result.details
    prov = d["provenance"]
    lines = [f"# {d['workload']} seed={prov['seed']} trace={d['trace']} "
             f"commit={prov['commit'][:12]} src={prov['source_digest']} "
             f"nproc={prov['nproc']} python={prov['python']} "
             f"numpy={prov['numpy']} blas_threads={prov['blas_threads']}"]
    sim = d.get("sim")
    if sim:
        lines.append(f"# sim_tail_us is p{sim['sim_tail_pct']} of "
                     f"{sim['sim_samples']} samples "
                     f"({sim['sim_tail_beyond']} beyond it); "
                     f"checksum {d['checksum']}")
    for name, (value, unit) in result.metrics.items():
        lines.append(f"{name:32s} {value:>16.6g} {unit}")
    lines += [f"# ERROR {e}" for e in result.errors[:20]]
    return lines
