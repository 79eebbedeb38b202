"""The three benchmark workloads: generated inputs, rounds and checks.

A workload is driven in *rounds*.  One round replays the same fixed,
seed-generated work: the same request trace for the two serving
workloads, the same (matrix, format) cells for the sweep.  Set-up
generates the inputs; the serving workloads also build the engine and
run one untimed round, so every timed round starts from the same warm
state.  Each round therefore yields the same ``y`` checksum and the same
exact counters, and the benchmark checks that it does.

The timed part of a round is :meth:`Workload.run_round`.  Verification
against the COO reference, counter bookkeeping and the simulated-time
metrics happen in :meth:`Workload.check_round`, outside the timed phase.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.runner import GPU_FORMATS, effective_scale, scaled_device
from repro.cluster.engine import ClusterEngine
from repro.core.crsd import CRSDMatrix, compatible_wavefront
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hyb import HYBMatrix
from repro.gpu_kernels import CrsdSpMV, CsrVectorSpMV, DiaSpMV, EllSpMV, HybSpMV
from repro.matrices.suite23 import SUITE
from repro.ocl.device import TESLA_C2050
from repro.perf.costmodel import predict_gpu_time
from repro.serve.engine import ServeEngine

#: relative tolerance of a double-precision result against the COO
#: reference: max |y - ref| / max(1, max |ref|), as in repro.bench.runner
TOLERANCE = 1e-8

#: simulated seconds between the last completion of a round and the
#: first arrival of the next, so rounds never share a queue
ROUND_GAP_S = 1.0

#: fewest samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

#: requests per block of a serving round: the engine gets a block's
#: requests and runs up to the last one's arrival, as an online server
#: would, and each block is timed on its own
BLOCK = 16

_SPECS = {s.name: s for s in SUITE}


def fold_checksum(ys: Sequence[Optional[np.ndarray]]) -> str:
    """Fold ``sha256(y)`` of every result, in order, into 16 hex digits
    (a missing result folds as an empty digest)."""
    fold = hashlib.sha256()
    for y in ys:
        if y is not None:
            fold.update(hashlib.sha256(
                np.ascontiguousarray(y).tobytes()).digest())
    return fold.hexdigest()[:16]


def rel_error(y: np.ndarray, ref: np.ndarray) -> float:
    """Max absolute error scaled by ``max(1, max |ref|)``."""
    return float(np.abs(y - ref).max()) / max(1.0, float(np.abs(ref).max()))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = min(n, max(1, int(math.ceil(p / 100.0 * n))))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile leaving at least
    :data:`TAIL_BEYOND` of ``n`` samples beyond it (capped at 99)."""
    p = min(99, int(100 * (n - TAIL_BEYOND) // n)) if n > TAIL_BEYOND else 50
    while p > 50 and n - math.ceil(p / 100.0 * n) < TAIL_BEYOND:
        p -= 1
    return p


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, Any]:
    """``sim_p50_us``, ``sim_tail_us`` and the tail's percentile and
    sample count, from simulated per-operation seconds."""
    lat = sorted(latencies_s)
    p = tail_percentile(len(lat))
    rank = min(len(lat), max(1, int(math.ceil(p / 100.0 * len(lat)))))
    return {
        "sim_p50_us": percentile(lat, 50) * 1e6,
        "sim_tail_us": percentile(lat, p) * 1e6,
        "sim_tail_pct": p,
        "sim_samples": len(lat),
        "sim_tail_beyond": len(lat) - rank,
    }


@dataclass
class RoundOutput:
    """What the timed part of one round hands to the check."""

    ops: int
    checksum: str
    payload: Any
    #: host seconds of each separately timed part of the round, in the
    #: same order every round
    walls: List[float]


@dataclass
class RoundCheck:
    """The untimed verdict on one round."""

    ops: int
    failed: int
    checksum: str
    #: exact integer counters that must repeat in every round
    counts: Dict[str, Any]
    #: simulated-time metrics of the round
    sim: Dict[str, Any]
    errors: List[str] = field(default_factory=list)


class Workload:
    """Base class: ``setup`` once, then ``run_round``/``check_round``."""

    name = "abstract"

    def __init__(self, seed: int, config=None):
        self.seed = int(seed)
        self.config = config if config is not None else self.default_config()
        self.warm: Optional[RoundCheck] = None

    @staticmethod
    def default_config():
        raise NotImplementedError

    def setup(self) -> None:
        """Generate inputs, build the engine, run one untimed round."""
        self.generate()
        self.build()
        self.warm = self.check_round(self.run_round())

    def generate(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def run_round(self) -> RoundOutput:
        raise NotImplementedError

    def check_round(self, out: RoundOutput) -> RoundCheck:
        raise NotImplementedError


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeConfig:
    """Population, traffic and cluster shape of the serving workloads."""

    #: the loadgen default suite subset, one matrix per family
    matrices: Sequence[str] = ("crystk03", "s3dkt3m2", "ecology2", "wang3",
                               "kim1", "Lin", "nemeth22", "s80_80_50")
    #: value-variant tenants per matrix (same pattern, new values)
    tenants: int = 8
    scale: float = 0.05
    #: requests per distinct matrix in one round
    copies: int = 2
    #: open-loop Poisson arrival rate, requests per simulated second:
    #: copies arriving within the batcher's delay window form SpMM
    #: batches, admission rejects nothing, and the device never
    #: saturates, so latency does not hinge on one transient backlog
    rate_rps: float = 4e4
    devices: int = 4
    replicas: int = 2
    #: rows at or above which the cluster splits a matrix
    split_threshold_rows: int = 20000
    #: per-device plan-cache entries in the cluster
    cluster_cache: int = 64


def tenant_population(config: ServeConfig, seed: int) -> List[COOMatrix]:
    """Every suite matrix of ``config`` followed by its value variants.

    Tenant 0 is the suite matrix; tenant ``t`` keeps its pattern and
    rescales its values by factors in [0.5, 1.5] drawn from
    ``default_rng([seed, spec.number, t])`` (the loadgen recipe).
    """
    population = []
    for name in config.matrices:
        spec = _SPECS[name]
        base = spec.generate(scale=config.scale, seed=seed)
        population.append(base)
        for t in range(1, config.tenants):
            rng = np.random.default_rng([seed, spec.number, t])
            factors = rng.uniform(0.5, 1.5, size=base.vals.size)
            population.append(COOMatrix(base.rows, base.cols,
                                        base.vals * factors,
                                        (base.nrows, base.ncols)))
    return population


@dataclass
class RequestTrace:
    """One round of requests: matrix index, arrival offset and x."""

    picks: np.ndarray
    arrivals: np.ndarray
    xs: List[np.ndarray]


def request_trace(config: ServeConfig, seed: int,
                  population: Sequence[COOMatrix]) -> RequestTrace:
    """``copies`` requests per matrix as an open-loop Poisson stream.

    Both draws are stratified, so every seed offers the same load:

    - order: the round is a sequence of blocks, each holding one
      request of every pattern in seeded random order (which tenant of
      a pattern comes next is seeded too);
    - arrivals: the exponential interarrival gaps at ``rate_rps`` take
      one value from each of ``n`` equal-probability strata, in seeded
      random order.
    """
    rng = np.random.default_rng(seed)
    per_pattern = config.tenants * config.copies
    patterns = len(population) // config.tenants
    sequences = [rng.permutation(np.repeat(
        np.arange(p * config.tenants, (p + 1) * config.tenants),
        config.copies)) for p in range(patterns)]
    picks = np.concatenate([
        rng.permutation([seq[b] for seq in sequences])
        for b in range(per_pattern)])
    n = picks.size
    gaps = -np.log1p(-(np.arange(n) + rng.random(n)) / n) / config.rate_rps
    arrivals = np.cumsum(rng.permutation(gaps))
    xs = [rng.standard_normal(population[j].ncols) for j in picks]
    return RequestTrace(picks=picks, arrivals=arrivals, xs=xs)


def _device_engines(engine) -> List[ServeEngine]:
    if isinstance(engine, ClusterEngine):
        return [d.engine for d in engine.devices]
    return [engine]


class ServingWorkload(Workload):
    """Replays one request trace per round through an ``Engine``."""

    @staticmethod
    def default_config() -> ServeConfig:
        return ServeConfig()

    def generate(self) -> None:
        self.population = tenant_population(self.config, self.seed)
        self.trace = request_trace(self.config, self.seed, self.population)
        self.refs = [self.population[j].matvec(x)
                     for j, x in zip(self.trace.picks, self.trace.xs)]

    def build(self) -> None:
        self.engine = self.make_engine()
        self._base = 0.0
        self._snapshot = self._counters()

    def make_engine(self):
        raise NotImplementedError

    # -- timed ----------------------------------------------------------
    def run_round(self) -> RoundOutput:
        engine, tr, base = self.engine, self.trace, self._base
        ids, results, walls = [], [], []
        for start in range(0, tr.picks.size, BLOCK):
            t0 = time.perf_counter()
            block = range(start, min(start + BLOCK, tr.picks.size))
            ids += [engine.submit(self.population[tr.picks[k]], tr.xs[k],
                                  at=base + float(tr.arrivals[k]))
                    for k in block]
            results += engine.run(until=base + float(tr.arrivals[block[-1]]))
            walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        results += engine.run()
        stats = engine.stats()
        by_id = {r.request_id: r for r in results}
        ys = [by_id[i].y if i in by_id and by_id[i].served else None
              for i in ids]
        checksum = fold_checksum(ys)
        walls.append(time.perf_counter() - t0)
        self._base = stats["clock_s"] + ROUND_GAP_S
        return RoundOutput(ops=len(ids), checksum=checksum,
                           payload=(ids, by_id, ys), walls=walls)

    # -- untimed --------------------------------------------------------
    def _counters(self) -> Dict[str, Any]:
        """Cumulative exact counters of the engine right now."""
        stats = self.engine.stats()
        engines = _device_engines(self.engine)
        totals: Dict[str, int] = {}
        for e in engines:
            for k, v in e.counter_totals.items():
                totals[k] = totals.get(k, 0) + v
        batching = stats["batching"]
        cluster = stats.get("cluster") or {}
        out = {
            "cache": {k: stats["cache"][k] for k in
                      ("hits", "misses", "evictions", "pattern_reuses",
                       "cert_reuses")},
            "admission": {k: stats["admission"][k] for k in
                          ("rejected", "shed", "expired")},
            "launches": {k: batching[k] for k in
                         ("spmm_launches", "spmv_launches",
                          "shard_launches")},
            "batch_sizes": dict(batching["histogram"]),
            "kernel_trace": totals,
            "split_dispatches": cluster.get("split_dispatches", 0),
            "halo_bytes": (cluster.get("halo") or {}).get("total_bytes", 0),
            "halo_transfers": (cluster.get("halo") or {}).get("transfers",
                                                              0),
            "value_fanouts": (cluster.get("resilience") or {}).get(
                "value_fanouts", 0),
            "results": [len(e.results) for e in engines],
        }
        return out

    def check_round(self, out: RoundOutput) -> RoundCheck:
        ids, by_id, ys = out.payload
        errors: List[str] = []
        failed = 0
        for rid, y, ref in zip(ids, ys, self.refs):
            if y is None:
                failed += 1
                status = by_id[rid].status if rid in by_id else "missing"
                errors.append(f"request {rid}: {status}")
            elif rel_error(y, ref) > TOLERANCE:
                failed += 1
                errors.append(f"request {rid}: wrong y "
                              f"(rel err {rel_error(y, ref):.3e})")
        now = self._counters()
        prev, self._snapshot = self._snapshot, now
        counts = _delta(now, prev)
        counts.pop("results")
        counts["batch_sizes"] = {k: v for k, v in
                                 counts["batch_sizes"].items() if v}
        sim = self._sim_metrics(ids, by_id, prev["results"])
        # drop the checked payloads, as loadgen does once they are
        # folded, so memory does not grow with the number of rounds
        for r in by_id.values():
            r.y = None
        for e, before in zip(_device_engines(self.engine), prev["results"]):
            for r in e.results[before:]:
                r.y = None
        return RoundCheck(ops=out.ops, failed=failed, checksum=out.checksum,
                          counts=counts, sim=sim, errors=errors)

    def _sim_metrics(self, ids, by_id, results_before) -> Dict[str, Any]:
        served = [by_id[i] for i in ids if i in by_id and by_id[i].served]
        if not served:
            return {}
        nnz = {i: self.population[j].nnz
               for i, j in zip(ids, self.trace.picks)}
        first = min(r.arrival_s for r in served)
        makespan = max(r.finish_s for r in served) - first
        gflops = [2.0 * nnz[r.request_id]
                  * (r.batch_size if r.batched else 1)
                  / (r.finish_s - r.start_s) / 1e9 for r in served]
        # device busy time: one interval per launch on each device
        busy = 0.0
        for d, e in enumerate(_device_engines(self.engine)):
            launches = {(r.start_s, r.finish_s)
                        for r in e.results[results_before[d]:]
                        if r.served}
            busy += sum(f - s for s, f in launches)
        sim = latency_metrics([r.latency_s for r in served])
        sim.update({
            "sim_rps": len(served) / makespan,
            "sim_crsd_gflops": float(np.mean(gflops)),
            "sim_crsd_speedup": busy / makespan,
            "sim_queue_wait_us": float(np.mean(
                [r.start_s - r.arrival_s for r in served])) * 1e6,
        })
        return sim


def _delta(now, prev):
    """``now - prev`` over nested dicts and lists of integers."""
    if isinstance(now, dict):
        return {k: _delta(v, prev.get(k, {} if isinstance(v, dict) else 0))
                for k, v in now.items()}
    if isinstance(now, list):
        return [a - b for a, b in zip(now, prev)]
    return now - prev


class ServeTenants(ServingWorkload):
    """One ``ServeEngine`` with its default configuration."""

    name = "serve-tenants"

    def make_engine(self):
        return ServeEngine(size_scale=self.config.scale, keep_y=True)


class ClusterSplit(ServingWorkload):
    """A replicated 4-device ``ClusterEngine`` that splits the largest
    matrix."""

    name = "cluster-split"

    def make_engine(self):
        c = self.config
        return ClusterEngine(
            c.devices, replicas=c.replicas,
            split_threshold_rows=c.split_threshold_rows,
            cache_capacity=c.cluster_cache, size_scale=c.scale,
            keep_y=True)


# ----------------------------------------------------------------------
# suite sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepConfig:
    """Matrices and formats of the sweep workload."""

    #: one matrix per structural family, the cheapest of each family
    #: that runs every format without a device-memory refusal
    matrices: Sequence[str] = ("crystk03", "wang3", "kim1", "nemeth21",
                               "us80_80_50")
    formats: Sequence[str] = GPU_FORMATS
    #: small enough for a round of about 2.5 s, so a run times every
    #: cell several times
    scale: float = 0.02
    mrows: int = 128
    min_rows: Optional[int] = 1000


@dataclass
class SweepCase:
    """One generated matrix with its vector, reference and device."""

    name: str
    scale: float
    coo: COOMatrix
    x: np.ndarray
    ref: np.ndarray
    device: Any


def build_runner(coo: COOMatrix, fmt: str, device, mrows: int):
    """Format build: the runner of ``fmt`` for ``coo`` (unprepared)."""
    if fmt == "dia":
        return DiaSpMV(DIAMatrix.from_coo(coo), device=device)
    if fmt == "ell":
        return EllSpMV(ELLMatrix.from_coo(coo), device=device)
    if fmt == "csr":
        return CsrVectorSpMV(CSRMatrix.from_coo(coo), device=device)
    if fmt == "hyb":
        return HybSpMV(HYBMatrix.from_coo(coo), device=device)
    if fmt == "crsd":
        crsd = CRSDMatrix.from_coo(
            coo, mrows=mrows, wavefront_size=compatible_wavefront(mrows))
        return CrsdSpMV(crsd, device=device)
    raise ValueError(f"unknown format {fmt!r}")


def num_launches(fmt: str, runner) -> int:
    """Kernel launches of one SpMV (scatter / COO-tail second pass)."""
    if fmt == "crsd" and runner.matrix.num_scatter_rows:
        return 2
    if fmt == "hyb" and runner.matrix.coo.nnz:
        return 2
    return 1


@dataclass
class CellOutput:
    """One verified sweep cell."""

    matrix: str
    fmt: str
    nnz: int
    y: np.ndarray
    err: float
    seconds: float
    trace: Dict[str, int]


class SuiteSweep(Workload):
    """Every (matrix, format) cell: build, prepare, run, verify, model."""

    name = "suite-sweep"

    @staticmethod
    def default_config() -> SweepConfig:
        return SweepConfig()

    def generate(self) -> None:
        c = self.config
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for name in c.matrices:
            spec = _SPECS[name]
            scale = (effective_scale(spec, c.scale) if c.min_rows is None
                     else effective_scale(spec, c.scale, c.min_rows))
            coo = spec.generate(scale=scale, seed=self.seed)
            x = rng.standard_normal(coo.ncols)
            self.cases.append(SweepCase(
                name=name, scale=scale, coo=coo, x=x, ref=coo.matvec(x),
                device=scaled_device(scale, TESLA_C2050)))

    def setup(self) -> None:
        """Generate the inputs; the COO reference products are the pass
        over every matrix.  The sweep has no engine and no cache to
        warm: every cell builds its own format and runner, so a set-up
        round would only repeat the first timed round."""
        self.generate()

    def run_cell(self, case: SweepCase, fmt: str) -> CellOutput:
        runner = build_runner(case.coo, fmt, case.device, self.config.mrows)
        runner.prepare()
        run = runner.run(case.x)
        err = rel_error(run.y, case.ref)
        perf = predict_gpu_time(run.trace, case.device, "double",
                                num_launches=num_launches(fmt, runner),
                                size_scale=case.scale)
        return CellOutput(matrix=case.name, fmt=fmt, nnz=case.coo.nnz,
                          y=run.y, err=err, seconds=perf.total,
                          trace=dataclasses.asdict(run.trace))

    def run_round(self) -> RoundOutput:
        cells, walls = [], []
        for case in self.cases:
            for fmt in self.config.formats:
                t0 = time.perf_counter()
                cells.append(self.run_cell(case, fmt))
                walls.append(time.perf_counter() - t0)
        return RoundOutput(ops=len(cells), checksum="", payload=cells,
                           walls=walls)

    def check_round(self, out: RoundOutput) -> RoundCheck:
        cells: List[CellOutput] = out.payload
        errors, failed = [], 0
        for cell, case in zip(cells, (c for c in self.cases
                                      for _ in self.config.formats)):
            err = rel_error(cell.y, case.ref)
            if err > TOLERANCE:
                failed += 1
                errors.append(f"{cell.matrix}/{cell.fmt}: rel err {err:.3e}")
        totals: Dict[str, int] = {}
        for cell in cells:
            for k, v in cell.trace.items():
                totals[k] = totals.get(k, 0) + v
        gflops = {(c.matrix, c.fmt): 2.0 * c.nnz / c.seconds / 1e9
                  for c in cells}
        crsd = [gflops[(m, "crsd")] for m in self.config.matrices]
        speedups = [gflops[(m, "crsd")]
                    / max(gflops[(m, f)] for f in self.config.formats
                          if f != "crsd")
                    for m in self.config.matrices]
        sim = latency_metrics([c.seconds for c in cells])
        sim.update({
            "sim_rps": len(cells) / sum(c.seconds for c in cells),
            "sim_crsd_gflops": float(np.mean(crsd)),
            "sim_crsd_speedup": float(np.mean(speedups)),
        })
        return RoundCheck(ops=out.ops, failed=failed,
                          checksum=fold_checksum([c.y for c in cells]),
                          counts={"kernel_trace": totals,
                                  "cell_seconds": [c.seconds
                                                   for c in cells]},
                          sim=sim, errors=errors)


WORKLOADS = {w.name: w for w in (ServeTenants, ClusterSplit, SuiteSweep)}
