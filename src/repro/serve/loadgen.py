"""Seeded load generation over the suite and the serving report.

The generator builds a deterministic open-loop arrival trace — Poisson
interarrivals, optionally grouped into synchronized bursts — over a
subset of the 23 suite matrices, plays it through a
:class:`~repro.serve.engine.ServeEngine`, and reduces the outcome to a
JSON report: latency percentiles, throughput, batch-size histogram,
cache hit rate, admission counters, and a checksum over every served
``y`` (so two byte-identical reports certify bit-identical results,
not just matching summaries).

Everything is keyed off the seed and runs on simulated time, so the
same :class:`LoadConfig` produces the same report *bytes* on every
machine — the CI ``serve-smoke`` job runs the generator twice and
``cmp``s the files.

Reports are also appended to a ``BENCH_serve.json`` trajectory
(``{"schema": ..., "entries": [...]}``, same envelope as the bench
trajectory) named by ``REPRO_SERVE_TRAJECTORY``, so serving behaviour
accumulates a comparable history across commits.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.matrices.suite23 import SUITE
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.serve.admission import AdmissionPolicy
from repro.serve.batcher import BatchConfig
from repro.serve.cache import PlanCache
from repro.serve.engine import Engine, ServeEngine, ServedResult

__all__ = ["LoadConfig", "LoadReport", "run_loadgen", "report_json",
           "append_serve_trajectory", "trajectory_path",
           "cluster_trajectory_path", "chaos_trajectory_path",
           "ARRIVAL_PATTERNS"]

#: recognised arrival processes
ARRIVAL_PATTERNS = ("poisson", "burst")

#: environment variable naming the serve trajectory file (unset = no
#: persistence); the conventional file name is ``BENCH_serve.json``
TRAJECTORY_ENV = "REPRO_SERVE_TRAJECTORY"

#: environment variable naming the *cluster* trajectory file; the
#: conventional file name is ``BENCH_cluster.json``
CLUSTER_TRAJECTORY_ENV = "REPRO_CLUSTER_TRAJECTORY"

#: schema tag of the serve trajectory envelope and its entries
TRAJECTORY_SCHEMA = "repro-serve-trajectory/v1"

#: schema tag of the cluster trajectory envelope and its entries
CLUSTER_TRAJECTORY_SCHEMA = "repro-cluster-trajectory/v1"

#: environment variable naming the chaos trajectory file; the
#: conventional file name is ``BENCH_chaos.json``
CHAOS_TRAJECTORY_ENV = "REPRO_CHAOS_TRAJECTORY"

#: schema tag of the cluster-chaos trajectory envelope and its entries
CHAOS_TRAJECTORY_SCHEMA = "repro-cluster-chaos-trajectory/v1"

#: schema tag of one loadgen report
REPORT_SCHEMA = "repro-serve-report/v1"

#: default matrix subset: one representative per structural family,
#: eight matrices (the acceptance floor for the throughput criterion)
DEFAULT_MATRICES = ("crystk03", "s3dkt3m2", "ecology2", "wang3", "kim1",
                    "Lin", "nemeth22", "s80_80_50")


@dataclass(frozen=True)
class LoadConfig:
    """One reproducible load-generation run.

    Parameters
    ----------
    seed:
        Seeds arrivals, matrix choices and request vectors; the whole
        report is a pure function of this config.
    matrices:
        Suite matrix names (or numbers) requests draw from, uniformly.
    scale:
        Suite generation scale (1.0 = paper size).
    num_requests:
        Arrivals to generate.
    rate_rps:
        Mean arrival rate in requests per *simulated* second.  Batching
        only helps once the device saturates, so pick a rate above the
        per-request service rate to study it (the default is deep in
        the overloaded regime for the default suite subset).
    pattern:
        ``"poisson"`` — independent exponential interarrivals;
        ``"burst"`` — the same process but arrivals land in
        synchronized groups of ``burst_size`` (same instant), the
        pathological-friendly case for micro-batching.
    burst_size:
        Group size under ``pattern="burst"``.
    deadline_s:
        Optional per-request relative deadline (simulated seconds).
    tenants:
        Value-variants per suite matrix.  Tenant 0 is the base matrix;
        each further tenant keeps the *pattern* (so plan caches and
        certificate stores hit across tenants) but rescales the values
        with its own deterministic stream — the multi-tenant traffic
        the cluster bench drives (``matrices × tenants`` distinct
        matrices through one arrival process).
    """

    seed: int = 0
    matrices: Sequence[str] = DEFAULT_MATRICES
    scale: float = 0.05
    num_requests: int = 64
    rate_rps: float = 4e5
    pattern: str = "poisson"
    burst_size: int = 8
    deadline_s: Optional[float] = None
    precision: str = "double"
    mrows: int = 128
    device: DeviceSpec = TESLA_C2050
    use_local_memory: bool = True
    prepare_cost_s: float = 0.0
    tenants: int = 1

    def __post_init__(self):
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival pattern {self.pattern!r}; expected one "
                f"of {ARRIVAL_PATTERNS}")
        if self.num_requests < 1:
            raise ValueError(
                f"num_requests must be >= 1, got {self.num_requests}")
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        if self.burst_size < 1:
            raise ValueError(
                f"burst_size must be >= 1, got {self.burst_size}")
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")

    def to_dict(self) -> Dict[str, Any]:
        """The config as a JSON-safe dict (embedded in every report)."""
        return {
            "seed": self.seed,
            "matrices": list(self.matrices),
            "scale": self.scale,
            "num_requests": self.num_requests,
            "rate_rps": self.rate_rps,
            "pattern": self.pattern,
            "burst_size": self.burst_size,
            "deadline_s": self.deadline_s,
            "precision": self.precision,
            "mrows": self.mrows,
            "device": self.device.name,
            "use_local_memory": self.use_local_memory,
            "prepare_cost_s": self.prepare_cost_s,
            "tenants": self.tenants,
        }


@dataclass
class LoadReport:
    """The outcome of one loadgen run (``to_dict`` is the report)."""

    config: LoadConfig
    results: List[ServedResult]
    stats: Dict[str, Any]
    y_checksum: str
    schema: str = REPORT_SCHEMA
    extra: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def served(self) -> List[ServedResult]:
        return [r for r in self.results if r.served]

    @property
    def latencies(self) -> List[float]:
        return sorted(r.latency_s for r in self.served)

    def percentile(self, p: float) -> float:
        """Nearest-rank latency percentile over served requests.

        Well-defined on every input: 0.0 when nothing was served, the
        single sample for any ``p`` on one-element runs, and ``p``
        clamped into [0, 100] (so ``p=0`` is the minimum, ``p=100`` —
        or anything above — the maximum, never an index error).
        """
        lat = self.latencies
        if not lat:
            return 0.0
        p = min(100.0, max(0.0, float(p)))
        rank = min(len(lat), max(1, int(np.ceil(p / 100.0 * len(lat)))))
        return lat[rank - 1]

    @property
    def makespan_s(self) -> float:
        """First arrival to last finish, simulated seconds."""
        if not self.served:
            return 0.0
        first = min(r.arrival_s for r in self.results)
        last = max(r.finish_s for r in self.served)
        return last - first

    @property
    def throughput_rps(self) -> float:
        """Served requests per simulated second of makespan."""
        span = self.makespan_s
        return len(self.served) / span if span > 0 else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The full report payload (what :func:`report_json` emits)."""
        by_status: Dict[str, int] = {}
        for r in self.results:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        lat = self.latencies
        return {
            "schema": self.schema,
            "config": self.config.to_dict(),
            "requests": {
                "submitted": len(self.results),
                **{s: by_status.get(s, 0)
                   for s in ("served", "rejected", "shed", "expired")},
            },
            "latency_s": {
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
                "mean": float(np.mean(lat)) if lat else 0.0,
                "max": lat[-1] if lat else 0.0,
            },
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            **self.stats,
            "y_checksum": self.y_checksum,
            **self.extra,
        }


def _resolve_specs(names: Sequence) -> List:
    """Suite specs for a mixed name/number selection, in given order."""
    by_name = {s.name: s for s in SUITE}
    by_number = {s.number: s for s in SUITE}
    specs = []
    for key in names:
        spec = by_number.get(key) if isinstance(key, int) \
            else by_name.get(str(key))
        if spec is None:
            known = ", ".join(s.name for s in SUITE)
            raise ValueError(
                f"unknown suite matrix {key!r}; expected a number 1-23 "
                f"or one of: {known}")
        specs.append(spec)
    return specs


def _arrival_times(config: LoadConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """The open-loop arrival instants (simulated seconds, sorted)."""
    n = config.num_requests
    if config.pattern == "poisson":
        gaps = rng.exponential(1.0 / config.rate_rps, size=n)
        return np.cumsum(gaps)
    # burst: whole groups share one Poisson-placed instant; the group
    # process runs at rate/burst_size so the request rate is preserved
    groups = -(-n // config.burst_size)
    group_rate = config.rate_rps / config.burst_size
    instants = np.cumsum(rng.exponential(1.0 / group_rate, size=groups))
    return np.repeat(instants, config.burst_size)[:n]


def _tenant_matrices(config: LoadConfig, specs) -> List:
    """The multi-tenant matrix population, spec-major order.

    Laid out ``[spec0/t0, spec0/t1, ..., spec1/t0, ...]``.  Tenant 0
    is the suite matrix itself; tenant ``t >= 1`` keeps the triplet
    *pattern* (same row/col arrays, hence the same pattern
    fingerprint) and rescales every value by a per-tenant stream drawn
    from ``default_rng([seed, spec.number, t])`` — deterministic,
    order-independent, and never zeroing a nonzero (the factors live
    in [0.5, 1.5]).
    """
    from repro.formats.coo import COOMatrix

    population = []
    for spec in specs:
        base = spec.generate(scale=config.scale, seed=config.seed)
        population.append(base)
        for t in range(1, config.tenants):
            trng = np.random.default_rng([config.seed, spec.number, t])
            factors = trng.uniform(0.5, 1.5, size=base.vals.size)
            population.append(COOMatrix(
                base.rows, base.cols, base.vals * factors,
                (base.nrows, base.ncols)))
    return population


def _fold_checksum(results: List[ServedResult]) -> str:
    """Fold served results into the report checksum, dropping payloads.

    Folds the per-request ``sha256(y)`` *digest* (not the raw bytes)
    in request-id order — an engine running with ``keep_y="digest"``
    contributes the digest it already computed, an engine keeping full
    payloads contributes the same digest computed here, so the
    checksum is engine-agnostic while staying memory-bounded for
    100k-request runs.  Byte-identical checksums still certify
    bit-identical served vectors.
    """
    fold = hashlib.sha256()
    for r in sorted(results, key=lambda r: r.request_id):
        if not r.served:
            continue
        d = r.y_digest
        if d is None and r.y is not None:
            d = hashlib.sha256(np.ascontiguousarray(r.y).tobytes()).digest()
        if d is not None:
            fold.update(d)
        r.y = None  # drop payloads once folded into the checksum
        r.y_digest = d
    return fold.hexdigest()[:16]


def run_loadgen(
    config: LoadConfig,
    *,
    engine: Optional[Engine] = None,
    batch: Optional[BatchConfig] = None,
    admission: Optional[AdmissionPolicy] = None,
    cache: Optional["PlanCache"] = None,
    chaos=None,
) -> LoadReport:
    """Generate the arrival trace and serve it; returns the report.

    The checksum folds every served request's ``sha256(y)`` digest in
    request-id order, so byte-identical reports mean bit-identical
    served results.  ``engine`` accepts any
    :class:`~repro.serve.engine.Engine` — a
    :class:`~repro.serve.engine.ServeEngine` or a
    :class:`~repro.cluster.engine.ClusterEngine` — and takes over
    serving (the engine-construction knobs ``batch``/``admission``/
    ``cache`` then must stay unset); the report's ``schema`` follows
    the engine's ``report_schema``.  ``cache``
    optionally shares a :class:`~repro.serve.cache.PlanCache` across
    runs — the warm-cache steady state the throughput benchmarks
    measure (report *contents* are cache-independent; only wall-clock
    changes).  ``chaos`` optionally applies a
    :class:`~repro.resilience.chaos.ChaosSchedule` — a correlated
    multi-device fault sequence — before serving; it requires a
    cluster engine (anything with the ``fail_device`` scheduling
    surface) and the schedule is recorded in the report.
    """
    if engine is not None and (batch is not None or admission is not None
                               or cache is not None):
        raise TypeError(
            "run_loadgen() got both an engine and engine-construction "
            "arguments (batch/admission/cache); configure the engine "
            "you pass")

    specs = _resolve_specs(config.matrices)
    rng = np.random.default_rng(config.seed)
    matrices = _tenant_matrices(config, specs)
    times = _arrival_times(config, rng)
    picks = rng.integers(0, len(matrices), size=config.num_requests)
    xs = [np.asarray(rng.standard_normal(matrices[j].ncols))
          for j in picks]

    if engine is None:
        engine = ServeEngine(
            device=config.device, precision=config.precision,
            mrows=config.mrows, use_local_memory=config.use_local_memory,
            batch=batch, admission=admission, cache=cache,
            prepare_cost_s=config.prepare_cost_s, size_scale=config.scale,
            keep_y="digest")
    extra: Dict[str, Any] = {"matrix_names": [s.name for s in specs]}
    if chaos is not None:
        if not hasattr(engine, "fail_device"):
            raise TypeError(
                "chaos= needs a cluster engine (fail_device/"
                "slow_device/rejoin_device scheduling surface); pass "
                "engine=serve_session(cluster=N, ...)")
        chaos.apply(engine)
        extra["chaos_schedule"] = chaos.to_dict()
    for at, j, x in zip(times, picks, xs):
        engine.submit(matrices[j], x, at=float(at),
                      deadline_s=config.deadline_s)
    results = engine.run()

    return LoadReport(
        config=config, results=results, stats=engine.stats(),
        y_checksum=_fold_checksum(results),
        schema=getattr(engine, "report_schema", REPORT_SCHEMA),
        extra=extra)


def report_json(report: Union[LoadReport, Dict[str, Any]]) -> str:
    """The report's canonical JSON (sorted keys — byte-stable)."""
    payload = report.to_dict() if isinstance(report, LoadReport) else report
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def append_serve_trajectory(report: LoadReport,
                            path: Union[str, Path],
                            schema: str = TRAJECTORY_SCHEMA) -> Path:
    """Append one run's report to a serving trajectory file.

    Same envelope as the bench trajectory: ``{"schema": ...,
    "entries": [...]}``, created on first use.  The entry is the report
    plus a wall-clock timestamp (the trajectory records *when* history
    was made; the report itself stays timestamp-free so it can be
    compared byte-for-byte).  ``schema`` selects the envelope tag —
    :data:`TRAJECTORY_SCHEMA` for single-engine ``BENCH_serve.json``
    histories, :data:`CLUSTER_TRAJECTORY_SCHEMA` for the cluster's
    ``BENCH_cluster.json``.
    """
    path = Path(path)
    payload: Dict[str, Any] = {"schema": schema, "entries": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and isinstance(
                existing.get("entries"), list):
            payload = existing
    entry = dict(report.to_dict())
    entry["schema"] = schema
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    payload["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def trajectory_path() -> Optional[str]:
    """The trajectory file named by the environment (or ``None``)."""
    return os.environ.get(TRAJECTORY_ENV) or None


def cluster_trajectory_path() -> Optional[str]:
    """The cluster trajectory file named by the environment (or
    ``None``); conventionally ``BENCH_cluster.json``."""
    return os.environ.get(CLUSTER_TRAJECTORY_ENV) or None


def chaos_trajectory_path() -> Optional[str]:
    """The cluster-chaos trajectory file named by the environment (or
    ``None``); conventionally ``BENCH_chaos.json``."""
    return os.environ.get(CHAOS_TRAJECTORY_ENV) or None
