"""Serving subsystem: plan cache, micro-batching, admission control.

The rest of the library answers "how fast is one SpMV?"; this package
answers "how does a *stream* of SpMV requests behave?".  Prepared
artifacts (CRSD builds, generated codelets, autotune results) are kept
in a bounded LRU :class:`PlanCache` keyed by content fingerprint;
concurrent same-matrix requests coalesce into single
:class:`~repro.gpu_kernels.crsd_runner.CrsdSpMM` launches through the
:class:`MicroBatcher`; a bounded queue with explicit overflow policy
(:class:`AdmissionController`) provides backpressure.  Everything runs
on simulated time, so serving experiments are deterministic and
byte-reproducible per seed.

Entry points::

    session = repro.serve_session(max_batch=16)
    session.submit(A, x1); session.submit(A, x2)
    results = session.run()

    # the same surface, sharded over four simulated devices
    cluster = repro.serve_session(cluster=4, split_threshold_rows=20_000)
    cluster.submit(A, x1)
    results = cluster.run()

    # offline load generation (also: `repro loadgen` on the CLI)
    from repro.serve import LoadConfig, run_loadgen
    report = run_loadgen(LoadConfig(seed=7))

Both session flavours satisfy the :class:`~repro.serve.engine.Engine`
protocol — ``submit`` / ``run(until=...)`` / ``stats`` — so anything
written against it (:func:`run_loadgen` included) works unchanged on
one device or a cluster.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.serve.admission import (
    CLUSTER_OVERFLOW_POLICIES,
    OVERFLOW_POLICIES,
    AdmissionController,
    AdmissionPolicy,
    ClusterAdmission,
    ClusterAdmissionPolicy,
    ServeOverloaded,
)
from repro.serve.batcher import BatchConfig, MicroBatcher, Request
from repro.serve.cache import (
    CacheStats,
    PatternStore,
    PlanCache,
    PlanEntry,
    default_cache,
    reset_default_cache,
)
from repro.serve.clock import FOREVER, SimulatedClock
from repro.serve.engine import Engine, ServedResult, ServeEngine
from repro.serve.loadgen import (
    LoadConfig,
    LoadReport,
    append_serve_trajectory,
    chaos_trajectory_path,
    cluster_trajectory_path,
    report_json,
    run_loadgen,
    trajectory_path,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BatchConfig",
    "CLUSTER_OVERFLOW_POLICIES",
    "CacheStats",
    "ClusterAdmission",
    "ClusterAdmissionPolicy",
    "Engine",
    "FOREVER",
    "LoadConfig",
    "LoadReport",
    "MicroBatcher",
    "OVERFLOW_POLICIES",
    "PatternStore",
    "PlanCache",
    "PlanEntry",
    "Request",
    "ServeEngine",
    "ServeOverloaded",
    "ServedResult",
    "SimulatedClock",
    "append_serve_trajectory",
    "chaos_trajectory_path",
    "cluster_trajectory_path",
    "default_cache",
    "report_json",
    "reset_default_cache",
    "run_loadgen",
    "serve_session",
    "trajectory_path",
]


def serve_session(
    *,
    cluster: Optional[int] = None,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    mrows: int = 128,
    use_local_memory: bool = True,
    max_batch: int = 16,
    max_delay_s: float = 200e-6,
    min_spmm: int = 2,
    max_queue_depth: int = 64,
    overflow: str = "reject-new",
    cache: Optional[PlanCache] = None,
    prepare_cost_s: float = 0.0,
    size_scale: float = 1.0,
    keep_y: Union[bool, str] = True,
    split_threshold_rows: Optional[int] = None,
    split_ways: Optional[int] = None,
    cache_capacity: int = 64,
    replicas: int = 1,
    hedge=None,
    cluster_admission=None,
) -> Engine:
    """Open a serving session (the ``repro.serve_session`` facade).

    Flattens the batching and admission knobs into keywords and returns
    a ready :class:`Engine`: ``submit()`` requests, ``run()`` the
    stream, read ``stats()``.  With ``cluster=N`` the session is a
    :class:`~repro.cluster.engine.ClusterEngine` over ``N`` simulated
    devices — same submit/run/stats surface, plus consistent-hash
    placement, (when ``split_threshold_rows`` is set) certified
    row-block splitting of large matrices across devices, and the
    resilience knobs: ``replicas=R`` replicated placement, ``hedge=``
    a :class:`~repro.cluster.resilience.HedgePolicy` for hedged
    retries, ``cluster_admission=`` a :class:`ClusterAdmissionPolicy`
    for the cluster-wide front door.  Without ``cluster``, a single
    :class:`ServeEngine`.

    ``cache`` defaults to a session-private :class:`PlanCache`; pass
    :func:`default_cache` 's return to share prepared artifacts with
    ``repro.auto_format`` / ``repro tune``.  Cluster sessions build
    one per-device cache each (capacity ``cache_capacity``) over a
    shared certificate store, so ``cache`` is single-device only.
    """
    batch = BatchConfig(max_batch=max_batch, max_delay_s=max_delay_s,
                        min_spmm=min_spmm)
    admission = AdmissionPolicy(max_queue_depth=max_queue_depth,
                                overflow=overflow)
    if cluster is not None:
        if cluster < 1:
            raise ValueError(f"cluster must be >= 1 device, got {cluster}")
        if cache is not None:
            raise ValueError(
                "cluster sessions build one PlanCache per device over a "
                "shared certificate store; cache= applies to "
                "single-device sessions only (size it via cache_capacity)")
        from repro.cluster import ClusterEngine

        return ClusterEngine(
            cluster,
            device=device,
            precision=precision,
            mrows=mrows,
            use_local_memory=use_local_memory,
            batch=batch,
            admission=admission,
            prepare_cost_s=prepare_cost_s,
            size_scale=size_scale,
            keep_y=keep_y,
            split_threshold_rows=split_threshold_rows,
            split_ways=split_ways,
            cache_capacity=cache_capacity,
            replicas=replicas,
            hedge=hedge,
            cluster_admission=cluster_admission,
        )
    if split_threshold_rows is not None or split_ways is not None:
        raise ValueError(
            "split_threshold_rows/split_ways shard requests across "
            "cluster devices; pass cluster=N to open a cluster session")
    if replicas != 1 or hedge is not None or cluster_admission is not None:
        raise ValueError(
            "replicas/hedge/cluster_admission are cluster resilience "
            "knobs; pass cluster=N to open a cluster session")
    return ServeEngine(
        device=device,
        precision=precision,
        mrows=mrows,
        use_local_memory=use_local_memory,
        batch=batch,
        admission=admission,
        cache=cache,
        prepare_cost_s=prepare_cost_s,
        size_scale=size_scale,
        keep_y=keep_y,
    )
