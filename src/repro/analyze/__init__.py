"""Static analyzer for generated CRSD kernels.

Proves — without executing anything — the properties the paper's
design argues for: in-bounds index arithmetic, perfectly coalesced
slab traffic, divergence-free control flow, race-free local-memory
staging, and batched-execution safety.  Where the property is
quantitative the analyzer computes the *exact* counters the dynamic
:class:`~repro.ocl.trace.KernelTrace` would record, so static and
dynamic views can be diffed bit-for-bit.

Entry points: :func:`analyze_plan` / :func:`analyze_matrix` run every
checker and return an :class:`AnalysisReport`; :func:`build_model` and
:func:`predict_trace` expose the symbolic model and the closed-form
(L2-off) trace predictor; :func:`synthesize_trace` walks the model's
segment streams once for every counter and the L2 split, with the
batched engine's own replay; :func:`required_local_bytes` is
the standalone capacity probe the autotuner uses.  Every entry serves
CRSD and symmetric half-storage plans alike: the plan kind is read off
its groups, so one model builder and one set of checkers cover both.
"""

from repro.analyze.batch_safety import check_batch_safety
from repro.analyze.bounds import check_bounds
from repro.analyze.coalescing import check_coalescing, predict_trace
from repro.analyze.divergence import check_divergence
from repro.analyze.driver import analyze_matrix, analyze_plan
from repro.analyze.localmem import check_localmem, required_local_bytes
from repro.analyze.model import (
    GlobalAccess,
    IndirectAccess,
    KernelModel,
    LocalOp,
    build_model,
)
from repro.analyze.report import (
    CHECKS,
    AnalysisReport,
    Finding,
    KernelAnalysisError,
)
from repro.analyze.sharding import (
    ShardCertificate,
    build_shard_subplan,
    certify_shard_plan,
    shard_segment_range,
)
from repro.analyze.trace import synthesize_trace

__all__ = [
    "AnalysisReport",
    "CHECKS",
    "Finding",
    "GlobalAccess",
    "IndirectAccess",
    "KernelAnalysisError",
    "KernelModel",
    "LocalOp",
    "ShardCertificate",
    "analyze_matrix",
    "analyze_plan",
    "build_model",
    "build_shard_subplan",
    "certify_shard_plan",
    "check_batch_safety",
    "check_bounds",
    "check_coalescing",
    "check_divergence",
    "check_localmem",
    "predict_trace",
    "required_local_bytes",
    "shard_segment_range",
    "synthesize_trace",
]
