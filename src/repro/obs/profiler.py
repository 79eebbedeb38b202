"""High-level profiling: run a matrix under observation and build a
:class:`~repro.obs.report.ProfileReport`.

:func:`profile_matrix` is the engine behind ``repro.profile(...)`` and
the ``repro profile`` CLI subcommand: it sweeps the requested
format × executor × precision grid, records the span tree each run
emits (kernel launches, prepare/dia/scatter phases), prices every run
with the cost model and derives the metric set
(:mod:`repro.obs.metrics`) per combination.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.formats.coo import COOMatrix
from repro.obs.metrics import MetricRegistry
from repro.obs.recorder import ProfileSession, observe
from repro.obs.report import ProfileReport
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.executor import DEFAULT_SWEEP_EXECUTORS, executor_sweep

__all__ = ["profile_matrix", "profile_runner"]


def _num_launches(fmt: str, runner) -> int:
    """Kernel launches per SpMV of one runner (for launch overhead)."""
    if fmt == "crsd" and getattr(runner, "matrix", None) is not None:
        return 2 if runner.matrix.num_scatter_rows else 1
    if fmt == "hyb" and getattr(runner, "matrix", None) is not None:
        return 2 if runner.matrix.coo.nnz else 1
    return 1


def profile_runner(
    runner,
    x: np.ndarray,
    *,
    name: str,
    nnz: Optional[int] = None,
    num_launches: int = 1,
    size_scale: float = 1.0,
    session: Optional[ProfileSession] = None,
    registry: Optional[MetricRegistry] = None,
) -> ProfileReport:
    """Profile one prepared runner for one source vector.

    Runs ``runner.run(x)`` under observation, prices the trace with
    the cost model and records a single metric entry named ``name``.
    """
    from repro.perf.costmodel import predict_gpu_time

    session = session or ProfileSession(name)
    registry = registry or MetricRegistry()
    with observe(session=session):
        with session.span(name, "profile"):
            run = runner.run(x)
    seconds = predict_gpu_time(
        run.trace, runner.device, runner.precision,
        num_launches=num_launches, size_scale=size_scale,
    ).total
    registry.record(
        name, run.trace, runner.device, runner.precision,
        nnz=nnz, seconds=seconds,
    )
    return ProfileReport(session=session, registry=registry,
                         meta={"matrix": name})


def profile_matrix(
    coo: COOMatrix,
    name: str = "matrix",
    *,
    formats: Sequence[str] = ("crsd",),
    executors: Sequence[str] = DEFAULT_SWEEP_EXECUTORS,
    precisions: Sequence[str] = ("double",),
    device: DeviceSpec = TESLA_C2050,
    mrows: int = 128,
    size_scale: float = 1.0,
    seed: int = 0,
    use_local_memory: bool = True,
) -> ProfileReport:
    """Profile every format × executor × precision combination.

    Each combination is one child span tree in the session (the
    runner/executor instrumentation supplies the kernel spans) and one
    :class:`~repro.obs.metrics.MetricRegistry` entry named
    ``"{format}/{executor}/{precision}"``.  Results are verified
    against the COO reference as they are produced (entries carry
    ``verified`` and ``rel_err``); a combination that cannot run at
    all (e.g. DIA out of device memory in double precision) is skipped
    instead of aborting the sweep: it gets a machine-readable record
    in ``report.skips`` (entry/format/executor/precision plus error
    type and reason).
    """
    # imported lazily: the executor itself hooks into repro.obs.recorder
    from repro.bench.runner import _build_runners
    from repro.ocl.errors import OCLError
    from repro.perf.costmodel import predict_gpu_time

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(coo.ncols)
    ref = coo.matvec(x)
    refscale = max(1.0, float(np.abs(ref).max()))

    session = ProfileSession(name)
    registry = MetricRegistry()
    skips = []
    with executor_sweep(executors) as select, observe(session=session):
        for precision in precisions:
            tol = 1e-6 if precision == "double" else 1e-2
            for executor in executors:
                select(executor)
                for fmt in formats:
                    entry = f"{fmt}/{executor}/{precision}"
                    try:
                        with session.span(entry, "profile",
                                          format=fmt, executor=executor,
                                          precision=precision):
                            runner = _build_runners(
                                coo, device, precision, [fmt], mrows,
                                use_local_memory,
                            )[fmt]
                            run = runner.run(x)
                    except OCLError as exc:
                        skips.append({
                            "entry": entry,
                            "format": fmt,
                            "executor": executor,
                            "precision": precision,
                            "error": type(exc).__name__,
                            "reason": str(exc),
                        })
                        continue
                    err = float(np.abs(run.y - ref).max()) / refscale
                    seconds = predict_gpu_time(
                        run.trace, device, precision,
                        num_launches=_num_launches(fmt, runner),
                        size_scale=size_scale,
                    ).total
                    registry.record(
                        entry, run.trace, device, precision,
                        nnz=coo.nnz, seconds=seconds,
                        format=fmt, executor=executor,
                        verified=bool(err <= tol), rel_err=err,
                    )

    from repro.core.serialize import fingerprint as _fingerprint

    meta = {
        "matrix": name,
        "fingerprint": _fingerprint(coo),
        "nrows": coo.nrows,
        "ncols": coo.ncols,
        "nnz": coo.nnz,
        "formats": list(formats),
        "executors": list(executors),
        "precisions": list(precisions),
        "device": device.name,
        "mrows": mrows,
        "size_scale": size_scale,
    }
    return ProfileReport(session=session, registry=registry, meta=meta,
                         skips=skips)
