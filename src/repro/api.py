"""The ``repro`` facade: one import, three verbs.

High-level entry points over the whole stack, re-exported from the
package root::

    import repro

    run = repro.spmv(A, x)                    # y, trace, derived metrics
    runner = repro.build(A, format="crsd")    # reusable prepared runner
    report = repro.profile(A)                 # spans + metrics + exporters

``A`` may be anything matrix-like the library understands: a
:class:`~repro.formats.coo.COOMatrix` (or any
:class:`~repro.formats.base.SparseFormat`), a
:class:`~repro.core.crsd.CRSDMatrix`, a dense 2-D ``numpy`` array, or a
scipy-style object exposing ``tocoo()``.

``format="auto"`` picks the cheapest format by the analytic traffic
model (:mod:`repro.perf.analytic`) — the same bytes-first argument the
paper makes, without running a kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.crsd import CRSDMatrix, compatible_wavefront
from repro.formats.base import SparseFormat
from repro.formats.coo import COOMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.executor import DEFAULT_SWEEP_EXECUTORS
from repro.validation import check_operand, validate_matrix

__all__ = ["spmv", "build", "profile", "auto_format"]

#: formats ``build``/``spmv`` accept (``auto`` resolves to one of these)
FORMATS = ("crsd", "dia", "ell", "csr", "hyb")


def _as_coo(matrix) -> COOMatrix:
    """Coerce any supported matrix carrier to COO."""
    if isinstance(matrix, COOMatrix):
        return matrix
    if isinstance(matrix, (CRSDMatrix, SparseFormat)):
        return matrix.to_coo()
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 2:
            raise ValueError(
                f"dense matrix must be 2-D, got shape {matrix.shape}")
        from repro.formats.convert import from_dense

        return from_dense(matrix, "coo")
    if hasattr(matrix, "tocoo"):  # scipy.sparse duck type
        m = matrix.tocoo()
        return COOMatrix(
            np.asarray(m.row), np.asarray(m.col), np.asarray(m.data),
            m.shape,
        )
    raise TypeError(
        f"cannot interpret {type(matrix).__name__} as a sparse matrix; "
        "expected COOMatrix, CRSDMatrix, a SparseFormat, a dense 2-D "
        "ndarray, or an object with .tocoo()"
    )


def auto_format(matrix, precision: str = "double",
                device: DeviceSpec = TESLA_C2050,
                mrows: int = 128) -> str:
    """Pick the format moving the fewest analytic bytes per SpMV.

    Builds the candidate formats' *descriptions* (cheap — no kernels)
    and compares :func:`repro.perf.analytic.estimate_traffic`; formats
    whose device footprint exceeds memory are disqualified (the paper's
    DIA/double OOM case).

    The decision is memoised in the process-wide
    :class:`~repro.serve.cache.PlanCache` keyed by the matrix's content
    fingerprint, so asking again for a matrix already prepared
    in-session never redoes the structural analysis.
    """
    from repro.serve.cache import default_cache

    return default_cache().auto_format(matrix, precision, device, mrows)


def _auto_format_impl(matrix, precision: str = "double",
                      device: DeviceSpec = TESLA_C2050,
                      mrows: int = 128) -> str:
    """The uncached format decision behind :func:`auto_format`."""
    from repro.formats.csr import CSRMatrix
    from repro.formats.dia import DIAMatrix
    from repro.formats.ell import ELLMatrix
    from repro.formats.footprint import footprint_bytes
    from repro.perf.analytic import estimate_traffic

    coo = _as_coo(matrix)
    candidates = {
        "crsd": lambda: CRSDMatrix.from_coo(
            coo, mrows=mrows, wavefront_size=compatible_wavefront(mrows)),
        "dia": lambda: DIAMatrix.from_coo(coo),
        "ell": lambda: ELLMatrix.from_coo(coo),
        "csr": lambda: CSRMatrix.from_coo(coo),
    }
    best_fmt, best_bytes = "csr", float("inf")
    for fmt, make in candidates.items():
        try:
            m = make()
            if footprint_bytes(m, precision) > device.global_mem_bytes:
                continue
            est = estimate_traffic(m, precision)
        except (ValueError, TypeError, MemoryError):
            continue
        total = est.load_bytes + est.store_bytes
        if total < best_bytes:
            best_fmt, best_bytes = fmt, total
    return best_fmt


def build(
    matrix,
    format: str = "crsd",
    *,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    mrows: int = 128,
    use_local_memory: bool = True,
) -> GPUSpMV:
    """Build a prepared GPU runner for ``matrix`` in ``format``.

    ``format="auto"`` selects via :func:`auto_format`.  A
    :class:`~repro.core.crsd.CRSDMatrix` passed with ``format="crsd"``
    is used as-is (its build parameters win over ``mrows``).
    """
    from repro.bench.runner import _build_runners

    validate_matrix(matrix)
    if format == "auto":
        format = auto_format(matrix, precision, device, mrows)
    if format not in FORMATS:
        raise ValueError(
            f"unknown format {format!r}; expected one of "
            f"{FORMATS + ('auto',)}")
    if isinstance(matrix, CRSDMatrix) and format == "crsd":
        from repro.gpu_kernels import CrsdSpMV

        runner = CrsdSpMV(matrix, device=device, precision=precision,
                          use_local_memory=use_local_memory)
    else:
        runner = _build_runners(
            _as_coo(matrix), device, precision, [format], mrows,
            use_local_memory,
        )[format]
    return runner.prepare()


def spmv(
    A,
    x: np.ndarray,
    format: str = "crsd",
    *,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    mrows: int = 128,
    use_local_memory: bool = True,
    trace: bool = True,
    resilience=None,
) -> SpMVRun:
    """One-shot ``y = A @ x`` on the simulated device.

    Returns an :class:`~repro.gpu_kernels.base.SpMVRun` whose
    ``metrics`` field carries the :mod:`repro.obs` derived metrics
    (bytes moved, coalescing, L2 hit rate, roofline placement) when
    tracing is on.  For repeated products over one matrix, prefer
    ``repro.build(...)`` and reuse the runner.

    ``resilience`` (a :class:`repro.resilience.Policy`, or ``True`` for
    the default policy) routes the call through the resilient
    execution layer: faults are retried with deterministic backoff and
    the format degrades down the fallback ladder instead of raising;
    the run's ``resilience`` field then carries the
    :class:`~repro.resilience.engine.IncidentReport`.  The default
    ``None`` takes the classic direct path with zero resilience
    overhead.
    """
    if resilience is not None and resilience is not False:
        return _resilient_facade_spmv(
            A, x, format, device=device, precision=precision, mrows=mrows,
            use_local_memory=use_local_memory, trace=trace,
            resilience=resilience)
    runner = build(A, format, device=device, precision=precision,
                   mrows=mrows, use_local_memory=use_local_memory)
    x = check_operand(x, runner.ncols, finite=True)
    run = runner.run(x, trace=trace)
    if trace:
        from repro.obs.metrics import derive_metrics
        from repro.perf.costmodel import predict_gpu_time

        nnz = _nnz_of(A, runner)
        seconds = predict_gpu_time(run.trace, device, precision).total
        run.metrics = derive_metrics(run.trace, device, precision,
                                     nnz=nnz, seconds=seconds)
    return run


def _resilient_facade_spmv(
    A, x, format, *, device, precision, mrows, use_local_memory, trace,
    resilience,
) -> SpMVRun:
    """The ``resilience=`` branch of :func:`spmv`: validate the matrix,
    delegate to the ladder (which checks ``x``), then derive the same
    metrics the direct path does."""
    from repro.resilience.engine import resilient_spmv
    from repro.resilience.policy import Policy

    policy = resilience if isinstance(resilience, Policy) else Policy()
    validate_matrix(A)
    if format == "auto":
        format = auto_format(A, precision, device, mrows)
    coo = _as_coo(A)
    run = resilient_spmv(
        coo, x, format, device=device, precision=precision, mrows=mrows,
        use_local_memory=use_local_memory, policy=policy, trace=trace)
    if trace:
        from repro.obs.metrics import derive_metrics
        from repro.perf.costmodel import predict_gpu_time

        seconds = predict_gpu_time(run.trace, device, precision).total
        run.metrics = derive_metrics(run.trace, device, precision,
                                     nnz=int(coo.nnz), seconds=seconds)
    return run


def _nnz_of(matrix, runner) -> Optional[int]:
    """True nonzero count of the product's matrix, if discoverable."""
    for obj in (matrix, getattr(runner, "matrix", None)):
        nnz = getattr(obj, "nnz", None)
        if nnz is not None:
            return int(nnz)
    if isinstance(matrix, np.ndarray):
        return int(np.count_nonzero(matrix))
    return None


def profile(
    matrix,
    name: str = "matrix",
    *,
    formats: Sequence[str] = ("crsd",),
    executors: Sequence[str] = DEFAULT_SWEEP_EXECUTORS,
    precisions: Sequence[str] = ("double",),
    device: DeviceSpec = TESLA_C2050,
    mrows: int = 128,
    size_scale: float = 1.0,
    seed: int = 0,
):
    """Profile ``matrix`` and return a
    :class:`~repro.obs.report.ProfileReport` (spans, metric entries,
    ``report.export(dir)`` for the JSON/CSV/Chrome-trace artifacts).
    """
    from repro.obs.profiler import profile_matrix

    return profile_matrix(
        _as_coo(matrix), name, formats=formats, executors=executors,
        precisions=precisions, device=device, mrows=mrows,
        size_scale=size_scale, seed=seed,
    )
