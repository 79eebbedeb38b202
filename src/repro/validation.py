"""Input validation: one operand contract for every SpMV/SpMM entry.

Every public entry that takes a right-hand side -- the GPU runners'
``run`` (:class:`~repro.gpu_kernels.base.GPUSpMV` and
:class:`~repro.gpu_kernels.crsd_runner.CrsdSpMM`),
:meth:`ServeEngine.submit <repro.serve.engine.ServeEngine.submit>`,
:meth:`ClusterEngine.submit <repro.cluster.engine.ClusterEngine.submit>`,
the resilient ladder (:func:`~repro.resilience.engine.resilient_spmv`)
and the :func:`repro.spmv` facade -- calls :func:`check_operand`
exactly once, and the layers below trust the array it returns.  The
rule is the same everywhere: a real numeric dtype, the exact shape
``(ncols,)`` or ``(ncols, nvec)``, a C- or F-contiguous layout.  A
violation raises the typed :class:`InputValidationError` before any
kernel runs.

The one difference between entries is the non-finite policy.  The
runners accept NaN/Inf: the kernels' IEEE results are defined (the
runners execute with numpy's invalid/overflow warnings off), and the
Krylov solvers' breakdown guards rely on a non-finite product flowing
into the next SpMV.  The serving layers, the resilient ladder and the
facade reject NaN/Inf (``finite=True``): a request's answer should not
be silently poisoned, and a non-finite ``y`` never verifies.

:func:`validate_matrix` and :func:`validate_symmetric` check the
facade's matrix inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["InputValidationError", "check_operand", "is_real_numeric",
           "validate_matrix", "validate_symmetric"]


class InputValidationError(ValueError):
    """An input failed validation (bad dtype, shape, layout, or
    non-finite entries)."""


def is_real_numeric(arr: np.ndarray) -> bool:
    """Whether ``arr`` has a real numeric dtype (float, signed or
    unsigned int): the dtype rule of every operand contract, GPU
    (:func:`check_operand`) and CPU
    (:func:`~repro.formats.base.check_vector`) alike."""
    return arr.dtype.kind in "fiu"


def check_operand(x, ncols: int, nvec: Optional[int] = None, *,
                  dtype=None, finite: bool = False) -> np.ndarray:
    """Check a right-hand side and return the array to compute with.

    ``x`` must have a real numeric dtype (float/int; complex, string
    and object inputs raise), the exact shape ``(ncols,)`` -- or
    ``(ncols, nvec)`` when ``nvec`` is given (runners hold
    ``nvec >= 1``, so a zero-column ``X`` never matches) -- and a C- or
    F-contiguous layout (a strided slice raises).  ``finite=True`` also
    rejects NaN/Inf entries.  Python sequences are converted first, so
    lists remain accepted.  The result is ``x`` as an ndarray, cast to
    ``dtype`` when given (no copy when it already matches).  Every
    violation raises :class:`InputValidationError`.
    """
    name = "x" if nvec is None else "X"
    arr = np.asarray(x)
    if not is_real_numeric(arr):
        raise InputValidationError(
            f"{name} has unsupported dtype {arr.dtype}; expected a real "
            "numeric dtype (float/int)")
    shape = (ncols,) if nvec is None else (ncols, nvec)
    if arr.shape != shape:
        raise InputValidationError(
            f"{name} has shape {arr.shape}, expected {shape}")
    if not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        raise InputValidationError(
            f"{name} is not contiguous (e.g. a strided slice); pass "
            f"np.ascontiguousarray({name})")
    if finite and arr.dtype.kind == "f" and not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise InputValidationError(
            f"{name} contains {bad} non-finite (NaN/Inf) entries")
    return arr if dtype is None else arr.astype(dtype, copy=False)


def validate_symmetric(a, op=None, samples: int = 1, tol: float = 1e-8,
                       seed: int = 0) -> None:
    """Validate that a system matrix is symmetric, for the CG family.

    CG and PCG silently return garbage on non-symmetric systems; this
    check fails them up front with a typed
    :class:`InputValidationError` instead.  Explicit carriers are
    checked exactly: a dense array via ``A == A^T`` (within ``tol``), a
    :class:`~repro.formats.base.SparseFormat` via the canonical COO's
    :meth:`~repro.formats.coo.COOMatrix.is_symmetric` (bit-exact — the
    same precondition the symmetric CRSD carrier enforces).  Opaque
    operators (GPU runners, :class:`~repro.blockop.operator.BlockOperator`,
    callables) are checked statistically: ``samples`` random pairs must
    satisfy ``x·(A·y) == y·(A·x)`` to relative tolerance ``tol`` — two
    extra SpMVs per sample, which a solver runs *before* it starts
    counting.
    """
    from repro.formats.base import SparseFormat

    if isinstance(a, np.ndarray) and a.ndim == 2:
        if a.shape[0] != a.shape[1]:
            raise InputValidationError(
                f"matrix of shape {a.shape} cannot be symmetric")
        if not np.allclose(a, a.T, rtol=tol, atol=tol):
            raise InputValidationError(
                "matrix is not symmetric (A != A^T); CG-family solvers "
                "require a symmetric system — use bicgstab, or pass "
                "check_symmetry=False if you know better")
        return
    if isinstance(a, SparseFormat):
        coo = a.to_coo()
        if coo.nrows != coo.ncols or not coo.is_symmetric(tol=0.0):
            raise InputValidationError(
                "matrix is not exactly symmetric (pattern or stored "
                "values do not mirror); CG-family solvers require a "
                "symmetric system — use bicgstab, or pass "
                "check_symmetry=False if you know better")
        return
    if op is None:
        from repro.solvers.operator import as_operator

        op = as_operator(a)
    if op.nrows != op.ncols:
        raise InputValidationError(
            f"operator of shape {op.shape} cannot be symmetric")
    rng = np.random.default_rng(seed)
    for _ in range(max(1, int(samples))):
        x = rng.standard_normal(op.ncols)
        y = rng.standard_normal(op.ncols)
        left = float(x @ op(y))
        right = float(y @ op(x))
        if abs(left - right) > tol * max(1.0, abs(left), abs(right)):
            raise InputValidationError(
                f"operator failed the sampled symmetry identity: "
                f"x·(A·y)={left:.9e} vs y·(A·x)={right:.9e}; CG-family "
                "solvers require a symmetric system — use bicgstab, or "
                "pass check_symmetry=False if you know better")


def validate_matrix(matrix) -> None:
    """Reject matrices carrying non-finite values.

    Works directly on whatever representation the caller handed the
    facade — a dense ndarray, any
    :class:`~repro.formats.base.SparseFormat` (via its array
    inventory), or a scipy-style object exposing ``.data`` — without
    forcing a COO conversion just to validate.
    """
    if isinstance(matrix, np.ndarray):
        if not np.isfinite(matrix).all():
            raise InputValidationError(
                "matrix contains non-finite (NaN/Inf) entries")
        return
    inventory = getattr(matrix, "array_inventory", None)
    if callable(inventory):
        for name, arr in inventory().items():
            arr = np.asarray(arr)
            if arr.dtype.kind == "f" and not np.isfinite(arr).all():
                raise InputValidationError(
                    f"matrix array {name!r} contains non-finite "
                    "(NaN/Inf) entries")
        return
    data = getattr(matrix, "data", None)
    if data is not None:
        arr = np.asarray(data)
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise InputValidationError(
                "matrix values contain non-finite (NaN/Inf) entries")
