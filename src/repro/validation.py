"""Facade input validation.

The GPU runners assume well-formed inputs — a NaN in the matrix or a
strided ``x`` would either poison the result silently or fail deep in a
kernel with an unhelpful message.  The facade (:func:`repro.spmv`,
:func:`repro.build`) runs these checks up front so bad inputs fail at
the API boundary with one typed error, :class:`InputValidationError`,
before any device buffer is touched.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InputValidationError", "validate_matrix", "validate_vector",
           "validate_batch", "validate_symmetric"]


class InputValidationError(ValueError):
    """A facade input failed validation (bad dtype, shape, layout, or
    non-finite entries)."""


def validate_vector(x, length: int, name: str = "x") -> np.ndarray:
    """Validate a facade-supplied vector and return it as an ndarray.

    Rejects (with :class:`InputValidationError`): non-numeric or
    complex dtypes, wrong dimensionality or length, non-contiguous
    layouts, and NaN/Inf entries.  Python sequences are converted
    first, so lists of floats remain accepted.
    """
    arr = np.asarray(x)
    if arr.dtype.kind not in "fiu":
        raise InputValidationError(
            f"{name} has unsupported dtype {arr.dtype}; expected a real "
            "numeric dtype (float/int)")
    if arr.ndim != 1:
        raise InputValidationError(
            f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size != length:
        raise InputValidationError(
            f"{name} has length {arr.size}, expected {length}")
    if not arr.flags.c_contiguous:
        raise InputValidationError(
            f"{name} is not C-contiguous (e.g. a strided slice); pass "
            f"np.ascontiguousarray({name})")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise InputValidationError(
            f"{name} contains {bad} non-finite (NaN/Inf) entries")
    return arr


def validate_batch(X, ncols: int, nvec=None, name: str = "X") -> np.ndarray:
    """Validate a batched multi-vector right-hand side and return it.

    The SpMM entry points (:class:`~repro.gpu_kernels.crsd_runner.CrsdSpMM`,
    the serving layer's MicroBatcher) take ``X`` of shape
    ``(ncols, nvec)`` — one column per right-hand side.  Rejects, with
    the same typed :class:`InputValidationError` the 1-D path raises:
    non-numeric or complex dtypes, wrong dimensionality, a wrong row
    count, a wrong column count (when ``nvec`` is given), zero columns,
    non-contiguous layouts (neither C- nor F-contiguous — a strided
    slice), and NaN/Inf entries.  Python nested sequences are converted
    first, so lists of rows remain accepted.
    """
    arr = np.asarray(X)
    if arr.dtype.kind not in "fiu":
        raise InputValidationError(
            f"{name} has unsupported dtype {arr.dtype}; expected a real "
            "numeric dtype (float/int)")
    if arr.ndim != 2:
        raise InputValidationError(
            f"{name} must be 2-D (ncols, nvec), got shape {arr.shape}")
    if arr.shape[0] != ncols:
        raise InputValidationError(
            f"{name} has {arr.shape[0]} rows, expected ncols={ncols}")
    if arr.shape[1] == 0:
        raise InputValidationError(f"{name} has zero columns")
    if nvec is not None and arr.shape[1] != nvec:
        raise InputValidationError(
            f"{name} has {arr.shape[1]} columns, expected nvec={nvec}")
    if not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        raise InputValidationError(
            f"{name} is not contiguous (e.g. a strided slice); pass "
            f"np.ascontiguousarray({name})")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise InputValidationError(
            f"{name} contains {bad} non-finite (NaN/Inf) entries")
    return arr


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
