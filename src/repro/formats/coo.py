"""Coordinate (COO) format — the canonical interchange representation.

Stores one ``(row, col, value)`` triplet per nonzero.  All other formats
convert through COO.  Triplets are kept sorted row-major (row, then
column) with duplicates summed, which makes conversions and equality
checks deterministic.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    FormatError,
    SparseFormat,
    check_vector,
)


class COOMatrix(SparseFormat):
    """Coordinate-format sparse matrix.

    Parameters
    ----------
    rows, cols, vals:
        Parallel arrays of equal length giving the nonzero triplets.
        They are copied, coerced, sorted row-major and deduplicated
        (duplicate coordinates are summed, as in most sparse toolkits).
    shape:
        Matrix shape ``(nrows, ncols)``.
    keep_explicit_zeros:
        When False (default) triplets whose value is exactly 0.0 are
        dropped after deduplication.
    """

    name = "coo"

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        *,
        keep_explicit_zeros: bool = False,
    ):
        super().__init__(shape)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=VALUE_DTYPE).ravel()
        if not (rows.shape == cols.shape == vals.shape):
            raise FormatError(
                f"triplet arrays disagree in length: {rows.size}, {cols.size}, {vals.size}"
            )
        if rows.size:
            if rows.min(initial=0) < 0 or rows.max(initial=0) >= self.nrows:
                raise FormatError("row index out of range")
            if cols.min(initial=0) < 0 or cols.max(initial=0) >= self.ncols:
                raise FormatError("column index out of range")
        rows, cols, vals = _sort_and_sum_duplicates(rows, cols, vals, self.ncols)
        if not keep_explicit_zeros and vals.size:
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        self.rows = rows.astype(INDEX_DTYPE)
        self.cols = cols.astype(INDEX_DTYPE)
        self.vals = vals

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a 2-D dense array, keeping only nonzero entries."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2:
            raise FormatError(f"dense array must be 2-D, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.empty(0)
        return cls(z, z, z, shape)

    # ------------------------------------------------------------------
    # SparseFormat surface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = check_vector(x, self.ncols)
        y = np.zeros(self.nrows, dtype=np.result_type(self.vals, x))
        np.add.at(y, self.rows, self.vals * x[self.cols])
        if out is not None:
            out[:] = y
            return out
        return y

    def to_coo(self) -> "COOMatrix":
        return self

    def array_inventory(self) -> Dict[str, np.ndarray]:
        return {"rows": self.rows, "cols": self.cols, "vals": self.vals}

    def todense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    # ------------------------------------------------------------------
    # structural queries used by the analysis layer
    # ------------------------------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """nnz count of every row (length ``nrows``)."""
        return np.bincount(self.rows, minlength=self.nrows).astype(np.int64)

    def diagonal_offsets(self) -> np.ndarray:
        """Sorted unique offsets ``col - row`` that carry at least one nonzero."""
        return np.unique(self.cols.astype(np.int64) - self.rows.astype(np.int64))

    def offsets_of_entries(self) -> np.ndarray:
        """Per-entry diagonal offset (parallel to the triplet arrays)."""
        return self.cols.astype(np.int64) - self.rows.astype(np.int64)

    def transpose(self) -> "COOMatrix":
        """The transpose ``A^T`` (canonicalised like any COO build)."""
        return COOMatrix(self.cols, self.rows, self.vals,
                         (self.ncols, self.nrows))

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """Exact (or toleranced) ``A == A^T``.

        ``tol=0.0`` demands bit-equal stored values — the precondition
        the symmetric CRSD carrier needs for bit-identical serving.
        """
        if self.nrows != self.ncols:
            return False
        return self.transpose().equals(self, tol=tol)

    def equals(self, other: "COOMatrix", tol: float = 0.0) -> bool:
        """Exact (or toleranced) structural + numerical equality."""
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        same_struct = np.array_equal(self.rows, other.rows) and np.array_equal(
            self.cols, other.cols
        )
        if not same_struct:
            return False
        if tol == 0.0:
            return np.array_equal(self.vals, other.vals)
        return bool(np.allclose(self.vals, other.vals, rtol=0.0, atol=tol))


def _sort_and_sum_duplicates(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, ncols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort triplets row-major and sum duplicate coordinates.

    Always returns new arrays, never the inputs: fingerprinting freezes
    a carrier's arrays, and that must not reach the caller's own.
    """
    if rows.size == 0:
        return rows.copy(), cols.copy(), vals.copy()
    keys = rows * np.int64(ncols) + cols
    order = np.argsort(keys, kind="stable")
    keys, rows, cols, vals = keys[order], rows[order], cols[order], vals[order]
    unique_mask = np.empty(keys.size, dtype=bool)
    unique_mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=unique_mask[1:])
    if unique_mask.all():
        return rows, cols, vals
    group_ids = np.cumsum(unique_mask) - 1
    summed = np.zeros(group_ids[-1] + 1, dtype=vals.dtype)
    np.add.at(summed, group_ids, vals)
    return rows[unique_mask], cols[unique_mask], summed
