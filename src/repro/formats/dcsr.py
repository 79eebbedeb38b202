"""Delta-compressed CSR (the related work's index compression).

Section V cites Willcock & Lumsdaine's DCSR/RPCSR and Kourtis et al.'s
index/value compression: SpMV is bandwidth-bound, so shrinking the
index stream is itself a speedup.  This module implements the
row-unit variant (Kourtis' CSR-DU):

- column indices are stored as **deltas** between consecutive nonzeros
  of a row; each row carries a 1-byte header choosing the delta width
  (1, 2 or 4 bytes) for the whole row, a 4-byte absolute first column,
  and the packed deltas;
- optionally (CSR-VI) the values are de-duplicated through an indirect
  value table when few distinct values exist.

Decoding is row-unit-wise and vectorised; the format's purpose in this
library is its *footprint*: ``array_inventory`` exposes the encoded
byte stream, so the footprint accounting and the GPU cost model see
the compression the papers exploit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.formats.base import (
    VALUE_DTYPE,
    FormatError,
    SparseFormat,
    check_vector,
)
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix

_WIDTH_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.uint32}


class DeltaCSRMatrix(SparseFormat):
    """CSR with per-row delta-compressed column indices.

    Build with :meth:`from_coo`/:meth:`from_csr`; the constructor takes
    the encoded representation directly.
    """

    name = "dcsr"

    def __init__(
        self,
        indptr: np.ndarray,
        unit_offsets: np.ndarray,
        stream: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
        value_table: Optional[np.ndarray] = None,
    ):
        super().__init__(shape)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.unit_offsets = np.asarray(unit_offsets, dtype=np.int64)
        self.stream = np.asarray(stream, dtype=np.uint8)
        self.data = np.asarray(data)
        self.value_table = (
            None if value_table is None else np.asarray(value_table, dtype=VALUE_DTYPE)
        )
        if self.indptr.size != self.nrows + 1:
            raise FormatError("indptr must have nrows+1 entries")
        if self.unit_offsets.size != self.nrows + 1:
            raise FormatError("unit_offsets must have nrows+1 entries")
        if self.value_table is None:
            if self.data.dtype != VALUE_DTYPE:
                raise FormatError("data must be float64 when no value table is used")
        else:
            if not np.issubdtype(self.data.dtype, np.integer):
                raise FormatError("data must be integer ids with a value table")
        self._decoded: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls, csr: CSRMatrix, compress_values: bool = False,
        value_table_max: int = 4096,
    ) -> "DeltaCSRMatrix":
        """Encode a CSR matrix.

        ``compress_values`` enables the CSR-VI value indirection when
        the matrix has at most ``value_table_max`` distinct values
        (common for stencil/FD matrices with constant coefficients).
        """
        nrows = csr.nrows
        indices = csr.indices.astype(np.int64)
        indptr = csr.indptr.astype(np.int64)
        chunks = []
        unit_offsets = np.zeros(nrows + 1, dtype=np.int64)
        pos = 0
        for i in range(nrows):
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            if cols.size == 0:
                unit_offsets[i + 1] = pos
                continue
            deltas = np.diff(cols)
            if deltas.size and deltas.min() <= 0:
                raise FormatError(f"row {i} columns not strictly increasing")
            width = 1
            if deltas.size:
                mx = int(deltas.max())
                width = 1 if mx < 256 else (2 if mx < 65536 else 4)
            header = np.array([width], dtype=np.uint8)
            first = np.array([cols[0]], dtype="<u4").view(np.uint8)
            body = deltas.astype(_WIDTH_DTYPE[width]).astype(
                {1: "<u1", 2: "<u2", 4: "<u4"}[width]
            ).view(np.uint8)
            chunk = np.concatenate([header, first, body])
            chunks.append(chunk)
            pos += chunk.size
            unit_offsets[i + 1] = pos
        stream = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint8)

        data = csr.data
        table = None
        if compress_values:
            uniq, inv = np.unique(csr.data, return_inverse=True)
            if uniq.size <= value_table_max and uniq.size < csr.nnz:
                table = uniq
                dt = np.uint16 if uniq.size < 65536 else np.uint32
                data = inv.astype(dt)
        return cls(indptr, unit_offsets, stream, data, csr.shape, table)

    @classmethod
    def from_coo(cls, coo: COOMatrix, **kwargs) -> "DeltaCSRMatrix":
        return cls.from_csr(CSRMatrix.from_coo(coo), **kwargs)

    @classmethod
    def from_dense(cls, dense: np.ndarray, **kwargs) -> "DeltaCSRMatrix":
        return cls.from_csr(CSRMatrix.from_dense(dense), **kwargs)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode_indices(self) -> np.ndarray:
        """Reconstruct the full column-index array (cached)."""
        if self._decoded is not None:
            return self._decoded
        out = np.empty(self.nnz, dtype=np.int64)
        for i in range(self.nrows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            if hi == lo:
                continue
            u0 = self.unit_offsets[i]
            width = int(self.stream[u0])
            first = int(self.stream[u0 + 1 : u0 + 5].view("<u4")[0])
            nd = int(hi - lo - 1)
            body = self.stream[u0 + 5 : u0 + 5 + nd * width]
            deltas = body.view({1: "<u1", 2: "<u2", 4: "<u4"}[width]).astype(np.int64)
            cols = np.empty(nd + 1, dtype=np.int64)
            cols[0] = first
            np.cumsum(deltas, out=cols[1:]) if nd else None
            if nd:
                cols[1:] += first
            out[lo:hi] = cols
        self._decoded = out
        return out

    def values(self) -> np.ndarray:
        """Materialised value array (through the table if present)."""
        if self.value_table is None:
            return self.data
        return self.value_table[self.data]

    # ------------------------------------------------------------------
    # SparseFormat surface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = check_vector(x, self.ncols)
        csr = CSRMatrix(self.indptr, self.decode_indices(), self.values(), self.shape)
        return csr.matvec(x, out=out)

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.indptr))
        return COOMatrix(rows, self.decode_indices(), self.values(), self.shape)

    def array_inventory(self) -> Dict[str, np.ndarray]:
        # unit_offsets is a host-side random-access aid (a sequential
        # CSR-DU SpMV walks the stream), so — like ELL's occupancy mask
        # — it is not part of the transferred representation.
        inv = {
            "indptr": self.indptr,
            "stream": self.stream,
            "data": self.data,
        }
        if self.value_table is not None:
            inv["value_table"] = self.value_table
        return inv

    def nbytes(self, value_itemsize: int = 8, index_itemsize: int = 4) -> int:
        """Exact encoded footprint (the stream is bytes, not indices)."""
        total = self.stream.size  # 1 byte per element
        total += self.indptr.size * index_itemsize
        if self.value_table is None:
            total += self.data.size * value_itemsize
        else:
            total += self.data.size * self.data.dtype.itemsize
            total += self.value_table.size * value_itemsize
        return total

    @property
    def compression_ratio(self) -> float:
        """Plain CSR index bytes / compressed index-stream bytes."""
        plain = self.nnz * 4
        return plain / self.stream.size if self.stream.size else 1.0
