"""Symmetric CRSD — the half-pattern carrier for symmetric matrices.

A symmetric diagonal matrix stores every value twice in plain CRSD: the
slab holds both diagonal ``+o`` and its mirror ``-o``.  This carrier
keeps only the diagonals with offset ``>= 0`` and reconstructs the
mirror contribution from the stored run at SpMV time — roughly halving
the value bytes the kernel streams from DRAM, which is the whole game
for a bandwidth-bound kernel.

Layout (deliberately different from the full slab's segment-major
order): per region the half slab is *diagonal-major*.  Stored offset
number ``d`` (offsets ``>= 0`` in ascending order) occupies one
contiguous run of ``NRS * mrows`` values at

    runbase = region_base + d * NRS * mrows

and row ``r`` of the region (flat ``rr = r - SR``) sits at
``runbase + rr``.  Row-contiguity across the whole region is what makes
the transpose read affine: the mirror partner of row ``r`` on full
diagonal ``-o`` is the *stored* slot of row ``r - o`` on diagonal
``+o``, i.e. flat position ``rr - o`` of the same run — a unit-stride
lane access with one lower guard, which the analyzer's affine model can
prove in-bounds and coalesced like any other access.

Bit-identity contract: :meth:`SymCRSDMatrix.from_crsd` copies the runs
*verbatim* from the full slab (fill zeros included) and declines — with
a typed :class:`SymCRSDError` — any matrix where a mirror read could
cross a region boundary.  Under those preconditions every multiplicand
pair of the symmetric kernel is bit-equal to the full kernel's, the
accumulation order (ascending full offsets) is identical, and the
served ``y`` matches ``np.array_equal`` in both precisions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.crsd import CRSDBuildParams, CRSDMatrix
from repro.core.pattern import PatternRegion
from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    FormatError,
    SparseFormat,
    check_vector,
)
from repro.formats.coo import COOMatrix


class SymCRSDError(FormatError):
    """A matrix does not satisfy the symmetric-carrier preconditions."""


class SymCRSDMatrix(SparseFormat):
    """CRSD storing only the diagonals with offset ``>= 0``.

    Build with :meth:`from_coo` (builds the full CRSD first and copies
    the upper runs) or :meth:`from_crsd`.  The ``regions`` tuple keeps
    the *full* patterns — the mirror closure is what the kernels and
    conversions iterate — while ``sym_val`` holds only the stored half.
    """

    name = "symcrsd"

    #: folded into content fingerprints so a symmetric carrier never
    #: shares a plan-cache identity with the equivalent full pattern
    fingerprint_variant = b"sym/v1"

    def __init__(
        self,
        shape: Tuple[int, int],
        params: CRSDBuildParams,
        regions: Tuple[PatternRegion, ...],
        sym_val: np.ndarray,
        nnz: int,
    ):
        super().__init__(shape)
        if self.nrows != self.ncols:
            raise SymCRSDError(
                f"symmetric carrier requires a square matrix, got {shape}"
            )
        self.params = params
        self.regions = tuple(regions)
        self.sym_val = np.asarray(sym_val, dtype=VALUE_DTYPE)
        self._nnz = int(nnz)
        self._stored: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(o for o in r.pattern.offsets if o >= 0) for r in self.regions
        )
        for r, stored in zip(self.regions, self._stored):
            offs = set(r.pattern.offsets)
            if offs != {-o for o in offs}:
                raise SymCRSDError(
                    f"region at SR={r.start_row} has non-mirror-symmetric "
                    f"offsets {sorted(offs)}"
                )
        bases = np.zeros(len(self.regions) + 1, dtype=np.int64)
        np.cumsum(
            [len(s) * r.num_segments * r.mrows
             for r, s in zip(self.regions, self._stored)],
            out=bases[1:],
        )
        self._region_bases = bases
        if self.sym_val.size != int(bases[-1]):
            raise SymCRSDError(
                f"sym_val has {self.sym_val.size} slots, regions describe "
                f"{int(bases[-1])}"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_crsd(cls, full: CRSDMatrix,
                  coo: Optional[COOMatrix] = None) -> "SymCRSDMatrix":
        """Derive the half carrier from a built full CRSD matrix.

        Raises :class:`SymCRSDError` when the matrix is not exactly
        symmetric, has scatter rows, or any mirror partner of a stored
        entry falls outside its own region (the bit-identity
        preconditions).
        """
        if full.nrows != full.ncols:
            raise SymCRSDError(
                f"symmetric carrier requires a square matrix, got {full.shape}"
            )
        if full.num_scatter_rows:
            raise SymCRSDError(
                f"matrix has {full.num_scatter_rows} scatter rows; the "
                "symmetric codelets cover diagonal regions only"
            )
        if coo is None:
            coo = full.to_coo()
        if not coo.is_symmetric(tol=0.0):
            raise SymCRSDError(
                "matrix is not exactly symmetric (pattern and stored "
                "values must both mirror)"
            )
        _check_partners_in_region(full.regions, coo)
        runs: List[np.ndarray] = []
        for p, region in enumerate(full.regions):
            slab = full.region_slab(p)  # (NRS, NDias, mrows)
            for d, off in enumerate(region.pattern.offsets):
                if off >= 0:
                    runs.append(np.ascontiguousarray(slab[:, d, :]).ravel())
        sym_val = (np.concatenate(runs) if runs
                   else np.empty(0, dtype=VALUE_DTYPE))
        return cls(
            shape=full.shape,
            params=full.params,
            regions=full.regions,
            sym_val=sym_val,
            nnz=full.nnz,
        )

    @classmethod
    def from_coo(
        cls, coo: COOMatrix, params: Optional[CRSDBuildParams] = None, **kwargs
    ) -> "SymCRSDMatrix":
        """Build from COO via the full CRSD analysis (same tunables)."""
        if params is None:
            params = CRSDBuildParams(**kwargs)
        elif kwargs:
            raise TypeError("pass either params or keyword tunables, not both")
        full = CRSDMatrix.from_coo(coo, params)
        return cls.from_crsd(full, coo=coo)

    @classmethod
    def from_dense(cls, dense: np.ndarray, **kwargs) -> "SymCRSDMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense), **kwargs)

    def to_crsd(self) -> CRSDMatrix:
        """Expand back to the full carrier (bit-equal slab)."""
        slabs = [self._region_full_slab(p).ravel()
                 for p in range(len(self.regions))]
        dia_val = (np.concatenate(slabs) if slabs
                   else np.empty(0, dtype=VALUE_DTYPE))
        z = np.zeros((0, 0))
        return CRSDMatrix(
            shape=self.shape,
            params=self.params,
            regions=self.regions,
            dia_val=dia_val,
            scatter_rowno=np.empty(0, dtype=INDEX_DTYPE),
            scatter_colval=z.astype(INDEX_DTYPE),
            scatter_val=z.astype(VALUE_DTYPE),
            scatter_occupancy=z.astype(bool),
            nnz=self._nnz,
        )

    # ------------------------------------------------------------------
    # SparseFormat surface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def stored_elements(self) -> int:
        return int(self.sym_val.size)

    @property
    def mrows(self) -> int:
        return self.params.mrows

    @property
    def num_scatter_rows(self) -> int:
        return 0

    def stored_offsets(self, p: int) -> Tuple[int, ...]:
        """Region ``p``'s stored (non-negative, ascending) offsets."""
        return self._stored[p]

    def region_base(self, p: int) -> int:
        """Half-slab offset of region ``p``'s first value."""
        return int(self._region_bases[p])

    def region_run(self, p: int, offset: int) -> np.ndarray:
        """The flat ``(NRS * mrows,)`` run of stored offset ``offset``."""
        region = self.regions[p]
        d = self._stored[p].index(offset)
        n = region.num_segments * region.mrows
        lo = self._region_bases[p] + d * n
        return self.sym_val[lo:lo + n]

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Reference y = A @ x, statement-for-statement the full CRSD
        region matvec over the reconstructed per-diagonal values."""
        x = check_vector(x, self.ncols)
        y = (out if out is not None
             else np.zeros(self.nrows, dtype=np.result_type(self.sym_val, x)))
        if out is not None:
            y[:] = 0.0
        for p, region in enumerate(self.regions):
            slab = self._region_full_slab(p)  # (NRS, NDias, mrows)
            rows = (
                region.start_row
                + np.arange(region.num_segments, dtype=np.int64)[:, None]
                * region.mrows
                + np.arange(region.mrows, dtype=np.int64)[None, :]
            )
            acc = np.zeros(rows.shape, dtype=y.dtype)
            for d, off in enumerate(region.pattern.offsets):
                xi = np.clip(rows + off, 0, self.ncols - 1)
                acc += slab[:, d, :] * x[xi]
            valid = rows < self.nrows
            y[rows[valid]] = acc[valid]
        return y

    def diagonal(self) -> np.ndarray:
        """The main diagonal (for Jacobi preconditioning)."""
        d = np.zeros(self.nrows, dtype=VALUE_DTYPE)
        for p, region in enumerate(self.regions):
            if 0 not in self._stored[p]:
                continue
            run = self.region_run(p, 0)
            rows = region.start_row + np.arange(run.size, dtype=np.int64)
            valid = rows < self.nrows
            d[rows[valid]] = run[valid]
        return d

    def to_coo(self) -> COOMatrix:
        rows_l: List[np.ndarray] = []
        cols_l: List[np.ndarray] = []
        vals_l: List[np.ndarray] = []
        for p, region in enumerate(self.regions):
            slab = self._region_full_slab(p)
            offs = np.asarray(region.pattern.offsets, dtype=np.int64)
            seg_i, dia_i, row_i = np.nonzero(slab)
            rows = region.start_row + seg_i * region.mrows + row_i
            cols = rows + offs[dia_i]
            vals = slab[seg_i, dia_i, row_i]
            inside = (rows < self.nrows) & (cols >= 0) & (cols < self.ncols)
            rows_l.append(rows[inside])
            cols_l.append(cols[inside])
            vals_l.append(vals[inside])
        if rows_l:
            rows = np.concatenate(rows_l)
            cols = np.concatenate(cols_l)
            vals = np.concatenate(vals_l)
        else:
            rows = cols = vals = np.empty(0)
        return COOMatrix(rows, cols, vals, self.shape)

    def array_inventory(self) -> Dict[str, np.ndarray]:
        return {"sym_dia_val": self.sym_val}

    @property
    def fingerprint(self) -> str:
        """Content hash; differs from the full carrier's by the
        ``fingerprint_variant`` domain fold (memoised like every
        carrier's, see :func:`repro.core.serialize.fingerprints`)."""
        from repro.core.serialize import fingerprint

        return fingerprint(self)

    def __repr__(self) -> str:
        return (
            f"<SymCRSDMatrix shape={self.shape} nnz={self.nnz} "
            f"regions={len(self.regions)} stored={self.stored_elements}>"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _region_full_slab(self, p: int) -> np.ndarray:
        """Reconstruct region ``p``'s full ``(NRS, NDias, mrows)`` slab.

        Forward diagonals are the stored runs; each mirror diagonal
        ``-o`` is the ``+o`` run shifted down by ``o`` rows with zero
        fill at the top — exactly the fill slots the full build holds
        there (guaranteed by the build preconditions).
        """
        region = self.regions[p]
        m = region.mrows
        nrs = region.num_segments
        n = nrs * m
        out = np.zeros((nrs, region.ndiags, m), dtype=VALUE_DTYPE)
        for d, off in enumerate(region.pattern.offsets):
            run = self.region_run(p, abs(off))
            if off >= 0:
                flat = run
            else:
                o = -off
                flat = np.zeros(n, dtype=run.dtype)
                if o < n:
                    flat[o:] = run[:n - o]
            out[:, d, :] = flat.reshape(nrs, m)
        return out


def _check_partners_in_region(regions: Tuple[PatternRegion, ...],
                              coo: COOMatrix) -> None:
    """Every strictly-upper entry's two rows must share a region, or a
    mirror read would cross a region boundary and the stored run could
    not supply the transpose contribution."""
    if coo.nnz == 0:
        return
    starts = np.asarray([r.start_row for r in regions], dtype=np.int64)
    ends = np.asarray([r.end_row for r in regions], dtype=np.int64)

    def region_of(rows: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(starts, rows, side="right") - 1
        if (idx < 0).any():
            raise SymCRSDError("entry row precedes every region")
        if (rows >= ends[idx]).any():
            raise SymCRSDError("entry row not covered by any region")
        return idx

    rows = coo.rows.astype(np.int64)
    cols = coo.cols.astype(np.int64)
    upper = cols > rows
    if not upper.any():
        return
    r_reg = region_of(rows[upper])
    c_reg = region_of(cols[upper])
    split = r_reg != c_reg
    if split.any():
        k = int(np.flatnonzero(split)[0])
        r = int(rows[upper][k])
        c = int(cols[upper][k])
        raise SymCRSDError(
            f"entry ({r}, {c}) and its mirror live in different pattern "
            f"regions ({int(r_reg[k])} vs {int(c_reg[k])}); the symmetric "
            "carrier cannot serve cross-region transpose contributions"
        )
