"""CRSD — Compressed Row Segment with Diagonal-pattern (Section II-D).

The format stores two populations separately:

- **Diagonal nonzeros** live in one flat slab ``crsd_dia_val``.  Within
  a pattern region the slab is ordered ``[segment][diagonal][row]``; the
  nonzeros of one diagonal within one segment are contiguous, and one
  segment's storage unit is contiguous — exactly the Fig. 4 layout.
  Index metadata (the pattern list ``matrix`` and ``crsd_dia_index``
  holding SR/NRS/Colv per region) describes the slab; the code
  generator bakes it into the kernel so it is never transferred to the
  device at SpMV time.
- **Scatter rows** — whole rows containing at least one scatter point —
  are duplicated into a small ELL side structure (``scatter_rowno``,
  ``scatter_colval``, ``scatter_val``).  The diagonal kernel runs first
  and the scatter kernel then *overwrites* those rows' results, which
  both preserves the row's sequential floating-point order and keeps
  the diagonal codelets free of special cases.

A build has a pattern half and a values half.  :class:`CRSDLayout`
holds everything the pattern determines — the structure analysis, the
scatter ELL index and the gather maps from canonical COO order into
the two value arrays — and filling it with one matrix's values is a
gather, so same-pattern matrices share one layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.analysis import StructureAnalysis, analyze_structure
from repro.core.pattern import PatternRegion, distinct_patterns, matrix_signature
from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    FormatError,
    SparseFormat,
    check_vector,
)
from repro.formats.coo import COOMatrix

#: wavefront (warp) width the default build aligns row segments to.
DEFAULT_WAVEFRONT = 32


def compatible_wavefront(mrows: int) -> int:
    """The largest wavefront width not exceeding
    :data:`DEFAULT_WAVEFRONT` that divides ``mrows``.

    Entry points taking a free-form ``mrows`` (CLI, bench runner,
    autotuner grids) use this to build a valid
    :class:`CRSDBuildParams` for sub-wavefront segment sizes instead of
    tripping the ``mrows % wavefront_size`` validation.
    """
    return math.gcd(int(mrows), DEFAULT_WAVEFRONT)


@dataclass(frozen=True)
class CRSDBuildParams:
    """Tunables of the CRSD construction (Section II).

    Attributes
    ----------
    mrows:
        Row-segment size; the paper requires a multiple of the
        wavefront size for fully coalesced accesses.
    idle_fill_max_rows:
        A zero run of at most this many rows inside a diagonal is
        zero-filled (the paper fills the single zero at the v43
        position of Fig. 2); a longer run is an idle section that
        breaks the diagonal pattern.  ``None`` means ``mrows``.
    detect_scatter:
        Extract isolated single nonzeros into the ELL side structure.
    wavefront_size:
        Only used for the alignment validation: ``mrows`` must be a
        multiple of it so a segment's lanes fill whole wavefronts.
        Pass a smaller value (e.g. ``wavefront_size=4`` with
        ``mrows=4``) to build deliberately narrow segments.
    """

    mrows: int = 64
    idle_fill_max_rows: int | None = None
    detect_scatter: bool = True
    wavefront_size: int = DEFAULT_WAVEFRONT

    def __post_init__(self):
        if self.mrows <= 0:
            raise ValueError(f"mrows must be positive, got {self.mrows}")
        if self.wavefront_size <= 0:
            raise ValueError(
                f"wavefront_size must be positive, got {self.wavefront_size}"
            )
        if self.mrows % self.wavefront_size != 0:
            raise ValueError(
                f"mrows={self.mrows} is not a multiple of "
                f"wavefront_size={self.wavefront_size}; segment rows must "
                "fill whole wavefronts for coalesced accesses (Section II)"
            )
        if self.idle_fill_max_rows is not None and self.idle_fill_max_rows < 0:
            raise ValueError("idle_fill_max_rows must be >= 0")


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself when already read-only, else a read-only copy."""
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CRSDLayout:
    """The pattern-only half of a CRSD build.

    Everything :meth:`CRSDMatrix.from_coo` derives from the sparsity
    pattern and the build parameters: the structure analysis (regions,
    scatter rows), the slab size, the scatter ELL index arrays, and the
    gather maps from canonical COO order into ``dia_val`` and
    ``scatter_val``.  A same-pattern matrix with new values is then one
    :meth:`fill` away from its CRSD form — the structure is analysed
    once per pattern, as the paper's build-once/apply-many economics
    assume.  Every array is read-only, so one layout can back any number
    of matrices.
    """

    shape: Tuple[int, int]
    params: CRSDBuildParams
    analysis: StructureAnalysis
    #: the canonical COO coordinates the layout was built for
    rows: np.ndarray
    cols: np.ndarray
    #: slots of the flat ``dia_val`` slab
    dia_size: int
    #: ``dia_val[dia_pos] = vals[dia_src]``; other slots are fill zeros
    dia_pos: np.ndarray
    dia_src: np.ndarray
    scatter_rowno: np.ndarray
    scatter_colval: np.ndarray
    scatter_occupancy: np.ndarray
    #: ``scatter_val.ravel()[scatter_pos] = vals[scatter_src]``
    scatter_pos: np.ndarray
    scatter_src: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @classmethod
    def from_coo(cls, coo: COOMatrix, params: CRSDBuildParams) -> "CRSDLayout":
        """Analyse ``coo``'s pattern under ``params`` (values unused)."""
        analysis = analyze_structure(
            coo,
            mrows=params.mrows,
            idle_fill_max_rows=params.idle_fill_max_rows,
            detect_scatter=params.detect_scatter,
        )
        for a in (analysis.offsets, analysis.presence,
                  analysis.scatter_mask, analysis.scatter_rows):
            a.flags.writeable = False
        dia_pos, dia_src = _slab_map(coo, analysis)
        rowno, colval, occ, scatter_pos, scatter_src = _scatter_map(
            coo, analysis.scatter_rows)
        return cls(
            shape=coo.shape, params=params, analysis=analysis,
            rows=_readonly(coo.rows), cols=_readonly(coo.cols),
            dia_size=sum(r.stored_slots for r in analysis.regions),
            dia_pos=_readonly(dia_pos), dia_src=_readonly(dia_src),
            scatter_rowno=_readonly(rowno), scatter_colval=_readonly(colval),
            scatter_occupancy=_readonly(occ),
            scatter_pos=_readonly(scatter_pos),
            scatter_src=_readonly(scatter_src),
        )

    def check(self, coo: COOMatrix) -> None:
        """Raise :class:`ValueError` unless ``coo`` has this layout's
        shape, nnz and coordinates."""
        same = (coo.shape == self.shape and coo.nnz == self.nnz
                and np.array_equal(coo.rows, self.rows)
                and np.array_equal(coo.cols, self.cols))
        if not same:
            raise ValueError(
                f"CRSD layout built for a {self.shape} pattern with "
                f"{self.nnz} nonzeros does not match the {coo.shape} "
                f"matrix with {coo.nnz} nonzeros")

    def fill(self, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh ``(dia_val, scatter_val)`` holding ``vals`` (canonical
        COO order)."""
        dia_val = np.zeros(self.dia_size, dtype=VALUE_DTYPE)
        dia_val[self.dia_pos] = vals[self.dia_src]
        scatter_val = np.zeros(self.scatter_colval.shape, dtype=VALUE_DTYPE)
        scatter_val.reshape(-1)[self.scatter_pos] = vals[self.scatter_src]
        return dia_val, scatter_val


class CRSDMatrix(SparseFormat):
    """A matrix stored in CRSD format.

    Build with :meth:`from_coo` / :meth:`from_dense`; direct
    construction from pre-computed arrays is supported for tests and
    deserialization.
    """

    name = "crsd"

    def __init__(
        self,
        shape: Tuple[int, int],
        params: CRSDBuildParams,
        regions: Tuple[PatternRegion, ...],
        dia_val: np.ndarray,
        scatter_rowno: np.ndarray,
        scatter_colval: np.ndarray,
        scatter_val: np.ndarray,
        scatter_occupancy: np.ndarray,
        nnz: int,
        layout: Optional[CRSDLayout] = None,
    ):
        super().__init__(shape)
        self.params = params
        self.regions = tuple(regions)
        self.dia_val = np.asarray(dia_val, dtype=VALUE_DTYPE)
        self.scatter_rowno = np.asarray(scatter_rowno, dtype=INDEX_DTYPE)
        self.scatter_colval = np.asarray(scatter_colval, dtype=INDEX_DTYPE)
        self.scatter_val = np.asarray(scatter_val, dtype=VALUE_DTYPE)
        self.scatter_occupancy = np.asarray(scatter_occupancy, dtype=bool)
        self._nnz = int(nnz)
        #: the pattern layout this matrix was filled from (``None`` for
        #: a matrix built from pre-computed arrays)
        self.layout = layout

        expected = sum(r.stored_slots for r in self.regions)
        if self.dia_val.size != expected:
            raise FormatError(
                f"dia_val has {self.dia_val.size} slots, regions describe {expected}"
            )
        if not (
            self.scatter_colval.shape
            == self.scatter_val.shape
            == self.scatter_occupancy.shape
        ):
            raise FormatError("scatter arrays disagree in shape")
        if self.scatter_colval.ndim != 2 or (
            self.scatter_colval.shape[0] != self.scatter_rowno.size
        ):
            raise FormatError("scatter arrays must be (num_scatter_rows, width)")
        # region bases into the flat slab
        bases = np.zeros(len(self.regions) + 1, dtype=np.int64)
        np.cumsum([r.stored_slots for r in self.regions], out=bases[1:])
        self._region_bases = bases

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        coo: COOMatrix,
        params: Optional[CRSDBuildParams] = None,
        *,
        layout: Optional[CRSDLayout] = None,
        **kwargs,
    ) -> "CRSDMatrix":
        """Store a COO matrix in CRSD format.

        Keyword arguments are forwarded to :class:`CRSDBuildParams`
        when ``params`` is not given, e.g. ``from_coo(coo, mrows=32)``.

        ``layout`` is the :class:`CRSDLayout` of a matrix with the same
        pattern: the structure analysis is skipped and ``coo``'s values
        are gathered into the layout's slab.  ``ValueError`` if ``coo``
        differs from the layout in shape, nnz or coordinates (or
        ``params`` from its build parameters).
        """
        if kwargs and params is not None:
            raise TypeError("pass either params or keyword tunables, not both")
        if layout is None:
            layout = CRSDLayout.from_coo(
                coo, params if params is not None else CRSDBuildParams(**kwargs))
        else:
            if kwargs:
                raise TypeError("a layout fixes the build parameters")
            if params is not None and params != layout.params:
                raise ValueError(
                    f"params {params} disagree with the layout's {layout.params}")
            layout.check(coo)
        dia_val, scatter_val = layout.fill(coo.vals)
        return cls(
            shape=coo.shape,
            params=layout.params,
            regions=layout.analysis.regions,
            dia_val=dia_val,
            scatter_rowno=layout.scatter_rowno,
            scatter_colval=layout.scatter_colval,
            scatter_val=scatter_val,
            scatter_occupancy=layout.scatter_occupancy,
            nnz=coo.nnz,
            layout=layout,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, **kwargs) -> "CRSDMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense), **kwargs)

    # ------------------------------------------------------------------
    # SparseFormat surface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def stored_elements(self) -> int:
        return int(self.dia_val.size + self.scatter_val.size)

    @property
    def mrows(self) -> int:
        return self.params.mrows

    @property
    def analysis(self) -> Optional[StructureAnalysis]:
        """The structure analysis behind :attr:`layout` (if any)."""
        return self.layout.analysis if self.layout is not None else None

    @property
    def num_scatter_rows(self) -> int:
        return int(self.scatter_rowno.size)

    @property
    def num_scatter_width(self) -> int:
        return int(self.scatter_colval.shape[1]) if self.scatter_colval.ndim == 2 else 0

    @property
    def num_dia_patterns(self) -> int:
        """Count of *distinct* diagonal patterns (paper's
        num_dia_patterns; e.g. 24 for s3dkt3m2-like structure)."""
        return len(distinct_patterns(self.regions))

    @property
    def matrix_signature(self) -> str:
        """The ``matrix = {...}`` pattern list of Section II-B."""
        return matrix_signature(self.regions)

    def region_base(self, p: int) -> int:
        """Slab offset of region ``p``'s first value."""
        return int(self._region_bases[p])

    def region_slab(self, p: int) -> np.ndarray:
        """Region ``p``'s values as a ``(NRS, NDias, mrows)`` view."""
        r = self.regions[p]
        lo = self._region_bases[p]
        return self.dia_val[lo : lo + r.stored_slots].reshape(
            r.num_segments, r.ndiags, r.mrows
        )

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Reference y = A @ x: diagonal part first, then the scatter
        kernel overwrites scatter rows (Section III-B execution order)."""
        x = check_vector(x, self.ncols)
        y = out if out is not None else np.zeros(self.nrows, dtype=np.result_type(self.dia_val, x))
        if out is not None:
            y[:] = 0.0
        for p, region in enumerate(self.regions):
            self._region_matvec(p, region, x, y)
        self._scatter_overwrite(x, y)
        return y

    def to_coo(self) -> COOMatrix:
        """Reconstruct the mathematical matrix.

        Non-scatter rows come from the diagonal slab (nonzero slots);
        scatter rows come from the ELL side structure, which stores them
        authoritatively and in full.
        """
        rows_l: List[np.ndarray] = []
        cols_l: List[np.ndarray] = []
        vals_l: List[np.ndarray] = []
        scatter_set = set(self.scatter_rowno.tolist())
        for p, region in enumerate(self.regions):
            slab = self.region_slab(p)  # (NRS, NDias, mrows)
            offs = np.asarray(region.pattern.offsets, dtype=np.int64)
            seg_i, dia_i, row_i = np.nonzero(slab)
            rows = region.start_row + seg_i * region.mrows + row_i
            cols = rows + offs[dia_i]
            vals = slab[seg_i, dia_i, row_i]
            inside = (
                (rows < self.nrows)
                & (cols >= 0)
                & (cols < self.ncols)
                & ~np.isin(rows, self.scatter_rowno)
            )
            rows_l.append(rows[inside])
            cols_l.append(cols[inside])
            vals_l.append(vals[inside])
        if self.num_scatter_rows:
            occ = self.scatter_occupancy
            r2d = np.broadcast_to(
                self.scatter_rowno.astype(np.int64)[:, None], occ.shape
            )
            rows_l.append(r2d[occ])
            cols_l.append(self.scatter_colval.astype(np.int64)[occ])
            vals_l.append(self.scatter_val[occ])
        if rows_l:
            rows = np.concatenate(rows_l)
            cols = np.concatenate(cols_l)
            vals = np.concatenate(vals_l)
        else:
            rows = cols = vals = np.empty(0)
        return COOMatrix(rows, cols, vals, self.shape)

    def array_inventory(self) -> Dict[str, np.ndarray]:
        """Device-resident arrays.

        With generated codelets only the value slabs travel to the
        device (the index metadata is baked into the kernel source) —
        this is the paper's memory-pressure reduction.  The interpreted
        fallback additionally reads :meth:`crsd_dia_index`.
        """
        return {
            "crsd_dia_val": self.dia_val,
            "scatter_rowno": self.scatter_rowno,
            "scatter_colval": self.scatter_colval,
            "scatter_val": self.scatter_val,
        }

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Stable content hash of the mathematical matrix.

        Equals :func:`repro.core.serialize.fingerprint` of the COO this
        format was built from, so serving-layer cache keys and profile
        artifacts agree on the matrix identity regardless of carrier.
        Memoised by :func:`~repro.core.serialize.fingerprints`, which
        also freezes this carrier's arrays.
        """
        from repro.core.serialize import fingerprint

        return fingerprint(self)

    def __repr__(self) -> str:
        return (
            f"<CRSDMatrix shape={self.shape} nnz={self.nnz} "
            f"regions={len(self.regions)} "
            f"scatter_rows={self.num_scatter_rows} "
            f"fp={self.fingerprint}>"
        )

    # ------------------------------------------------------------------
    # index metadata (Fig. 4)
    # ------------------------------------------------------------------
    def crsd_dia_index(self) -> np.ndarray:
        """The ``crsd_dia_index`` array of Fig. 4.

        Per region: ``SR, NRS`` then the column values — one per NAD
        diagonal but only the *first* column of each AD group.
        """
        out: List[int] = []
        for region in self.regions:
            out.append(region.start_row)
            out.append(region.num_segments)
            for g in region.pattern.groups:
                heads = g.offsets if g.kind.value == "NAD" else g.offsets[:1]
                out.extend(region.start_row + o for o in heads)
        return np.asarray(out, dtype=INDEX_DTYPE)

    def fig4_dump(self) -> str:
        """Human-readable rendering in the style of Fig. 4."""
        lines = [
            f"num_scatter_rows = {self.num_scatter_rows};",
            f"num_dia_patterns = {self.num_dia_patterns};",
            f"num_scatter_width = {self.num_scatter_width};",
            "",
            f"matrix = {self.matrix_signature}",
            "crsd_dia_index = {"
            + ", ".join(str(int(v)) for v in self.crsd_dia_index())
            + "}",
        ]
        chunks = []
        for p, region in enumerate(self.regions):
            slab = self.region_slab(p)
            seg_strs = []
            for s in range(region.num_segments):
                unit_strs = []
                pos = 0
                for g in region.pattern.groups:
                    unit = slab[s, pos : pos + g.ndiags].ravel()
                    unit_strs.append("(" + ",".join(_fmt(v) for v in unit) + ")")
                    pos += g.ndiags
                seg_strs.append("{" + ",".join(unit_strs) + "}")
            chunks.append(", ".join(seg_strs))
        lines.append("crsd_dia_val = {" + " | ".join(chunks) + "}")
        lines.append(
            "scatter_rowno = {"
            + ", ".join(f"R{int(r)}" for r in self.scatter_rowno)
            + "}"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # statistics used by the performance model and the benches
    # ------------------------------------------------------------------
    @property
    def fill_zeros(self) -> int:
        """Explicit zeros stored in the diagonal slab (padding + idle
        fill + scatter removals)."""
        return int(self.dia_val.size - np.count_nonzero(self.dia_val))

    @property
    def adjacent_slot_fraction(self) -> float:
        """Fraction of diagonal slots living in AD groups — the share of
        the work that benefits from local-memory reuse of ``x``."""
        total = ad = 0
        for r in self.regions:
            total += r.stored_slots
            ad += r.num_segments * r.pattern.n_adjacent_diags * r.mrows
        return ad / total if total else 0.0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _region_matvec(
        self, p: int, region: PatternRegion, x: np.ndarray, y: np.ndarray
    ) -> None:
        slab = self.region_slab(p)  # (NRS, NDias, mrows)
        rows = (
            region.start_row
            + np.arange(region.num_segments, dtype=np.int64)[:, None] * region.mrows
            + np.arange(region.mrows, dtype=np.int64)[None, :]
        )  # (NRS, mrows)
        acc = np.zeros(rows.shape, dtype=y.dtype)
        for d, off in enumerate(region.pattern.offsets):
            xi = np.clip(rows + off, 0, self.ncols - 1)
            acc += slab[:, d, :] * x[xi]
        valid = rows < self.nrows
        y[rows[valid]] = acc[valid]

    def _scatter_overwrite(self, x: np.ndarray, y: np.ndarray) -> None:
        if not self.num_scatter_rows:
            return
        vals = self.scatter_val * x[self.scatter_colval.astype(np.int64)]
        y[self.scatter_rowno.astype(np.int64)] = vals.sum(axis=1)


def _slab_map(
    coo: COOMatrix, analysis: StructureAnalysis
) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, sources)``: the ``crsd_dia_val`` slot of every
    non-scatter entry and its index in canonical COO order."""
    pos_l: List[np.ndarray] = []
    src_l: List[np.ndarray] = []
    if coo.nnz and analysis.regions:
        src = np.flatnonzero(~analysis.scatter_mask)
        rows = coo.rows.astype(np.int64)[src]
        offs = coo.cols.astype(np.int64)[src] - rows

        # sort the diagonal entry stream by (offset, row) for slice lookup
        order = np.lexsort((rows, offs))
        src, rows, offs = src[order], rows[order], offs[order]

        base = 0
        for region in analysis.regions:
            mrows = region.mrows
            for d, off in enumerate(region.pattern.offsets):
                lo = np.searchsorted(offs, off, side="left")
                hi = np.searchsorted(offs, off, side="right")
                r_lo = lo + np.searchsorted(rows[lo:hi], region.start_row, side="left")
                r_hi = lo + np.searchsorted(rows[lo:hi], region.end_row, side="left")
                if r_hi > r_lo:
                    rr = rows[r_lo:r_hi] - region.start_row
                    pos_l.append(
                        base
                        + rr // mrows * region.nnz_per_segment
                        + d * mrows
                        + rr % mrows
                    )
                    src_l.append(src[r_lo:r_hi])
            base += region.stored_slots
    if not pos_l:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pos_l), np.concatenate(src_l)


def _scatter_map(
    coo: COOMatrix, scatter_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ELL side structure holding the *complete* scatter rows:
    ``(rowno, colval, occupancy, positions, sources)``, where
    ``positions`` index the flattened ``(rows, width)`` value array and
    ``sources`` the canonical COO order."""
    if scatter_rows.size == 0:
        z = np.zeros((0, 0))
        e = np.empty(0, dtype=np.int64)
        return (np.empty(0, dtype=INDEX_DTYPE), z.astype(INDEX_DTYPE),
                z.astype(bool), e, e)
    src = np.flatnonzero(np.isin(coo.rows.astype(np.int64), scatter_rows))
    rows = coo.rows.astype(np.int64)[src]
    local = np.searchsorted(scatter_rows, rows)
    lengths = np.bincount(local, minlength=scatter_rows.size)
    width = int(lengths.max())
    colval = np.zeros((scatter_rows.size, width), dtype=INDEX_DTYPE)
    occ = np.zeros((scatter_rows.size, width), dtype=bool)
    starts = np.zeros(scatter_rows.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    within = np.arange(rows.size) - starts[local]
    colval[local, within] = coo.cols[src]
    occ[local, within] = True
    return (scatter_rows.astype(INDEX_DTYPE), colval, occ,
            local * width + within, src)


def _fmt(v: float) -> str:
    return "0" if v == 0 else f"{v:g}"
