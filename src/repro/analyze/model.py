"""Symbolic access model of a generated CRSD kernel.

The generated codelets only ever index memory with *affine* expressions
of the region-local segment number ``seg`` and the lane id ``lid`` —
every coefficient is a literal baked by the code generator.  This
module rebuilds those expressions directly from the
:class:`~repro.codegen.plan.KernelPlan` (the single source of truth
both renderings are emitted from), producing a list of
:class:`GlobalAccess` / :class:`LocalOp` records per codelet that the
checkers reason over *without executing any kernel*.

An access is ``idx(seg, lane) = base + seg_coeff * seg + lane_coeff *
lane`` with an optional predication guard ``guard_lo <= idx < guard_hi``
and an optional lane bound ``lane < lane_bound`` — exactly the masks the
Python rendering passes to ``gload``/``gstore`` and the OpenCL rendering
expresses as ``if (xi >= 0 && xi < N)`` predication.

Indirect accesses (the scatter kernel's ``x[scatter_colval[...]]``
gather and ``y[scatter_rowno[...]]`` store) go through constant index
buffers whose *contents* are baked at build time; when those arrays are
supplied the model carries the concrete per-lane index grids, otherwise
the accesses are recorded as range-assumed (see
:class:`IndirectAccess`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.plan import KernelPlan, RegionPlan


@dataclass(frozen=True)
class GlobalAccess:
    """One affine global-memory access, over a whole region launch.

    ``idx = base + seg_coeff * seg + lane_coeff * lane`` for
    ``seg in [0, nsegs)`` and ``lane in [0, lanes)``; the lane is
    active iff ``lane < lane_bound`` (when set) and
    ``guard_lo <= idx < guard_hi`` (when set).  Inactive lanes move no
    bytes — that is predication, not divergence.
    """

    buffer: str
    kind: str  # "load" | "store"
    base: int
    seg_coeff: int
    lane_coeff: int
    nsegs: int
    lanes: int
    guard_lo: Optional[int] = None
    guard_hi: Optional[int] = None
    lane_bound: Optional[int] = None
    label: str = ""

    def idx_range(self) -> Tuple[int, int]:
        """Unguarded (min, max) element index over the iteration space."""
        terms = [
            self.seg_coeff * s for s in (0, max(0, self.nsegs - 1))
        ]
        lmax = self.lanes - 1
        if self.lane_bound is not None:
            lmax = min(lmax, self.lane_bound - 1)
        lanes = [self.lane_coeff * l for l in (0, max(0, lmax))]
        vals = [self.base + t + l for t in terms for l in lanes]
        return min(vals), max(vals)

    def guarded_range(self) -> Tuple[int, int]:
        """(min, max) element index an *active* lane can touch."""
        lo, hi = self.idx_range()
        if self.guard_lo is not None:
            lo = max(lo, self.guard_lo)
        if self.guard_hi is not None:
            hi = min(hi, self.guard_hi - 1)
        return lo, hi

    @property
    def guarded(self) -> bool:
        return self.guard_lo is not None or self.guard_hi is not None

    def grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(idx, active)`` over the ``(nsegs, lanes)`` iteration
        space: the element index of every lane and whether it is
        active (lane bound and guards applied)."""
        segs = np.arange(self.nsegs, dtype=np.int64).reshape(-1, 1)
        lanes = np.arange(self.lanes, dtype=np.int64)
        idx = self.base + self.seg_coeff * segs + self.lane_coeff * lanes
        active = np.ones(idx.shape, dtype=bool)
        if self.lane_bound is not None:
            active &= lanes < self.lane_bound
        if self.guard_lo is not None:
            active &= idx >= self.guard_lo
        if self.guard_hi is not None:
            active &= idx < self.guard_hi
        return idx, active


@dataclass(frozen=True)
class IndirectAccess:
    """A data-dependent access through a constant index buffer.

    ``index_grid``/``active`` are ``(nsegs, lanes)`` arrays of the
    concrete element indices and lane activity — derivable statically
    because the index buffer contents are baked at CRSD build time.
    When the index data was not supplied to the model builder both are
    ``None`` and checkers fall back to the declared ``assumed_range``.
    """

    buffer: str
    kind: str
    via: str  # name of the index buffer ("scatter_colval"/"scatter_rowno")
    label: str = ""
    index_grid: Optional[np.ndarray] = None
    active: Optional[np.ndarray] = None
    assumed_range: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class LocalOp:
    """One local-memory operation (or barrier) inside a codelet, in
    program order.  Element index of a store/load is
    ``base + lane_coeff * lane`` for ``lane < lane_bound``."""

    op: str  # "store" | "load" | "barrier"
    tile: str = ""
    base: int = 0
    lane_coeff: int = 0
    lane_bound: int = 0

    def elements(self) -> Tuple[int, int]:
        """(min, max) element touched (stores/loads only)."""
        last = self.base + self.lane_coeff * max(0, self.lane_bound - 1)
        return min(self.base, last), max(self.base, last)


@dataclass
class RegionModel:
    """Model of one region codelet (= one launch sub-range)."""

    region: RegionPlan
    accesses: List[GlobalAccess] = field(default_factory=list)
    #: per-work-group local-memory program, Python rendering semantics
    #: (each AD group allocates its own tile)
    local_ops: List[LocalOp] = field(default_factory=list)
    #: tile name -> element count
    tiles: Dict[str, int] = field(default_factory=dict)
    #: local-memory ops as the OpenCL rendering sees them: every AD
    #: group shares the single ``xtile[max_tile_len]`` declaration
    opencl_local_ops: List[LocalOp] = field(default_factory=list)
    #: flops the codelet reports per work-group
    flops_per_group: int = 0
    #: barriers the Python rendering executes per work-group
    barriers_per_group: int = 0
    #: y rows written per segment: row in [row_base + seg*mrows,
    #: ... + mrows) clipped by nrows — for the batch-safety prover
    y_row_base: int = 0


@dataclass
class ScatterModel:
    """Model of the scatter-ELL kernel launch."""

    num_rows: int
    width: int
    num_groups: int
    lanes: int
    accesses: List[GlobalAccess] = field(default_factory=list)
    indirect: List[IndirectAccess] = field(default_factory=list)
    flops_total: int = 0


@dataclass
class KernelModel:
    """Everything the checkers need, derived from one plan."""

    plan: KernelPlan
    itemsize: int
    index_itemsize: int
    lanes: int
    #: buffer name -> element count
    buffer_sizes: Dict[str, int]
    regions: List[RegionModel] = field(default_factory=list)
    scatter: Optional[ScatterModel] = None

    @property
    def num_dia_groups(self) -> int:
        return self.plan.num_groups

    @property
    def scatter_unindexed(self) -> bool:
        """Whether the scatter kernel's gathers lack their baked index
        data (their traffic is then data-dependent)."""
        return self.scatter is not None and any(
            ind.index_grid is None for ind in self.scatter.indirect)


_REAL_ITEMSIZE = {"double": 8, "fp64": 8, "single": 4, "fp32": 4}


def build_model(
    plan: KernelPlan,
    precision: str = "double",
    scatter_colval: Optional[np.ndarray] = None,
    scatter_rowno: Optional[np.ndarray] = None,
    dia_val_size: Optional[int] = None,
) -> KernelModel:
    """Derive the symbolic access model from ``plan``.

    ``scatter_colval`` is the *device layout* column-major flat array
    (``colval.T.ravel()``, as the runner uploads it) or the original
    ``(num_rows, width)`` matrix — both are accepted.  When omitted,
    the scatter kernel's indirect accesses carry only an assumed range.

    ``dia_val_size`` is the element count of the ``dia_val`` buffer the
    launch actually binds.  It defaults to the sum of the plan's own
    region slabs, which is the whole buffer for a whole-matrix plan; a
    shard sub-plan keeps absolute slab addressing against the full
    matrix's buffer, so its runner passes that buffer's size.  It is
    never derived from the plan's ``slab_base`` values, so a corrupt
    plan cannot certify itself.
    """
    isize = _REAL_ITEMSIZE.get(precision.lower())
    if isize is None:
        raise ValueError(f"unknown precision {precision!r}")
    if dia_val_size is None:
        dia_val_size = sum(r.nrs * r.nnz_per_segment for r in plan.regions)
    sizes = {
        "dia_val": int(dia_val_size),
        "x": plan.ncols * plan.nvec,
        "y": plan.nrows * plan.nvec,
        "scatter_colval": plan.scatter.num_rows * plan.scatter.width,
        "scatter_val": plan.scatter.num_rows * plan.scatter.width,
        "scatter_rowno": plan.scatter.num_rows,
    }
    # scatter index buffers are INDEX_DTYPE (int32) on the device
    index_itemsize = 4
    if scatter_rowno is not None:
        index_itemsize = int(np.asarray(scatter_rowno).dtype.itemsize)
    elif scatter_colval is not None:
        index_itemsize = int(np.asarray(scatter_colval).dtype.itemsize)
    model = KernelModel(
        plan=plan,
        itemsize=isize,
        index_itemsize=index_itemsize,
        lanes=plan.local_size,
        buffer_sizes=sizes,
    )
    for region in plan.regions:
        model.regions.append(_build_region(plan, region, isize))
    if plan.scatter.num_rows:
        model.scatter = _build_scatter(
            plan, isize, index_itemsize, scatter_colval, scatter_rowno
        )
    return model


# ----------------------------------------------------------------------
# region codelets — mirrors codegen.python_codelet statement for
# statement (the emitted masks/clips become guards here)
# ----------------------------------------------------------------------

def _build_region(plan: KernelPlan, region: RegionPlan,
                  isize: int) -> RegionModel:
    m = region.mrows
    rm = RegionModel(region=region, y_row_base=region.start_row)
    shared_written = False  # OpenCL xtile already used by an earlier AD group

    def dia_load(d: int, label: str) -> GlobalAccess:
        return GlobalAccess(
            buffer="dia_val", kind="load",
            base=region.slab_base + d * m,
            seg_coeff=region.nnz_per_segment, lane_coeff=1,
            nsegs=region.nrs, lanes=m, label=label,
        )

    for g in region.groups:
        glabel = f"region {region.index} {g.kind} group d{g.d_first}"
        if plan.nvec > 1:
            for jj in range(g.ndiags):
                d = g.d_first + jj
                rm.accesses.append(dia_load(d, f"{glabel} dia_val[d={d}]"))
                for j in range(plan.nvec):
                    rm.accesses.append(GlobalAccess(
                        buffer="x", kind="load",
                        base=j * plan.ncols + g.colv[jj],
                        seg_coeff=m, lane_coeff=1,
                        nsegs=region.nrs, lanes=m,
                        guard_lo=j * plan.ncols,
                        guard_hi=j * plan.ncols + plan.ncols,
                        label=f"{glabel} x[vec {j}, d={d}]",
                    ))
                rm.flops_per_group += 2 * m * plan.nvec
        elif g.kind == "AD" and plan.use_local_memory:
            n = g.ndiags
            tile_len = m + n - 1
            tile = f"tile_d{g.d_first}"
            rm.tiles[tile] = tile_len
            # staging pass s: x[tbase + s*m + lid] -> tile[s*m + lid],
            # lanes [0, min(tile_len - s*m, m))
            stores = [LocalOp("store", tile, base=0, lane_coeff=1,
                              lane_bound=m)]
            rm.accesses.append(GlobalAccess(
                buffer="x", kind="load",
                base=g.colv[0], seg_coeff=m, lane_coeff=1,
                nsegs=region.nrs, lanes=m,
                guard_lo=0, guard_hi=plan.ncols,
                label=f"{glabel} x tile stage 1",
            ))
            for s in range(1, -(-tile_len // m)):
                extra = min(tile_len - s * m, m)
                rm.accesses.append(GlobalAccess(
                    buffer="x", kind="load",
                    base=g.colv[0] + s * m, seg_coeff=m, lane_coeff=1,
                    nsegs=region.nrs, lanes=m,
                    guard_lo=0, guard_hi=plan.ncols,
                    lane_bound=extra,
                    label=f"{glabel} x tile stage {s + 1}",
                ))
                stores.append(LocalOp("store", tile, base=s * m,
                                      lane_coeff=1, lane_bound=extra))
            loads = []
            for j in range(n):
                d = g.d_first + j
                rm.accesses.append(dia_load(d, f"{glabel} dia_val[d={d}]"))
                loads.append(LocalOp("load", tile, base=j, lane_coeff=1,
                                     lane_bound=m))
                rm.flops_per_group += 2 * m
            # Python rendering: fresh tile per AD group
            rm.local_ops.extend(stores)
            rm.local_ops.append(LocalOp("barrier"))
            rm.local_ops.extend(loads)
            rm.barriers_per_group += 1
            # OpenCL rendering: one shared xtile; restaging it after a
            # previous AD group read it needs a wait-for-reads barrier
            shared = [LocalOp(o.op, "xtile", o.base, o.lane_coeff,
                              o.lane_bound) for o in stores]
            if shared_written:
                rm.opencl_local_ops.append(LocalOp("barrier"))
            rm.opencl_local_ops.extend(shared)
            rm.opencl_local_ops.append(LocalOp("barrier"))
            rm.opencl_local_ops.extend(
                LocalOp(o.op, "xtile", o.base, o.lane_coeff, o.lane_bound)
                for o in loads
            )
            shared_written = True
        else:
            for j in range(g.ndiags):
                d = g.d_first + j
                rm.accesses.append(dia_load(d, f"{glabel} dia_val[d={d}]"))
                rm.accesses.append(GlobalAccess(
                    buffer="x", kind="load",
                    base=g.colv[j], seg_coeff=m, lane_coeff=1,
                    nsegs=region.nrs, lanes=m,
                    guard_lo=0, guard_hi=plan.ncols,
                    label=f"{glabel} x[d={d}]",
                ))
                rm.flops_per_group += 2 * m
    # final y store(s), guarded by row < nrows
    for j in range(plan.nvec):
        rm.accesses.append(GlobalAccess(
            buffer="y", kind="store",
            base=j * plan.nrows + region.start_row,
            seg_coeff=m, lane_coeff=1,
            nsegs=region.nrs, lanes=m,
            guard_hi=j * plan.nrows + plan.nrows,
            label=f"region {region.index} y store"
            + (f" [vec {j}]" if plan.nvec > 1 else ""),
        ))
    return rm


# ----------------------------------------------------------------------
# scatter kernel
# ----------------------------------------------------------------------

def _build_scatter(
    plan: KernelPlan,
    isize: int,
    index_itemsize: int,
    scatter_colval: Optional[np.ndarray],
    scatter_rowno: Optional[np.ndarray],
) -> ScatterModel:
    s = plan.scatter
    ls = plan.local_size
    groups = -(-s.num_rows // ls)
    sm = ScatterModel(num_rows=s.num_rows, width=s.width,
                      num_groups=groups, lanes=ls)
    colval_flat = None
    if scatter_colval is not None:
        cv = np.asarray(scatter_colval)
        if cv.ndim == 2:  # (num_rows, width) host layout -> device layout
            cv = np.ascontiguousarray(cv.T).ravel()
        colval_flat = cv.astype(np.int64, copy=False)
    rowno = None
    if scatter_rowno is not None:
        rowno = np.asarray(scatter_rowno).astype(np.int64, copy=False).ravel()

    # pos = group_id * ls + lid, active iff pos < num_rows
    pos = (np.arange(groups, dtype=np.int64)[:, None] * ls
           + np.arange(ls, dtype=np.int64)[None, :])
    active = pos < s.num_rows
    safe = np.minimum(pos, s.num_rows - 1)

    for k in range(s.width):
        base = k * s.num_rows
        for buf, itemsz in (("scatter_colval", index_itemsize),
                            ("scatter_val", isize)):
            sm.accesses.append(GlobalAccess(
                buffer=buf, kind="load",
                base=base, seg_coeff=ls, lane_coeff=1,
                nsegs=groups, lanes=ls,
                guard_hi=base + s.num_rows,
                label=f"scatter {buf}[k={k}]",
            ))
        for j in range(plan.nvec):
            if colval_flat is not None:
                grid = j * plan.ncols + colval_flat[base + safe]
                sm.indirect.append(IndirectAccess(
                    buffer="x", kind="load", via="scatter_colval",
                    index_grid=grid, active=active,
                    label=f"scatter x gather[k={k}]"
                    + (f" [vec {j}]" if plan.nvec > 1 else ""),
                ))
            else:
                sm.indirect.append(IndirectAccess(
                    buffer="x", kind="load", via="scatter_colval",
                    assumed_range=(j * plan.ncols,
                                   j * plan.ncols + plan.ncols),
                    label=f"scatter x gather[k={k}]"
                    + (f" [vec {j}]" if plan.nvec > 1 else ""),
                ))
        sm.flops_total += 2 * plan.nvec * s.num_rows
    sm.accesses.append(GlobalAccess(
        buffer="scatter_rowno", kind="load",
        base=0, seg_coeff=ls, lane_coeff=1,
        nsegs=groups, lanes=ls,
        guard_hi=s.num_rows,
        label="scatter rowno load",
    ))
    for j in range(plan.nvec):
        if rowno is not None:
            grid = j * plan.nrows + rowno[safe]
            sm.indirect.append(IndirectAccess(
                buffer="y", kind="store", via="scatter_rowno",
                index_grid=grid, active=active,
                label="scatter y store"
                + (f" [vec {j}]" if plan.nvec > 1 else ""),
            ))
        else:
            sm.indirect.append(IndirectAccess(
                buffer="y", kind="store", via="scatter_rowno",
                assumed_range=(j * plan.nrows, j * plan.nrows + plan.nrows),
                label="scatter y store"
                + (f" [vec {j}]" if plan.nvec > 1 else ""),
            ))
    return sm
