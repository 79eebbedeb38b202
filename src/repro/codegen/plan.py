"""Kernel plan: every constant the code generator bakes into a codelet.

The plan is the single source of truth shared by the OpenCL-C and
Python emitters and the analyzer's access model.  It is derived purely
from a :class:`~repro.core.crsd.CRSDMatrix` — i.e. from the information
of Table II: per pattern region the number of row segments (NRS), the
slots per segment (NNzRS), the start row (SR), the diagonal count
(NDias) and each diagonal's column value (Colv).

A :class:`~repro.core.symcrsd.SymCRSDMatrix` gives the same plan shape
(:func:`build_sym_plan`): each region holds one ``kind="SYM"`` group
over the stored half, and every layer reads the plan kind off its
groups (:func:`is_sym_plan`).

:func:`region_terms` is the single source of addresses: it turns a
region's groups into its term list (Fig. 6's unrolled ``case``), and
both emitters, the analyzer's access model and the fused kernel read
their slab runs, x windows and tile slots from it, never from a
group's column values or storage positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.core.crsd import CRSDMatrix
from repro.core.symcrsd import SymCRSDMatrix


@dataclass(frozen=True)
class GroupPlan:
    """One AD/NAD group inside a region codelet.

    Attributes
    ----------
    kind:
        "AD", "NAD" or "SYM".  A SYM group is a symmetric region's
        whole stored half: its ``offsets`` are the stored (``>= 0``)
        ones in storage order, and :func:`region_terms` expands their
        mirror closure.
    d_first:
        Storage position of the group's first diagonal within the
        region (the ``d`` of the paper's location formula).
    offsets:
        The member diagonal offsets in storage order.
    colv:
        Column value of each member at the region's start row
        (``Colv_{p,d}``; may be negative, the kernel clamps).
    """

    kind: str
    d_first: int
    offsets: Tuple[int, ...]
    colv: Tuple[int, ...]

    @property
    def ndiags(self) -> int:
        return len(self.offsets)

    @property
    def tile_len_extra(self) -> int:
        """Extra x elements an AD tile needs beyond mrows (n-1)."""
        return self.ndiags - 1


@dataclass(frozen=True)
class RegionPlan:
    """One pattern region = one switch case = one codelet.

    ``gid_base`` is the paper's running sum ``sum_{i<p} NRS_i``; a
    work-group handles this region iff
    ``gid_base <= group_id < gid_base + nrs``.
    ``slab_base`` is ``sum_{i<p} NRS_i * NNzRS_i``.
    """

    index: int
    gid_base: int
    slab_base: int
    start_row: int
    nrs: int
    mrows: int
    nnz_per_segment: int
    groups: Tuple[GroupPlan, ...]
    signature: str

    @property
    def ndiags(self) -> int:
        return sum(g.ndiags for g in self.groups)

    @property
    def max_tile_len(self) -> int:
        """Largest local-memory x tile any AD group of this region needs."""
        extras = [g.tile_len_extra for g in self.groups if g.kind == "AD"]
        return (self.mrows + max(extras)) if extras else 0


class Term(NamedTuple):
    """One multiply-add of a region codelet: a slab run times an x window.

    At region-local segment ``seg`` and lane ``lid`` the term multiplies
    slab element ``slab + seg * slab_stride + lid`` (read as 0 below
    ``slab_guard``, when set) by x element ``col + seg * mrows + lid``
    (read as 0 outside ``[0, ncols)``).  A term with a ``tile`` slot
    reads that x element through its group's local-memory tile, as
    ``tile[lid + tile]``; the tile holds x from ``col - tile`` on.

    Attributes
    ----------
    group:
        The group the term belongs to.
    d:
        Storage position of the term's diagonal within the region: its
        segment slot (CRSD) or its stored run (SYM).
    offset:
        The diagonal offset the term applies; a SYM mirror term's is
        the negated stored offset.
    """

    group: GroupPlan
    d: int
    offset: int
    slab: int
    slab_stride: int
    slab_guard: Optional[int]
    col: int
    tile: Optional[int]


@dataclass(frozen=True)
class ScatterPlan:
    """The generated ELL kernel over the scatter rows.

    The arrays are laid out column-major (entry k of all rows
    contiguous) so the generated loads coalesce; the loop over the
    ``width`` entries is fully unrolled, which the paper highlights as
    its loop-unrolling optimisation (num_scatter_width is known at
    generation time).
    """

    num_rows: int
    width: int


@dataclass(frozen=True)
class KernelPlan:
    """Complete plan for one matrix's generated SpMV kernel.

    ``nvec > 1`` generates the SpMM variant: each diagonal value is
    loaded once and multiplied against ``nvec`` right-hand sides held
    column-major (``x[j * ncols + i]``), amortising the slab traffic —
    the blocked-Krylov use case.  SpMM codelets use direct x loads
    (no AD tile): with ``nvec`` columns in flight the L2 already holds
    the shared window and per-column tiles would exhaust local memory.
    """

    nrows: int
    ncols: int
    mrows: int
    regions: Tuple[RegionPlan, ...]
    scatter: ScatterPlan
    use_local_memory: bool
    nvec: int = 1

    @property
    def num_groups(self) -> int:
        """Work-groups of the diagonal kernel (one per row segment)."""
        return sum(r.nrs for r in self.regions)

    @property
    def local_size(self) -> int:
        return self.mrows

    @property
    def max_tile_len(self) -> int:
        tiles = [r.max_tile_len for r in self.regions]
        return max(tiles) if tiles else 0


def build_plan(crsd: CRSDMatrix, use_local_memory: bool = True,
               nvec: int = 1) -> KernelPlan:
    """Derive the kernel plan from a CRSD matrix.

    ``use_local_memory=False`` disables the AD-group x-tile staging
    (ablation A1 — the wang3/wang4 discussion of Section IV-A).
    ``nvec > 1`` requests the multi-vector SpMM variant (local-memory
    staging is then disabled; see :class:`KernelPlan`).
    """
    if nvec < 1:
        raise ValueError(f"nvec must be >= 1, got {nvec}")
    if nvec > 1:
        use_local_memory = False
    regions: List[RegionPlan] = []
    gid_base = 0
    slab_base = 0
    for p, region in enumerate(crsd.regions):
        groups: List[GroupPlan] = []
        d = 0
        for g in region.pattern.groups:
            groups.append(
                GroupPlan(
                    kind=g.kind.value,
                    d_first=d,
                    offsets=tuple(g.offsets),
                    colv=tuple(region.start_row + o for o in g.offsets),
                )
            )
            d += g.ndiags
        regions.append(
            RegionPlan(
                index=p,
                gid_base=gid_base,
                slab_base=slab_base,
                start_row=region.start_row,
                nrs=region.num_segments,
                mrows=region.mrows,
                nnz_per_segment=region.nnz_per_segment,
                groups=tuple(groups),
                signature=str(region.pattern),
            )
        )
        gid_base += region.num_segments
        slab_base += region.stored_slots
    return KernelPlan(
        nrows=crsd.nrows,
        ncols=crsd.ncols,
        mrows=crsd.mrows,
        regions=tuple(regions),
        scatter=ScatterPlan(
            num_rows=crsd.num_scatter_rows, width=crsd.num_scatter_width
        ),
        use_local_memory=use_local_memory,
        nvec=nvec,
    )


def region_terms(plan: KernelPlan, region: RegionPlan) -> Tuple[Term, ...]:
    """The terms of ``region``'s codelet, in emission (= accumulation)
    order.

    A CRSD group's diagonal ``d`` is slot ``d`` of every segment's
    ``NNzRS`` slots; an AD group staged through local memory
    (``use_local_memory`` with ``nvec == 1``) reads x through one tile
    over the window at its first column value.  A SYM group's half slab
    is diagonal-major, so stored offset ``+o`` is the run at
    ``runbase``: it feeds the forward term of ``+o`` and, read at the
    partner row's slot ``runbase - o + ...`` behind ``>= runbase``, the
    mirror term of ``-o``.  SYM terms run in the full pattern's
    ascending offset order, the order of the host references.
    """
    m = region.mrows
    terms: List[Term] = []
    for g in region.groups:
        if g.kind == "SYM":
            run = region.nrs * m
            for off in sorted(set(g.offsets) | {-o for o in g.offsets}):
                d = g.offsets.index(abs(off))
                runbase = region.slab_base + d * run
                terms.append(Term(
                    group=g, d=d, offset=off,
                    slab=runbase + min(off, 0), slab_stride=m,
                    slab_guard=runbase if off < 0 else None,
                    col=region.start_row + off, tile=None))
            continue
        staged = g.kind == "AD" and plan.use_local_memory and plan.nvec == 1
        for j, off in enumerate(g.offsets):
            d = g.d_first + j
            terms.append(Term(
                group=g, d=d, offset=off,
                slab=region.slab_base + d * m,
                slab_stride=region.nnz_per_segment, slab_guard=None,
                col=g.colv[0] + j if staged else g.colv[j],
                tile=j if staged else None))
    return tuple(terms)


def is_sym_plan(plan: KernelPlan) -> bool:
    """Whether ``plan`` serves a symmetric half carrier (its groups are
    ``kind="SYM"``); the emitters then name its entries ``sym_*``."""
    return any(g.kind == "SYM" for r in plan.regions for g in r.groups)


def build_sym_plan(sym: SymCRSDMatrix) -> KernelPlan:
    """Derive the kernel plan for a symmetric carrier.

    ``slab_base`` indexes the diagonal-major half slab; each region has
    a single ``kind="SYM"`` group whose offsets are the *stored* ones.
    """
    regions: List[RegionPlan] = []
    gid_base = 0
    slab_base = 0
    for p, region in enumerate(sym.regions):
        stored = sym.stored_offsets(p)
        group = GroupPlan(
            kind="SYM",
            d_first=0,
            offsets=tuple(stored),
            colv=tuple(region.start_row + o for o in stored),
        )
        regions.append(
            RegionPlan(
                index=p,
                gid_base=gid_base,
                slab_base=slab_base,
                start_row=region.start_row,
                nrs=region.num_segments,
                mrows=region.mrows,
                nnz_per_segment=len(stored) * region.mrows,
                groups=(group,),
                signature=f"sym{region.pattern}",
            )
        )
        gid_base += region.num_segments
        slab_base += len(stored) * region.num_segments * region.mrows
    return KernelPlan(
        nrows=sym.nrows,
        ncols=sym.ncols,
        mrows=sym.mrows,
        regions=tuple(regions),
        scatter=ScatterPlan(num_rows=0, width=0),
        use_local_memory=False,
        nvec=1,
    )
