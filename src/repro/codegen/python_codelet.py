"""Python rendering of the generated CRSD SpMV kernel.

The emitted source contains one codelet function per pattern region —
with the slab base, ``seg*NNzRS`` stride, per-diagonal ``d*mrows``
displacement and every ``Colv`` baked in as integer literals — plus a
dispatcher implementing the paper's work-group membership condition,
and the fully unrolled scatter-ELL kernel.  The source is compiled with
``compile()``/``exec`` at run time; this is the host-language analogue
of OpenCL's runtime kernel compilation that the whole design leans on.

FLOP-counting convention: ``ctx.flops`` counts executed multiply-adds
on stored slots (explicit fill zeros included — the device really
executes them); lanes predicated off by bounds masks are not counted.
The GFLOPS *metric* divides ``2·nnz`` by time, so fill work hurts, as
it should.

Each kernel is emitted twice: the per-group form (``_codelet_p0``,
``crsd_dia_kernel``, ...) runs under the sequential reference engine
(:func:`~repro.ocl.executor.launch`, one work-group per invocation),
and a ``*_batched`` form runs under
:func:`~repro.ocl.executor.launch_batched` where ``ctx.group_id`` is a
``(num_groups, 1)`` column and every statement operates on the whole
``(num_segments, mrows)`` lane grid at once.  The statement text is
deliberately identical between the two forms wherever broadcasting
makes it shape-generic; only the accumulator shapes and the per-region
flop literals (``x NRS``) differ.

Each codelet renders its region's term list
(:func:`~repro.codegen.plan.region_terms`) in one loop, one slab load
and one x load (or tile read) per term.  A symmetric half-storage plan
(``kind="SYM"`` groups, from :func:`~repro.codegen.plan.build_sym_plan`)
goes through the same module, codelets and dispatchers: its terms are
a forward and a guarded mirror term per stored diagonal, and its
entries are named ``sym_dia_kernel``/``sym_dia_kernel_batched``, the
names its spans and fault sites carry.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.codegen.plan import (
    KernelPlan,
    RegionPlan,
    Term,
    is_sym_plan,
    region_terms,
)
from repro.codegen.validator import validate_python_source


@dataclass
class CompiledKernel:
    """A generated-and-compiled CRSD kernel pair.

    Attributes
    ----------
    plan:
        The originating plan.
    source:
        The generated Python source (inspectable, testable).
    dia_kernel:
        ``f(ctx, dia_val, x, y)`` — the diagonal-pattern kernel
        (per-group form, for :func:`~repro.ocl.executor.launch`).
    scatter_kernel:
        ``f(ctx, scatter_colval, scatter_val, scatter_rowno, x, y)`` or
        ``None`` when the matrix has no scatter rows.
    dia_kernel_batched / scatter_kernel_batched:
        The same kernels in segment-batched form, for
        :func:`~repro.ocl.executor.launch_batched`.
    """

    plan: KernelPlan
    source: str
    dia_kernel: Callable
    scatter_kernel: Optional[Callable]
    dia_kernel_batched: Callable
    scatter_kernel_batched: Optional[Callable]


class _Writer:
    """Tiny indented source writer."""

    def __init__(self):
        self._buf = io.StringIO()
        self._level = 0

    def line(self, text: str = "") -> "_Writer":
        self._buf.write("    " * self._level + text + "\n")
        return self

    def indent(self) -> "_Writer":
        self._level += 1
        return self

    def dedent(self) -> "_Writer":
        self._level -= 1
        return self

    def getvalue(self) -> str:
        return self._buf.getvalue()


def _dia_entry(plan: KernelPlan) -> str:
    """Name of the diagonal kernel's per-group entry."""
    return "sym_dia_kernel" if is_sym_plan(plan) else "crsd_dia_kernel"


def expected_functions(plan: KernelPlan) -> List[str]:
    """Function inventory the emitted module must define for ``plan``."""
    entry = _dia_entry(plan)
    names = [entry, f"{entry}_batched"]
    for i in range(len(plan.regions)):
        names += [f"_codelet_p{i}", f"_codelet_p{i}_batched"]
    if plan.scatter.num_rows:
        names += ["crsd_scatter_kernel", "crsd_scatter_kernel_batched"]
    return names


def generate_python_kernel(plan: KernelPlan) -> CompiledKernel:
    """Emit, validate and compile the Python kernel for ``plan``.

    The emitted source is checked structurally (it must parse and
    define every codelet the plan promises, in per-group and batched
    form).  The runners' ``strict`` mode runs the static analyzer
    before this, on their own device and precision.
    """
    src = emit_python_source(plan)
    validate_python_source(src, expected=expected_functions(plan))
    namespace: dict = {"np": np, "bisect_right": __import__("bisect").bisect_right}
    exec(compile(src, "<crsd-generated-kernel>", "exec"), namespace)
    entry = _dia_entry(plan)
    return CompiledKernel(
        plan=plan,
        source=src,
        dia_kernel=namespace[entry],
        scatter_kernel=namespace.get("crsd_scatter_kernel"),
        dia_kernel_batched=namespace[f"{entry}_batched"],
        scatter_kernel_batched=namespace.get("crsd_scatter_kernel_batched"),
    )


def emit_python_source(plan: KernelPlan) -> str:
    """Emit the Python source (without compiling) — used by tests and
    the inspect_codegen example."""
    w = _Writer()
    w.line("# Generated CRSD SpMV kernel (Python rendering).")
    w.line(f"# nrows={plan.nrows} ncols={plan.ncols} mrows={plan.mrows} "
           f"regions={len(plan.regions)} local_memory={plan.use_local_memory}")
    w.line()
    for region in plan.regions:
        _emit_region_codelet(w, plan, region)
    _emit_dispatcher(w, plan)
    if plan.scatter.num_rows:
        _emit_scatter_kernel(w, plan)
    # segment-batched forms (launch_batched)
    for region in plan.regions:
        _emit_region_codelet(w, plan, region, batched=True)
    _emit_dispatcher_batched(w, plan)
    if plan.scatter.num_rows:
        _emit_scatter_kernel(w, plan, batched=True)
    return w.getvalue()


# ----------------------------------------------------------------------
# region codelets
# ----------------------------------------------------------------------

def _emit_region_codelet(w: _Writer, plan: KernelPlan, region: RegionPlan,
                         batched: bool = False) -> None:
    """Emit one region codelet: its term list, unrolled.

    The batched form is the same statement list over a
    ``(num_segments, mrows)`` grid: ``seg`` is a ``(NRS, 1)`` column
    (``ctx.group_id`` of a :class:`~repro.ocl.executor.BatchCtx`) and
    broadcasts through every index expression unchanged; only the
    accumulator shape and the flop literals (one call for all NRS
    segments) differ.
    """
    m = region.mrows
    cmax = plan.ncols - 1
    suffix = "_batched" if batched else ""
    w.line(f"def _codelet_p{region.index}{suffix}(ctx, dia_val, xb, yb):")
    w.indent()
    w.line(f'"""Pattern {region.signature}: SR={region.start_row}, '
           f'NRS={region.nrs}, NNzRS={region.nnz_per_segment}."""')
    w.line("lid = ctx.lid")
    w.line(f"seg = ctx.group_id - {region.gid_base}")
    shape = f"(ctx.num_groups, {m})" if batched else str(m)
    if plan.nvec == 1:
        w.line(f"acc = np.zeros({shape}, dtype=xb.data.dtype)")
    else:
        for j in range(plan.nvec):
            w.line(f"acc{j} = np.zeros({shape}, dtype=xb.data.dtype)")
    for g, terms in groupby(region_terms(plan, region),
                            key=attrgetter("group")):
        terms = tuple(terms)
        if terms[0].tile is not None:
            _emit_tile_stage(w, plan, region, terms)
        elif g.kind != "SYM":
            vecs = f" x {plan.nvec} vectors" if plan.nvec > 1 else ""
            w.line(f"# {g.kind} group: offsets {list(g.offsets)}{vecs}")
        for t in terms:
            # a CRSD slot shows its segment base and slot displacement
            # apart, like the OpenCL rendering (Fig. 6)
            if g.kind != "SYM":
                w.line(f"v = ctx.gload(dia_val, {region.slab_base} + seg * "
                       f"{t.slab_stride} + {t.slab - region.slab_base} + lid)")
            elif t.slab_guard is None:
                w.line(f"# stored offset {t.offset}")
                w.line(f"v = ctx.gload(dia_val, {t.slab} + seg * "
                       f"{t.slab_stride} + lid)")
            else:
                w.line(f"# full offset {t.offset}: mirror of stored "
                       f"+{-t.offset}")
                w.line(f"si = {t.slab} + seg * {t.slab_stride} + lid")
                w.line(f"ms = si >= {t.slab_guard}")
                w.line(f"v = ctx.gload(dia_val, np.maximum(si, "
                       f"{t.slab_guard}), mask=ms)")
            if t.tile is not None:
                w.line(f"acc = acc + v * ctx.lload(tile, lid + {t.tile})")
            else:
                w.line(f"xi = {t.col} + seg * {m} + lid")
                w.line(f"mx = (xi >= 0) & (xi < {plan.ncols})")
                if plan.nvec == 1:
                    w.line(f"acc = acc + v * ctx.gload(xb, "
                           f"np.clip(xi, 0, {cmax}), mask=mx)")
                else:
                    w.line(f"xc = np.clip(xi, 0, {cmax})")
                    for j in range(plan.nvec):
                        w.line(f"acc{j} = acc{j} + v * ctx.gload(xb, "
                               f"{j * plan.ncols} + xc, mask=mx)")
            w.line(f"ctx.flops({_flops_arg(2 * m * plan.nvec, batched)})")
    w.line(f"row = {region.start_row} + seg * {m} + lid")
    w.line(f"ok = row < {plan.nrows}")
    if plan.nvec == 1:
        w.line(f"ctx.gstore(yb, np.minimum(row, {plan.nrows - 1}), acc, mask=ok)")
    else:
        for j in range(plan.nvec):
            w.line(
                f"ctx.gstore(yb, {j * plan.nrows} + "
                f"np.minimum(row, {plan.nrows - 1}), acc{j}, mask=ok)"
            )
    w.dedent()
    w.line()


def _flops_arg(n: int, batched: bool) -> str:
    """Per-group codelets report ``n`` flops once per work-group; the
    batched form makes one call covering all its segments."""
    return f"{n} * ctx.num_groups" if batched else str(n)


def _emit_tile_stage(w: _Writer, plan: KernelPlan, region: RegionPlan,
                     terms: Tuple[Term, ...]) -> None:
    """Stage an AD group's shared x window into local memory once, for
    all its terms to read (Fig. 5)."""
    m = region.mrows
    tile_len = m + len(terms) - 1
    cmax = plan.ncols - 1
    colv = terms[0].col - terms[0].tile
    w.line(f"# AD group: offsets {list(terms[0].group.offsets)}, "
           f"Colv={colv}, x tile of {tile_len} elements in local memory")
    w.line(f"tile = ctx.alloc_local({tile_len}, xb.data.dtype)")
    w.line(f"tbase = {colv} + seg * {m}")
    w.line("i0 = tbase + lid")
    w.line(f"m0 = (i0 >= 0) & (i0 < {plan.ncols})")
    w.line(f"ctx.lstore(tile, lid, ctx.gload(xb, np.clip(i0, 0, {cmax}), mask=m0))")
    # wide AD groups (ndiags > mrows + 1) need more than one extra
    # staging pass: each pass fills the next mrows-sized tile slice
    for s in range(1, -(-tile_len // m)):
        extra = min(tile_len - s * m, m)
        w.line(f"i1 = tbase + {s * m} + lid")
        w.line(f"lane = lid < {extra}")
        w.line(f"m1 = lane & (i1 >= 0) & (i1 < {plan.ncols})")
        w.line(
            f"ctx.lstore(tile, np.minimum({s * m} + lid, {tile_len - 1}), "
            f"ctx.gload(xb, np.clip(i1, 0, {cmax}), mask=m1), mask=lane)"
        )
    w.line("ctx.barrier()")


# ----------------------------------------------------------------------
# dispatcher and scatter kernel
# ----------------------------------------------------------------------

def _emit_dispatcher(w: _Writer, plan: KernelPlan) -> None:
    """The paper's membership condition
    ``sum_{i<p} NRS_i <= group_id < sum_{i<=p} NRS_i`` as a baked
    boundary table (the OpenCL rendering shows the equivalent
    switch)."""
    bounds = []
    acc = 0
    for r in plan.regions:
        acc += r.nrs
        bounds.append(acc)
    w.line(f"_GID_BOUNDS = {tuple(bounds)!r}")
    w.line()
    w.line(f"def {_dia_entry(plan)}(ctx, dia_val, xb, yb):")
    w.indent()
    w.line('"""Diagonal-pattern part: one work-group per row segment."""')
    if not plan.regions:
        w.line("return")
        w.dedent()
        w.line()
        return
    w.line("p = bisect_right(_GID_BOUNDS, ctx.group_id)")
    for i in range(len(plan.regions)):
        kw = "if" if i == 0 else "elif"
        w.line(f"{kw} p == {i}:")
        w.indent().line(f"_codelet_p{i}(ctx, dia_val, xb, yb)").dedent()
    w.dedent()
    w.line()


def _emit_dispatcher_batched(w: _Writer, plan: KernelPlan) -> None:
    """Batched dispatcher: the region boundaries partition the group-id
    grid statically, so instead of a per-group membership test each
    region codelet runs once over its whole contiguous id range (a
    child :class:`~repro.ocl.executor.BatchCtx`).  Each child is
    finalized before the next region starts so the L2 replay keeps the
    per-group launch order."""
    w.line(f"def {_dia_entry(plan)}_batched(ctx, dia_val, xb, yb):")
    w.indent()
    w.line('"""Diagonal-pattern part, all row segments batched."""')
    if not plan.regions:
        w.line("return")
        w.dedent()
        w.line()
        return
    lo = 0
    for i, r in enumerate(plan.regions):
        hi = lo + r.nrs
        w.line(f"sub = ctx.sub({lo}, {hi})")
        w.line(f"_codelet_p{i}_batched(sub, dia_val, xb, yb)")
        w.line("sub.finalize()")
        lo = hi
    w.dedent()
    w.line()


def _emit_scatter_kernel(w: _Writer, plan: KernelPlan,
                         batched: bool = False) -> None:
    """The generated ELL kernel over scatter rows (Section II-D /
    III-B): fully unrolled over ``num_scatter_width``, column-major
    arrays so loads coalesce, and it *overwrites* y — it runs after the
    diagonal kernel and owns its rows completely.

    The batched form is text-identical except for the accumulator
    shape: ``pos``/``m``/``safe`` become grids by broadcasting, and the
    per-entry flop count already sums the active-lane mask, which
    covers all groups at once."""
    s = plan.scatter
    ls = plan.local_size
    nmax = s.num_rows - 1
    suffix = "_batched" if batched else ""
    shape = f"(ctx.num_groups, {ls})" if batched else str(ls)
    w.line(f"def crsd_scatter_kernel{suffix}(ctx, scol, sval, srow, xb, yb):")
    w.indent()
    w.line(f'"""Scatter-row ELL part: {s.num_rows} rows x {s.width} entries, '
           'unrolled."""')
    w.line(f"pos = ctx.group_id * {ls} + ctx.lid")
    w.line(f"m = pos < {s.num_rows}")
    w.line(f"safe = np.minimum(pos, {nmax})")
    if plan.nvec == 1:
        w.line(f"acc = np.zeros({shape}, dtype=xb.data.dtype)")
        for k in range(s.width):
            w.line(f"c = ctx.gload(scol, {k * s.num_rows} + safe, mask=m)")
            w.line(f"v = ctx.gload(sval, {k * s.num_rows} + safe, mask=m)")
            w.line("acc = acc + v * ctx.gload(xb, c, mask=m)")
            w.line("ctx.flops(2 * int(m.sum()))")
        w.line("r = ctx.gload(srow, safe, mask=m)")
        w.line("ctx.gstore(yb, r, acc, mask=m)")
    else:
        for j in range(plan.nvec):
            w.line(f"acc{j} = np.zeros({shape}, dtype=xb.data.dtype)")
        for k in range(s.width):
            w.line(f"c = ctx.gload(scol, {k * s.num_rows} + safe, mask=m)")
            w.line(f"v = ctx.gload(sval, {k * s.num_rows} + safe, mask=m)")
            for j in range(plan.nvec):
                w.line(f"acc{j} = acc{j} + v * ctx.gload(xb, {j * plan.ncols} + c, mask=m)")
            w.line(f"ctx.flops({2 * plan.nvec} * int(m.sum()))")
        w.line("r = ctx.gload(srow, safe, mask=m)")
        for j in range(plan.nvec):
            w.line(f"ctx.gstore(yb, {j * plan.nrows} + r, acc{j}, mask=m)")
    w.dedent()
    w.line()
