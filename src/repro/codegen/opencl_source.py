"""OpenCL C rendering of the generated CRSD SpMV kernel.

This is the artifact a real GPU deployment would hand to
``clBuildProgram`` — the paper's Fig. 6 shows exactly this shape: a
``switch`` over the diagonal patterns where each ``case`` contains the
fully unrolled multiply-adds with literal index constants, the AD
groups staging their x window through ``__local`` memory behind a
``barrier``, and a second kernel processing the scatter rows.

The Python rendering (:mod:`repro.codegen.python_codelet`) is what the
simulator executes; both render the same term lists
(:func:`~repro.codegen.plan.region_terms`) so the constants cannot
disagree, and the test suite extracts the literals from this source and
checks them against :func:`repro.core.spmv.index_trace`.

A symmetric half-storage plan (``kind="SYM"`` groups) renders through
the same kernel frame as ``sym_crsd_dia_spmv(sym_dia_val, x, y)``: no
local memory, no barriers, no loops; each case is an unrolled run of
ternary-predicated multiply-adds, a forward and a mirror term per
stored diagonal.
"""

from __future__ import annotations

import io
from itertools import groupby
from operator import attrgetter
from typing import Tuple

from repro.codegen.plan import (
    KernelPlan,
    RegionPlan,
    Term,
    is_sym_plan,
    region_terms,
)

_REAL = {"double": "double", "single": "float"}

_PREAMBLE = """\
// Auto-generated CRSD SpMV kernel.
// Storage: Compressed Row Segment with Diagonal-pattern (Sun et al., ICPP 2011).
// One work-group processes one row segment of {mrows} rows; the switch
// below selects the work-group's diagonal pattern, so all work-items of
// a group take the same execution path (no thread divergence).
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
"""

_SYM_PREAMBLE = """\
// Auto-generated symmetric CRSD SpMV kernel.
// Half storage: only diagonals with offset >= 0 are kept; each stored
// diagonal emits its forward term A[i,j]*x[j] -> y[i] and the transpose
// term A[i,j]*x[i] -> y[j] in the same pass (one slab run, two reads),
// halving the value bytes streamed for symmetric patterns.
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
"""


def generate_opencl_source(plan: KernelPlan, precision: str = "double") -> str:
    """Emit the OpenCL C program text for ``plan``."""
    real = _REAL.get(precision.lower())
    if real is None:
        raise ValueError(f"unknown precision {precision!r}")
    buf = io.StringIO()
    buf.write(_SYM_PREAMBLE if is_sym_plan(plan)
              else _PREAMBLE.format(mrows=plan.mrows))
    buf.write("\n")
    _emit_dia_kernel(buf, plan, real)
    if plan.scatter.num_rows:
        buf.write("\n")
        _emit_scatter_kernel(buf, plan, real)
    return buf.getvalue()


def _emit_dia_kernel(buf: io.StringIO, plan: KernelPlan, real: str) -> None:
    if is_sym_plan(plan):
        name, values = "sym_crsd_dia_spmv", "sym_dia_val"
    else:
        name = "crsd_dia_spmv" if plan.nvec == 1 else "crsd_dia_spmm"
        values = "crsd_dia_val"
    buf.write(
        f"__kernel void {name}(__global const {real}* restrict {values},\n"
        f"                            __global const {real}* restrict x,\n"
        f"                            __global {real}* restrict y)\n"
        "{\n"
        "    const int group_id = get_group_id(0);\n"
        "    const int local_id = get_local_id(0);\n"
    )
    if plan.use_local_memory and plan.max_tile_len:
        buf.write(f"    __local {real} xtile[{plan.max_tile_len}];\n")
    if plan.nvec == 1:
        buf.write(f"    {real} acc = ({real})0;\n")
    else:
        for j in range(plan.nvec):
            buf.write(f"    {real} acc{j} = ({real})0;\n")
    buf.write("    int row;\n")
    if not plan.regions:
        buf.write("    (void)group_id; (void)local_id;\n}\n")
        return
    # region selection: the paper's sum_{i<p} NRS_i <= group_id < sum_{i<=p}
    buf.write("    int p;\n")
    acc = 0
    for i, r in enumerate(plan.regions):
        acc += r.nrs
        kw = "if" if i == 0 else "else if"
        buf.write(f"    {kw} (group_id < {acc}) p = {i};\n")
    buf.write(f"    else p = {len(plan.regions) - 1};\n")
    buf.write("    switch (p) {\n")
    for region in plan.regions:
        _emit_region_case(buf, plan, region, real, values)
    buf.write("    }\n")
    buf.write("}\n")


def _emit_region_case(
    buf: io.StringIO, plan: KernelPlan, region: RegionPlan, real: str,
    values: str,
) -> None:
    """One ``case``: the region's term list, unrolled (Fig. 6)."""
    m = region.mrows
    buf.write(f"    case {region.index}: {{ // pattern {region.signature}, "
              f"SR={region.start_row}, NRS={region.nrs}\n")
    buf.write(f"        const int seg = group_id - {region.gid_base};\n")
    tile_in_use = False
    for g, terms in groupby(region_terms(plan, region),
                            key=attrgetter("group")):
        terms = tuple(terms)
        if terms[0].tile is not None:
            _emit_tile_stage(buf, plan, region, terms, real,
                             wait_for_reads=tile_in_use)
            tile_in_use = True
        elif g.kind != "SYM":
            vecs = f" x {plan.nvec} vectors" if plan.nvec > 1 else ""
            buf.write(f"        // {g.kind} group, offsets "
                      f"{list(g.offsets)}{vecs}\n")
        for t in terms:
            # ``val`` is the slab value the term multiplies: a CRSD slot
            # shows its segment base and slot displacement apart (Fig. 6)
            val = (f"{values}[{region.slab_base} + seg * {t.slab_stride} + "
                   f"{t.slab - region.slab_base} + local_id]")
            if t.tile is not None:
                buf.write(f"        acc += {val} * xtile[local_id + {t.tile}];\n")
                continue
            buf.write("        {\n")
            if g.kind == "SYM":
                if t.slab_guard is None:
                    buf.write(f"            // stored offset {t.offset}\n")
                    buf.write(f"            const {real} v = {values}[{t.slab} "
                              f"+ seg * {t.slab_stride} + local_id];\n")
                else:
                    buf.write(f"            // full offset {t.offset}: mirror "
                              f"of stored +{-t.offset}\n")
                    buf.write(f"            const int si = {t.slab} + seg * "
                              f"{t.slab_stride} + local_id;\n")
                    buf.write(f"            const {real} v = (si >= "
                              f"{t.slab_guard}) ? {values}[si] : ({real})0;\n")
                val = "v"
            elif plan.nvec > 1:
                buf.write(f"            const {real} v = {val};\n")
                val = "v"
            buf.write(f"            const int xi = {t.col} + seg * {m} + "
                      "local_id;\n")
            if plan.nvec == 1:
                buf.write(f"            const {real} xv = (xi >= 0 && xi < "
                          f"{plan.ncols}) ? x[xi] : ({real})0;\n")
                buf.write(f"            acc += {val} * xv;\n")
            else:
                buf.write(f"            if (xi >= 0 && xi < {plan.ncols}) {{\n")
                for j in range(plan.nvec):
                    buf.write(f"                acc{j} += v * "
                              f"x[{j * plan.ncols} + xi];\n")
                buf.write("            }\n")
            buf.write("        }\n")
    buf.write(f"        row = {region.start_row} + seg * {m} + local_id;\n")
    if plan.nvec == 1:
        buf.write(f"        if (row < {plan.nrows}) y[row] = acc;\n")
    else:
        buf.write(f"        if (row < {plan.nrows}) {{\n")
        for j in range(plan.nvec):
            buf.write(f"            y[{j * plan.nrows} + row] = acc{j};\n")
        buf.write("        }\n")
    buf.write("        break; }\n")


def _emit_tile_stage(
    buf: io.StringIO, plan: KernelPlan, region: RegionPlan,
    terms: Tuple[Term, ...], real: str, wait_for_reads: bool,
) -> None:
    """Stage an AD group's shared x window into ``xtile`` (Fig. 5)."""
    m = region.mrows
    tile_len = m + len(terms) - 1
    buf.write(f"        // AD group, offsets {list(terms[0].group.offsets)}: "
              "stage the\n"
              "        // shared x window into local memory (Fig. 5)\n")
    if wait_for_reads:
        # xtile is shared between the AD groups of a region; the
        # previous group's reads must complete before restaging
        buf.write("        barrier(CLK_LOCAL_MEM_FENCE);\n")
    buf.write("        {\n")
    buf.write(f"            const int tbase = {terms[0].col - terms[0].tile} "
              f"+ seg * {m};\n")
    buf.write("            int xi = tbase + local_id;\n")
    buf.write(
        f"            xtile[local_id] = (xi >= 0 && xi < {plan.ncols})"
        f" ? x[xi] : ({real})0;\n"
    )
    # wide AD groups (ndiags > mrows + 1) need more than one extra
    # staging pass: each pass fills the next mrows-sized tile slice
    for s in range(1, -(-tile_len // m)):
        extra = min(tile_len - s * m, m)
        buf.write(f"            if (local_id < {extra}) {{\n")
        buf.write(f"                xi = tbase + {s * m} + local_id;\n")
        buf.write(
            f"                xtile[{s * m} + local_id] = (xi >= 0 && xi < "
            f"{plan.ncols}) ? x[xi] : ({real})0;\n"
        )
        buf.write("            }\n")
    buf.write("        }\n")
    buf.write("        barrier(CLK_LOCAL_MEM_FENCE);\n")


def _emit_scatter_kernel(buf: io.StringIO, plan: KernelPlan, real: str) -> None:
    s = plan.scatter
    ls = plan.local_size
    buf.write(
        "// Scatter-row ELL kernel: executed AFTER crsd_dia_spmv; it owns its\n"
        "// rows completely and overwrites y, preserving each row's sequential\n"
        f"// floating-point order.  Unrolled over num_scatter_width = {s.width}.\n"
    )
    buf.write(
        f"__kernel void crsd_scatter_spmv(__global const int* restrict scatter_colval,\n"
        f"                                __global const {real}* restrict scatter_val,\n"
        f"                                __global const int* restrict scatter_rowno,\n"
        f"                                __global const {real}* restrict x,\n"
        f"                                __global {real}* restrict y)\n"
        "{\n"
        f"    const int i = get_group_id(0) * {ls} + get_local_id(0);\n"
        f"    if (i >= {s.num_rows}) return;\n"
        f"    {real} acc = ({real})0;\n"
    )
    for k in range(s.width):
        base = k * s.num_rows
        buf.write(
            f"    acc += scatter_val[{base} + i] * x[scatter_colval[{base} + i]];\n"
        )
    buf.write("    y[scatter_rowno[i]] = acc;\n")
    buf.write("}\n")
