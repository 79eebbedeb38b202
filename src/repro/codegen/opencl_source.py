"""OpenCL C rendering of the generated CRSD SpMV kernel.

This is the artifact a real GPU deployment would hand to
``clBuildProgram`` — the paper's Fig. 6 shows exactly this shape: a
``switch`` over the diagonal patterns where each ``case`` contains the
fully unrolled multiply-adds with literal index constants, the AD
groups staging their x window through ``__local`` memory behind a
``barrier``, and a second kernel processing the scatter rows.

The Python rendering (:mod:`repro.codegen.python_codelet`) is what the
simulator executes; both are driven by the same
:class:`~repro.codegen.plan.KernelPlan` so the constants cannot
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

from repro.codegen.plan import (
    GroupPlan,
    KernelPlan,
    RegionPlan,
    full_offsets,
    is_sym_plan,
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
        _emit_region_case(buf, plan, region, real)
    buf.write("    }\n")
    buf.write("}\n")


def _emit_region_case(
    buf: io.StringIO, plan: KernelPlan, region: RegionPlan, real: str
) -> None:
    m = region.mrows
    buf.write(f"    case {region.index}: {{ // pattern {region.signature}, "
              f"SR={region.start_row}, NRS={region.nrs}\n")
    buf.write(f"        const int seg = group_id - {region.gid_base};\n")
    slab = f"{region.slab_base} + seg * {region.nnz_per_segment}"
    tile_in_use = False
    for g in region.groups:
        if g.kind == "SYM":
            _emit_sym_case(buf, plan, region, g, real)
        elif plan.nvec > 1:
            _emit_multivec_case(buf, plan, region, g, slab, real)
        elif g.kind == "AD" and plan.use_local_memory:
            _emit_ad_case(buf, plan, region, g, slab, real,
                          wait_for_reads=tile_in_use)
            tile_in_use = True
        else:
            _emit_direct_case(buf, plan, region, g, slab, real)
    buf.write(f"        row = {region.start_row} + seg * {m} + local_id;\n")
    if plan.nvec == 1:
        buf.write(f"        if (row < {plan.nrows}) y[row] = acc;\n")
    else:
        buf.write(f"        if (row < {plan.nrows}) {{\n")
        for j in range(plan.nvec):
            buf.write(f"            y[{j * plan.nrows} + row] = acc{j};\n")
        buf.write("        }\n")
    buf.write("        break; }\n")


def _emit_multivec_case(
    buf: io.StringIO, plan: KernelPlan, region: RegionPlan, g: GroupPlan,
    slab: str, real: str,
) -> None:
    """SpMM body: one slab value load feeds all ``nvec`` accumulators
    (x column-major with baked strides)."""
    m = region.mrows
    buf.write(f"        // {g.kind} group, offsets {list(g.offsets)} "
              f"x {plan.nvec} vectors\n")
    for jj in range(g.ndiags):
        d = g.d_first + jj
        colv = g.colv[jj]
        buf.write("        {\n")
        buf.write(
            f"            const {real} v = crsd_dia_val[{slab} + {d * m} + local_id];\n"
        )
        buf.write(f"            const int xi = {colv} + seg * {m} + local_id;\n")
        buf.write(f"            if (xi >= 0 && xi < {plan.ncols}) {{\n")
        for j in range(plan.nvec):
            buf.write(
                f"                acc{j} += v * x[{j * plan.ncols} + xi];\n"
            )
        buf.write("            }\n")
        buf.write("        }\n")


def _emit_ad_case(
    buf: io.StringIO, plan: KernelPlan, region: RegionPlan, g: GroupPlan,
    slab: str, real: str, wait_for_reads: bool = False,
) -> None:
    m = region.mrows
    n = g.ndiags
    tile_len = m + n - 1
    buf.write(f"        // AD group, offsets {list(g.offsets)}: stage the\n"
              f"        // shared x window into local memory (Fig. 5)\n")
    if wait_for_reads:
        # xtile is shared between the AD groups of a region; the
        # previous group's reads must complete before restaging
        buf.write("        barrier(CLK_LOCAL_MEM_FENCE);\n")
    buf.write("        {\n")
    buf.write(f"            const int tbase = {g.colv[0]} + seg * {m};\n")
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
    for j in range(n):
        d = g.d_first + j
        buf.write(
            f"        acc += crsd_dia_val[{slab} + {d * m} + local_id]"
            f" * xtile[local_id + {j}];\n"
        )


def _emit_direct_case(
    buf: io.StringIO, plan: KernelPlan, region: RegionPlan, g: GroupPlan,
    slab: str, real: str,
) -> None:
    m = region.mrows
    buf.write(f"        // {g.kind} group, offsets {list(g.offsets)}\n")
    for j in range(g.ndiags):
        d = g.d_first + j
        colv = g.colv[j]
        buf.write("        {\n")
        buf.write(f"            const int xi = {colv} + seg * {m} + local_id;\n")
        buf.write(
            f"            const {real} xv = (xi >= 0 && xi < {plan.ncols})"
            f" ? x[xi] : ({real})0;\n"
        )
        buf.write(
            f"            acc += crsd_dia_val[{slab} + {d * m} + local_id] * xv;\n"
        )
        buf.write("        }\n")


def _emit_sym_case(
    buf: io.StringIO, plan: KernelPlan, region: RegionPlan, g: GroupPlan,
    real: str,
) -> None:
    """SYM group: stored ``+o`` at ``runbase`` in the diagonal-major
    half slab; the mirror term of ``-o`` reads the partner row's slot
    behind ``si >= runbase``."""
    m = region.mrows
    run = region.nrs * m
    for off in full_offsets(g.offsets):
        o = abs(off)
        runbase = region.slab_base + g.offsets.index(o) * run
        buf.write("        {\n")
        if off >= 0:
            buf.write(f"            // stored offset {off}\n")
            buf.write(
                f"            const {real} v = sym_dia_val[{runbase} + "
                f"seg * {m} + local_id];\n"
            )
        else:
            buf.write(f"            // full offset {off}: mirror of "
                      f"stored +{o}\n")
            buf.write(
                f"            const int si = {runbase - o} + seg * {m} + "
                "local_id;\n"
            )
            buf.write(
                f"            const {real} v = (si >= {runbase})"
                f" ? sym_dia_val[si] : ({real})0;\n"
            )
        buf.write(
            f"            const int xi = {region.start_row + off} + "
            f"seg * {m} + local_id;\n"
        )
        buf.write(
            f"            const {real} xv = (xi >= 0 && xi < {plan.ncols})"
            f" ? x[xi] : ({real})0;\n"
        )
        buf.write("            acc += v * xv;\n")
        buf.write("        }\n")


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
