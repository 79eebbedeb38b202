"""Analyzer support for symmetric CRSD codelets.

The transpose contribution is a new access shape: full diagonal ``-o``
reads the stored ``+o`` run at ``runbase - o + seg*mrows + lid`` behind
a ``idx >= runbase`` lower guard.  That is still an affine
unit-lane-stride access, so :func:`build_sym_model` expresses it as an
ordinary :class:`~repro.analyze.model.GlobalAccess` and every existing
checker (bounds, local memory, batch safety, coalescing lint + exact
L2-off trace prediction) applies unmodified.  :func:`analyze_sym_plan`
adds the sym-specific render cross-check and the half-slab analogue of
the paper's perfect-coalescing claim: the *unguarded* (forward) run
loads must coalesce perfectly whenever ``mrows`` is wavefront-aligned.

A symmetric model is an ordinary :class:`KernelModel`, so the exact
L2-on prediction is the shared one,
:func:`repro.analyze.trace.synthesize_trace`: the obs-layer DRAM-bytes
metric for a symmetric matrix can be checked against a static
prediction on the real device model.
"""

from __future__ import annotations

from typing import Optional

from repro.analyze.batch_safety import check_batch_safety
from repro.analyze.bounds import check_bounds
from repro.analyze.coalescing import _count_affine, check_coalescing
from repro.analyze.divergence import check_divergence
from repro.analyze.localmem import check_localmem
from repro.analyze.model import GlobalAccess, KernelModel, RegionModel
from repro.analyze.report import AnalysisReport
from repro.codegen.plan import KernelPlan
from repro.codegen.sym_codelet import (
    build_sym_plan,
    emit_sym_python_source,
    expected_sym_functions,
    full_offsets,
    generate_sym_opencl_source,
)
from repro.codegen.validator import (
    OpenCLSyntaxError,
    PythonCodeletSyntaxError,
    validate_opencl_source,
    validate_python_source,
)
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.trace import KernelTrace

_REAL_ITEMSIZE = {"double": 8, "fp64": 8, "single": 4, "fp32": 4}


def build_sym_model(plan: KernelPlan,
                    precision: str = "double") -> KernelModel:
    """Symbolic access model of a symmetric plan, in program order."""
    isize = _REAL_ITEMSIZE.get(precision.lower())
    if isize is None:
        raise ValueError(f"unknown precision {precision!r}")
    sym_slots = sum(r.nrs * r.nnz_per_segment for r in plan.regions)
    model = KernelModel(
        plan=plan,
        itemsize=isize,
        index_itemsize=4,
        lanes=plan.local_size,
        buffer_sizes={"sym_val": sym_slots, "x": plan.ncols, "y": plan.nrows},
    )
    for region in plan.regions:
        m = region.mrows
        run = region.nrs * m
        stored = region.groups[0].offsets
        rm = RegionModel(region=region, y_row_base=region.start_row)
        glabel = f"region {region.index} SYM group"
        for off in full_offsets(stored):
            o = abs(off)
            d = stored.index(o)
            runbase = region.slab_base + d * run
            if off >= 0:
                rm.accesses.append(GlobalAccess(
                    buffer="sym_val", kind="load",
                    base=runbase, seg_coeff=m, lane_coeff=1,
                    nsegs=region.nrs, lanes=m,
                    label=f"{glabel} sym_val[stored +{off}]",
                ))
            else:
                # the transpose read: the partner row's stored slot,
                # guarded below by the run base (rows before SR have no
                # partner in this region — the build declined those)
                rm.accesses.append(GlobalAccess(
                    buffer="sym_val", kind="load",
                    base=runbase - o, seg_coeff=m, lane_coeff=1,
                    nsegs=region.nrs, lanes=m,
                    guard_lo=runbase,
                    label=f"{glabel} sym_val[mirror {off}]",
                ))
            rm.accesses.append(GlobalAccess(
                buffer="x", kind="load",
                base=region.start_row + off, seg_coeff=m, lane_coeff=1,
                nsegs=region.nrs, lanes=m,
                guard_lo=0, guard_hi=plan.ncols,
                label=f"{glabel} x[off={off}]",
            ))
            rm.flops_per_group += 2 * m
        rm.accesses.append(GlobalAccess(
            buffer="y", kind="store",
            base=region.start_row, seg_coeff=m, lane_coeff=1,
            nsegs=region.nrs, lanes=m,
            guard_hi=plan.nrows,
            label=f"region {region.index} y store",
        ))
        model.regions.append(rm)
    return model


def analyze_sym_plan(
    plan: KernelPlan,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    check_render: bool = True,
) -> AnalysisReport:
    """Run every static checker over a symmetric plan."""
    model = build_sym_model(plan, precision=precision)
    report = AnalysisReport(plan=plan)
    check_bounds(model, report)
    check_localmem(model, report, device)
    check_batch_safety(model, report)
    check_coalescing(model, report, device)
    # half-slab analogue of the paper's headline claim: the forward
    # (unguarded) run loads coalesce perfectly under wavefront alignment
    if plan.regions and plan.mrows % device.wavefront_size == 0:
        eff = _sym_val_forward_efficiency(model, device)
        if eff is not None and eff < 1.0:
            report.add(
                "coalescing", "error", "sym dia kernel",
                f"forward sym_dia_val loads are not perfectly coalesced "
                f"(static efficiency {eff:.4f} < 1.0) although mrows="
                f"{plan.mrows} is wavefront-aligned",
            )
    if check_render:
        _check_sym_render(plan, precision, report)
    return report


def analyze_sym_matrix(
    sym,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    check_render: bool = True,
) -> AnalysisReport:
    """Build the symmetric plan for ``sym`` and analyze it."""
    plan = build_sym_plan(sym)
    return analyze_sym_plan(plan, device=device, precision=precision,
                            check_render=check_render)


# ----------------------------------------------------------------------
# sym-specific checks
# ----------------------------------------------------------------------

def _sym_val_forward_efficiency(model: KernelModel,
                                device: DeviceSpec) -> Optional[float]:
    tr = KernelTrace()
    found = False
    for rm in model.regions:
        for acc in rm.accesses:
            if (acc.buffer == "sym_val" and acc.lane_coeff == 1
                    and not acc.guarded):
                _count_affine(tr, acc, model, device)
                found = True
    if not found:
        return None
    return tr.load_coalescing_efficiency(model.itemsize,
                                         device.transaction_bytes)


def _check_sym_render(plan: KernelPlan, precision: str,
                      report: AnalysisReport) -> None:
    import re

    opencl_src = generate_sym_opencl_source(plan, precision=precision)
    python_src = emit_sym_python_source(plan)
    try:
        validate_opencl_source(opencl_src)
    except OpenCLSyntaxError as exc:
        report.add("render", "error", "opencl rendering",
                   f"structural validation failed: {exc}")
    try:
        validate_python_source(python_src,
                               expected=expected_sym_functions(plan))
    except PythonCodeletSyntaxError as exc:
        report.add("render", "error", "python rendering",
                   f"validation failed: {exc}")

    check_divergence(python_src, opencl_src, report)

    cases = re.findall(r"\bcase\s+(\d+)\s*:", opencl_src)
    if len(cases) != len(plan.regions):
        report.add(
            "render", "error", "opencl rendering",
            f"switch has {len(cases)} case labels for {len(plan.regions)} "
            "regions — plan and rendering disagree",
        )
    if "barrier(" in opencl_src or "__local" in opencl_src:
        report.add(
            "render", "error", "opencl rendering",
            "symmetric codelets must not use local memory or barriers",
        )
