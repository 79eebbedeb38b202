"""Analysis driver: one call runs every checker over a kernel plan.

:func:`analyze_plan` is the programmatic entry point (the ``repro
analyze`` CLI, the strict-mode codegen hook and the autotuner all call
it); :func:`analyze_matrix` is the convenience wrapper that starts from
a built :class:`~repro.core.crsd.CRSDMatrix` and feeds the baked
scatter index arrays to the model so the indirect accesses and the
batched-safety prover get exact data.  Both take a symmetric
half-storage plan or :class:`~repro.core.symcrsd.SymCRSDMatrix` as
well: the model, the checkers and the render cross-check read the plan
kind off its groups.

Besides the five checkers the driver cross-checks the *renderings*
against the model (check ``render``): both generated sources must pass
the structural validators, the OpenCL ``switch`` must carry exactly one
``case`` per region, the text's ``barrier(CLK_LOCAL_MEM_FENCE)`` count
must equal the model's barrier count, and the ``__local`` tile
declaration must be exactly ``max_tile_len`` elements.  A code
generator drifting from its own plan is caught here before any kernel
runs.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from repro.analyze.batch_safety import check_batch_safety
from repro.analyze.bounds import check_bounds
from repro.analyze.coalescing import check_coalescing
from repro.analyze.divergence import check_divergence
from repro.analyze.localmem import check_localmem
from repro.analyze.model import build_model
from repro.analyze.report import AnalysisReport
from repro.codegen.opencl_source import generate_opencl_source
from repro.codegen.plan import KernelPlan, build_plan, build_sym_plan
from repro.codegen.python_codelet import emit_python_source, expected_functions
from repro.codegen.validator import (
    OpenCLSyntaxError,
    PythonCodeletSyntaxError,
    validate_opencl_source,
    validate_python_source,
)
from repro.core.symcrsd import SymCRSDMatrix
from repro.ocl.device import DeviceSpec, TESLA_C2050


def analyze_plan(
    plan: KernelPlan,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    scatter_colval: Optional[np.ndarray] = None,
    scatter_rowno: Optional[np.ndarray] = None,
    check_render: bool = True,
) -> AnalysisReport:
    """Run all static checkers over ``plan``; never executes a kernel."""
    model = build_model(plan, precision=precision,
                        scatter_colval=scatter_colval,
                        scatter_rowno=scatter_rowno)
    report = AnalysisReport(plan=plan)
    check_bounds(model, report)
    check_localmem(model, report, device)
    check_batch_safety(model, report)
    check_coalescing(model, report, device)
    if check_render:
        _check_render(model, plan, precision, report)
    return report


def analyze_matrix(
    crsd,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    use_local_memory: bool = True,
    nvec: int = 1,
    check_render: bool = True,
) -> AnalysisReport:
    """Build the plan for ``crsd`` and analyze it with exact scatter
    index data (the arrays the runner would bake into the buffers).

    A :class:`~repro.core.symcrsd.SymCRSDMatrix` gets its symmetric
    plan, which has no scatter rows, local memory or SpMM variant, so
    ``use_local_memory`` and ``nvec`` do not apply to it.
    """
    if isinstance(crsd, SymCRSDMatrix):
        return analyze_plan(build_sym_plan(crsd), device=device,
                            precision=precision, check_render=check_render)
    plan = build_plan(crsd, use_local_memory=use_local_memory, nvec=nvec)
    return analyze_plan(
        plan,
        device=device,
        precision=precision,
        scatter_colval=crsd.scatter_colval,
        scatter_rowno=crsd.scatter_rowno,
        check_render=check_render,
    )


# ----------------------------------------------------------------------
# render cross-check
# ----------------------------------------------------------------------

def _check_render(model, plan: KernelPlan, precision: str,
                  report: AnalysisReport) -> None:
    opencl_src = generate_opencl_source(plan, precision=precision)
    python_src = emit_python_source(plan)
    try:
        validate_opencl_source(opencl_src)
    except OpenCLSyntaxError as exc:
        report.add("render", "error", "opencl rendering",
                   f"structural validation failed: {exc}")
    try:
        validate_python_source(python_src, expected=expected_functions(plan))
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
    model_barriers = sum(
        1 for rm in model.regions for op in rm.opencl_local_ops
        if op.op == "barrier"
    )
    text_barriers = opencl_src.count("barrier(CLK_LOCAL_MEM_FENCE);")
    if text_barriers != model_barriers:
        report.add(
            "render", "error", "opencl rendering",
            f"{text_barriers} barrier(CLK_LOCAL_MEM_FENCE) calls emitted "
            f"but the local-memory model requires {model_barriers} — "
            "barrier placement drifted from the plan",
        )
    decl = re.search(r"__local\s+\w+\s+xtile\[(\d+)\]", opencl_src)
    if plan.use_local_memory and plan.max_tile_len:
        if decl is None:
            report.add("render", "error", "opencl rendering",
                       "local-memory plan but no __local xtile declaration")
        elif int(decl.group(1)) != plan.max_tile_len:
            report.add(
                "render", "error", "opencl rendering",
                f"xtile declared with {decl.group(1)} elements; plan "
                f"max_tile_len is {plan.max_tile_len}",
            )
    elif decl is not None:
        report.add("render", "error", "opencl rendering",
                   "__local xtile declared although the plan does not "
                   "use local memory")
