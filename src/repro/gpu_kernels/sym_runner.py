"""Symmetric CRSD SpMV runner: half-storage codelets on the device.

Only the half slab (``sym_dia_val``) travels to the device — stored
diagonals with offset ``>= 0``, diagonal-major per region — and every
index is baked into the generated kernel.  Each stored run is read
twice per segment (forward term and guarded mirror term) but *streamed
from DRAM once*: the mirror read lands on lines the forward read of the
neighbouring segment brought into L2, so DRAM value traffic roughly
halves versus the full carrier, which is the point of the format.

The plan is a plain :class:`~repro.codegen.plan.KernelPlan` whose
groups are ``kind="SYM"``
(:func:`~repro.codegen.plan.build_sym_plan`), so the shared emitters
(:func:`~repro.codegen.python_codelet.generate_python_kernel`,
:func:`~repro.codegen.opencl_source.generate_opencl_source`) and the
shared analyzer serve it.

Single launch, no scatter pass: it launches through the full runner's
:func:`~repro.gpu_kernels.crsd_runner.launch_plan`, which skips the
scatter launch because a symmetric plan has no scatter rows.  The
execution engine follows ``REPRO_EXECUTOR`` like the full runner; the
fused engine has no symmetric lowering yet, so ``fused`` serves through
the batched engine (the codelets are identical — this is an engine
choice, not a fallback incident, so no ``fused.uncertified`` event).
"""

from __future__ import annotations

from repro.codegen.opencl_source import generate_opencl_source
from repro.codegen.plan import build_sym_plan
from repro.codegen.python_codelet import generate_python_kernel
from repro.core.symcrsd import SymCRSDMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.gpu_kernels.crsd_runner import analyze_strict, launch_plan


class SymCrsdSpMV(GPUSpMV):
    """Generated-codelet symmetric CRSD SpMV runner.

    Parameters
    ----------
    matrix:
        The symmetric half carrier.
    strict:
        Run the static analyzer over the plan, on this runner's device
        and precision, before compiling; raises
        :class:`~repro.analyze.report.KernelAnalysisError` on any
        violation.
    """

    name = "sym_crsd"

    def __init__(self, matrix: SymCRSDMatrix, strict: bool = False,
                 **kwargs):
        kwargs.setdefault("local_size", matrix.mrows)
        super().__init__(**kwargs)
        self.matrix = matrix
        self.plan = build_sym_plan(matrix)
        if strict:
            analyze_strict(self.plan, self.device, self.precision)
        self.kernel = generate_python_kernel(self.plan)

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    @property
    def opencl_source(self) -> str:
        """The OpenCL C rendering of the same kernel (for inspection)."""
        return generate_opencl_source(self.plan, self.precision)

    def _prepare(self) -> None:
        self._sym_val = self.context.alloc(
            self.matrix.sym_val.astype(self.dtype), "sym_dia_val"
        )
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    def _execute(self, x, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            ybuf = self._y
            ybuf.data[:] = 0
            tr = launch_plan(self.kernel, self.plan, self.device,
                             self._sym_val, None, xbuf, ybuf, trace)
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr)
        finally:
            self.context.free(xbuf)
