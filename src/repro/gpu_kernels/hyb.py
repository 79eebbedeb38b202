"""HYB kernel: the ELL slab kernel followed by the COO tail kernel.

Both are the kernels of :mod:`repro.gpu_kernels.ell` and
:mod:`repro.gpu_kernels.coo`, launched as ``ell_kernel`` and
``coo_kernel``.  The slab runs through
:func:`~repro.ocl.executor.launch_grid` (batched by default); the tail
stays on the per-group engine, as standalone COO does (see coo.py).
Both accumulate into the same device ``y``; traces are merged.
"""

from __future__ import annotations

import numpy as np

from repro.formats.hyb import HYBMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.gpu_kernels.coo import coo_kernel
from repro.gpu_kernels.ell import ell_kernel
from repro.ocl.executor import launch, launch_grid


class HybSpMV(GPUSpMV):
    """HYB SpMV runner (ELL width chosen by the cusp heuristic)."""

    name = "hyb"

    def __init__(self, matrix: HYBMatrix, **kwargs):
        super().__init__(**kwargs)
        self.matrix = matrix

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def _prepare(self) -> None:
        idx_cm, data_cm = self.matrix.ell.column_major_view()
        self._ell_indices = self.context.alloc(
            np.ascontiguousarray(idx_cm).ravel(), "hyb_ell_indices"
        )
        self._ell_data = self.context.alloc(
            np.ascontiguousarray(data_cm).astype(self.dtype).ravel(), "hyb_ell_data"
        )
        self._coo_rows = self.context.alloc(self.matrix.coo.rows, "hyb_coo_rows")
        self._coo_cols = self.context.alloc(self.matrix.coo.cols, "hyb_coo_cols")
        self._coo_vals = self.context.alloc(
            self.matrix.coo.vals.astype(self.dtype), "hyb_coo_vals"
        )
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            nrows = self.nrows
            local_size = self.local_size
            ybuf = self._y
            ybuf.data[:] = 0
            slab = ell_kernel(nrows, self.matrix.ell.width, local_size,
                              self.dtype, name="ell_kernel")
            tr = launch_grid(slab, self.groups_for_rows(nrows), local_size,
                             (self._ell_indices, self._ell_data, xbuf, ybuf),
                             self.device, trace)

            nnz_tail = self.matrix.coo.nnz
            if nnz_tail:
                tail = coo_kernel(nnz_tail, local_size, name="coo_kernel")
                tr.merge(launch(tail, -(-nnz_tail // local_size),
                                local_size,
                                (self._coo_rows, self._coo_cols,
                                 self._coo_vals, xbuf, ybuf),
                                self.device, trace))
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr)
        finally:
            self.context.free(xbuf)
