"""Bell & Garland ELL kernel: one work-item per row.

Device arrays are column-major — all rows' k-th entry contiguous
(``data[k * nrows + row]``) — so value and index loads coalesce
perfectly.  Padded lanes multiply a stored zero, so the cost again
scales with the padded width K rather than nnz.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.formats.ell import ELLMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.ocl.executor import launch_grid


def ell_kernel(nrows: int, width: int, local_size: int, dtype,
               name: str = "kernel") -> Callable:
    """The ELL kernel over a column-major ``nrows`` x ``width`` slab
    (``idxb``/``datab``), named ``name``; HYB runs it on its slab.

    Shape-generic over both engines (see dia.py).
    """
    def kernel(ctx, idxb, datab, xb, yb):
        rows = ctx.group_id * local_size + ctx.lid
        in_rows = rows < nrows
        acc = np.zeros(rows.shape, dtype=dtype)
        safe_rows = np.clip(rows, 0, nrows - 1)
        for k in range(width):
            v = ctx.gload(datab, k * nrows + safe_rows, mask=in_rows)
            col = ctx.gload(idxb, k * nrows + safe_rows, mask=in_rows)
            # B&G compute unconditionally; padded slots hold v == 0
            xv = ctx.gload(xb, col, mask=in_rows)
            acc += v * xv
            ctx.flops(2 * int(in_rows.sum()))
        ctx.gstore(yb, safe_rows, acc, mask=in_rows)

    kernel.__name__ = name
    return kernel


class EllSpMV(GPUSpMV):
    """ELL SpMV runner (Bell & Garland layout)."""

    name = "ell"

    def __init__(self, matrix: ELLMatrix, **kwargs):
        super().__init__(**kwargs)
        self.matrix = matrix

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def _prepare(self) -> None:
        idx_cm, data_cm = self.matrix.column_major_view()
        self._indices = self.context.alloc(
            np.ascontiguousarray(idx_cm).ravel(), "ell_indices"
        )
        self._data = self.context.alloc(
            np.ascontiguousarray(data_cm).astype(self.dtype).ravel(), "ell_data"
        )
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            nrows = self.nrows
            kernel = ell_kernel(nrows, self.matrix.width, self.local_size,
                                self.dtype)
            tr = launch_grid(kernel, self.groups_for_rows(nrows),
                             self.local_size,
                             (self._indices, self._data, xbuf, self._y),
                             self.device, trace)
            return SpMVRun(y=self._y.to_host().copy(), trace=tr)
        finally:
            self.context.free(xbuf)
