"""Bell & Garland DIA kernel: one work-item per row.

The device holds the DIA slab column-major per diagonal
(``data[d * nrows + row]``) so consecutive work-items load consecutive
values — fully coalesced.  The cost of the format is not access
pattern but *volume*: every padded zero inside the matrix extent is
loaded and multiplied, which is why DIA collapses on matrices with
many sparse diagonals (s3dkt3m2: 655 diagonals, 41 nnz/row).
"""

from __future__ import annotations

import numpy as np

from repro.formats.dia import DIAMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.ocl.executor import launch_grid


class DiaSpMV(GPUSpMV):
    """DIA SpMV runner (Bell & Garland layout)."""

    name = "dia"

    def __init__(self, matrix: DIAMatrix, **kwargs):
        super().__init__(**kwargs)
        self.matrix = matrix

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def _prepare(self) -> None:
        # diagonal-major, row-minor: data[d*nrows + row]
        self._data = self.context.alloc(
            self.matrix.data.astype(self.dtype).ravel(), "dia_data"
        )
        self._offsets = self.context.alloc(self.matrix.offsets, "dia_offsets")
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            nrows, ncols = self.nrows, self.ncols
            ndiags = self.matrix.ndiags
            host_offsets = self.matrix.offsets.astype(np.int64)
            local_size = self.local_size
            data, offsets, ybuf = self._data, self._offsets, self._y

            # shape-generic over both engines: rows is (local_size,)
            # per-group and (num_groups, local_size) batched
            def kernel(ctx, data, offsets, xb, yb):
                rows = ctx.group_id * local_size + ctx.lid
                in_rows = rows < nrows
                acc = np.zeros(rows.shape, dtype=x.dtype)
                for d in range(ndiags):
                    # the offsets array is tiny and cached; load once per
                    # work-group rather than per lane
                    off = host_offsets[d]
                    cols = rows + off
                    m = in_rows & (cols >= 0) & (cols < ncols)
                    v = ctx.gload(data, d * nrows + rows, mask=m)
                    xv = ctx.gload(xb, np.clip(cols, 0, ncols - 1), mask=m)
                    acc += v * xv
                    ctx.flops(2 * int(m.sum()))
                ctx.gstore(yb, np.clip(rows, 0, nrows - 1), acc, mask=in_rows)

            tr = launch_grid(kernel, self.groups_for_rows(nrows), local_size,
                             (data, offsets, xbuf, ybuf), self.device, trace)
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr)
        finally:
            # x is transient per run; release its accounting share
            self.context.free(xbuf)
