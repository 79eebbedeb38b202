"""Bell & Garland CSR kernels.

Two variants, matching the 2009 paper:

- **CSR-scalar** — one work-item per row.  Each lane walks its own
  row, so (a) lanes of a wavefront read *strided* positions of
  ``indices``/``data`` (poor coalescing: one transaction per lane) and
  (b) rows of different lengths diverge (idle lanes while the longest
  row in the wavefront finishes).  Both effects are measured by the
  trace, and both are exactly what makes CSR slow on diagonal matrices.
- **CSR-vector** — one wavefront per row.  Lanes read 32 consecutive
  entries of the row per step (coalesced), then reduce through local
  memory.  Wastes lanes when rows are shorter than the wavefront
  (nnz/row is 3–41 in the paper's suite, far below 32 in most).

The public alias ``CsrSpMV`` used in the figures is CSR-vector, the
stronger of the two for these matrices — matching Bell & Garland's
reported CSR numbers.

Both kernels are shape-generic (see dia.py) and run through
:func:`~repro.ocl.executor.launch_grid`: batched in bounded group
chunks by default, per group under ``REPRO_EXECUTOR=pergroup``.  Loops
run to the longest row of the whole chunk; groups whose rows are
already done mask every lane, which issues no traffic and adds only
zeros, so ``y`` and the trace match the per-group oracle bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.ocl.executor import launch_grid


class _CsrBase(GPUSpMV):
    def __init__(self, matrix: CSRMatrix, **kwargs):
        super().__init__(**kwargs)
        self.matrix = matrix

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def _prepare(self) -> None:
        self._indptr = self.context.alloc(self.matrix.indptr, "csr_indptr")
        self._indices = self.context.alloc(self.matrix.indices, "csr_indices")
        self._data = self.context.alloc(
            self.matrix.data.astype(self.dtype), "csr_data"
        )
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")


class CsrScalarSpMV(_CsrBase):
    """CSR-scalar: one work-item per row."""

    name = "csr_scalar"

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            nrows = self.nrows
            local_size = self.local_size
            indptr, indices, data, ybuf = (
                self._indptr, self._indices, self._data, self._y,
            )

            def kernel(ctx, ptrb, idxb, datab, xb, yb):
                rows = ctx.group_id * local_size + ctx.lid
                in_rows = rows < nrows
                safe_rows = np.clip(rows, 0, nrows - 1)
                start = ctx.gload(ptrb, safe_rows, mask=in_rows).astype(np.int64)
                end = ctx.gload(ptrb, safe_rows + 1, mask=in_rows).astype(np.int64)
                lens = np.where(in_rows, end - start, 0)
                ctx.loop_trips(lens)
                acc = np.zeros(rows.shape, dtype=x.dtype)
                kmax = int(lens.max()) if lens.size else 0
                for k in range(kmax):
                    m = k < lens
                    pos = np.where(m, start + k, 0)
                    col = ctx.gload(idxb, pos, mask=m)
                    v = ctx.gload(datab, pos, mask=m)
                    xv = ctx.gload(xb, col, mask=m)
                    acc += np.where(m, v * xv, 0)
                    ctx.flops(2 * int(m.sum()))
                ctx.gstore(yb, safe_rows, acc, mask=in_rows)

            tr = launch_grid(kernel, self.groups_for_rows(nrows), local_size,
                             (indptr, indices, data, xbuf, ybuf), self.device,
                             trace)
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr)
        finally:
            self.context.free(xbuf)


class CsrVectorSpMV(_CsrBase):
    """CSR-vector: one wavefront per row, local-memory reduction."""

    name = "csr"

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            nrows = self.nrows
            w = self.device.wavefront_size
            local_size = self.local_size
            rows_per_group = local_size // w
            num_groups = -(-nrows // rows_per_group)
            indptr, indices, data, ybuf = (
                self._indptr, self._indices, self._data, self._y,
            )

            def kernel(ctx, ptrb, idxb, datab, xb, yb):
                lmem = ctx.alloc_local(local_size, x.dtype)
                wf = ctx.lid // w     # which wavefront (row) each lane serves
                lane = ctx.lid % w
                rows = ctx.group_id * rows_per_group + wf
                in_rows = rows < nrows
                safe_rows = np.clip(rows, 0, nrows - 1)
                start = ctx.gload(ptrb, safe_rows, mask=in_rows & (lane == 0))
                end = ctx.gload(ptrb, safe_rows + 1, mask=in_rows & (lane == 0))
                # broadcast row bounds from each wavefront's lane 0
                # across the wavefront (register shuffle)
                head = ctx.lid - lane
                start = start[..., head].astype(np.int64)
                end = end[..., head].astype(np.int64)
                lens = end - start
                steps = -(-lens // w)  # per-lane trips = ceil(len/w)
                ctx.loop_trips(np.where(in_rows, steps, 0))
                acc = np.zeros(rows.shape, dtype=x.dtype)
                kmax = int(steps.max()) if steps.size else 0
                for k in range(kmax):
                    pos = start + k * w + lane
                    m = in_rows & (pos < end)
                    pos = np.where(m, pos, 0)
                    col = ctx.gload(idxb, pos, mask=m)
                    v = ctx.gload(datab, pos, mask=m)
                    xv = ctx.gload(xb, col, mask=m)
                    acc += np.where(m, v * xv, 0)
                    ctx.flops(2 * int(m.sum()))
                # wavefront-synchronous tree reduction in local memory
                ctx.lstore(lmem, ctx.lid, acc)
                stride = w // 2
                while stride >= 1:
                    active = np.broadcast_to(lane < stride, rows.shape)
                    partner = ctx.lload(lmem, ctx.lid + stride, mask=active)
                    mine = ctx.lload(lmem, ctx.lid, mask=active)
                    ctx.lstore(lmem, ctx.lid, mine + partner, mask=active)
                    ctx.flops(int(active.sum()))
                    stride //= 2
                total = ctx.lload(lmem, ctx.lid, mask=lane == 0)
                ctx.gstore(yb, safe_rows, total, mask=in_rows & (lane == 0))

            tr = launch_grid(kernel, num_groups, local_size,
                             (indptr, indices, data, xbuf, ybuf), self.device,
                             trace)
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr)
        finally:
            self.context.free(xbuf)


#: the CSR variant the figures use
CsrSpMV = CsrVectorSpMV
