"""COO kernel (used standalone and as the HYB tail).

Bell & Garland use a segmented-reduction COO kernel; its performance
character — fully coalesced streaming of the triplet arrays plus a
row-boundary fix-up — is modelled here with one work-item per entry
and an atomic accumulation into ``y``.  For the tiny COO tails HYB
produces on this suite (0.2%–2.1% of nnz) the difference is
negligible, and the atomic read-modify-write traffic is charged
explicitly by the trace.

Unlike the other Bell & Garland kernels, COO stays on the per-group
engine (:func:`~repro.ocl.executor.launch`) under every executor mode.
Its launches are the tails' few groups, and the host benchmark's
``suite-sweep`` workload (``perfbench/``) expects the per-group engine
to fire in every round.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.formats.coo import COOMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.ocl.executor import launch


def coo_kernel(nnz: int, local_size: int, name: str = "kernel") -> Callable:
    """The COO kernel over ``nnz`` triplets (``rb``/``cb``/``vb``),
    named ``name``: one work-item per entry, atomic adds into ``y``.
    HYB runs it on its tail."""
    def kernel(ctx, rb, cb, vb, xb, yb):
        pos = ctx.group_id * local_size + ctx.lid
        m = pos < nnz
        safe = np.clip(pos, 0, max(nnz - 1, 0))
        r = ctx.gload(rb, safe, mask=m)
        c = ctx.gload(cb, safe, mask=m)
        v = ctx.gload(vb, safe, mask=m)
        xv = ctx.gload(xb, c, mask=m)
        prod = np.where(m, v * xv, 0)
        ctx.flops(2 * int(m.sum()))
        if m.any():
            ctx.gatomic_add(yb, r[m].astype(np.int64), prod[m])

    kernel.__name__ = name
    return kernel


class CooSpMV(GPUSpMV):
    """COO SpMV runner: one work-item per nonzero, atomic adds into y."""

    name = "coo"

    def __init__(self, matrix: COOMatrix, **kwargs):
        super().__init__(**kwargs)
        self.matrix = matrix

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def _prepare(self) -> None:
        self._rows = self.context.alloc(self.matrix.rows, "coo_rows")
        self._cols = self.context.alloc(self.matrix.cols, "coo_cols")
        self._vals = self.context.alloc(
            self.matrix.vals.astype(self.dtype), "coo_vals"
        )
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            nnz, local_size, ybuf = self.matrix.nnz, self.local_size, self._y
            ybuf.data[:] = 0
            tr = launch(coo_kernel(nnz, local_size),
                        -(-nnz // local_size), local_size,
                        (self._rows, self._cols, self._vals, xbuf, ybuf),
                        self.device, trace)
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr)
        finally:
            self.context.free(xbuf)
