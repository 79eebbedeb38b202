"""Kernel execution on the simulated device.

A kernel is a Python callable ``kernel(ctx, *buffers)`` written
*vectorised over one work-group*: ``ctx.lid`` is the array of local
work-item ids and every load/store moves one value per (active) lane.
:func:`launch` runs the kernel for every work-group sequentially (the
simulation is functional — scheduling order cannot change results
because work-groups are independent, as in OpenCL) and aggregates a
:class:`~repro.ocl.trace.KernelTrace`.

Two execution engines are provided:

- :func:`launch` — the per-group reference engine: one
  :class:`WorkGroupCtx` per work-group, executed sequentially.
- :func:`launch_batched` — the segment-batched engine: one
  :class:`BatchCtx` spanning *all* work-groups of a uniform code path,
  so a kernel runs as a handful of numpy calls over a
  ``(num_groups, local_size)`` lane grid instead of ``num_groups``
  Python-level iterations.  Results are bit-identical (the same
  elementwise IEEE operations run, merely batched) and, when tracing,
  the same counters are produced: per-wavefront coalescing is computed
  vectorised across all groups, and the L2 model is fed the identical
  per-group-ordered segment stream via a deferred replay.

:func:`executor_mode` selects the engine runners use (environment
variable ``REPRO_EXECUTOR``; CRSD runners default to the fused engine
of :mod:`repro.gpu_kernels.fused` and fall back to :func:`launch_batched`,
and the per-group path stays available as the oracle behind
``REPRO_EXECUTOR=pergroup``).  :func:`launch_grid` makes that choice
for kernels written to run under either engine (the Bell & Garland
baselines), batching them in bounded group chunks.

Divergence accounting: lockstep lanes that idle while their wavefront
executes (branchy code, variable loop trip counts) waste issue slots.
Kernels report per-lane trip counts via :meth:`WorkGroupCtx.loop_trips`;
uniform kernels (the CRSD design point — "all work-items take the same
execution path") simply never report, scoring efficiency 1.0.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.errors import DeviceMemoryError, LaunchError, LocalMemoryError
from repro.ocl.memory import (
    BatchedLocalBuffer,
    Buffer,
    LocalBuffer,
    SegmentCache,
    count_rows,
    replay_rows,
    segment_streams,
    wavefront_segments,
    wavefront_transactions,
)
from repro.ocl.trace import KernelTrace

# span recorder: every hook below guards on ``_obs.ACTIVE is None`` so
# the disabled path is one module-attribute read (no clock, no object)
from repro.obs import recorder as _obs

# fault injector: same contract — ``_flt.ACTIVE`` is ``None`` unless a
# test/chaos harness activated injection, and the hooks below do
# nothing else on the disabled path
from repro.resilience import faults as _flt

#: environment variable selecting the execution engine
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: recognised engine names
EXECUTOR_MODES = ("batched", "pergroup", "fused")

#: the engines a profile or chaos sweep runs when none are named
DEFAULT_SWEEP_EXECUTORS = ("batched", "pergroup")

#: most lanes one :func:`launch_grid` chunk spans: bounds the
#: ``(groups, lanes)`` arrays a batched kernel statement materialises
BATCH_CHUNK_LANES = 1 << 15

#: most lanes of global accesses a :class:`BatchCtx` holds before it
#: runs their one stacked segment pass
BATCH_PENDING_LANES = 1 << 16


def executor_mode() -> str:
    """The selected execution engine, from the ``REPRO_EXECUTOR``
    environment variable:

    - ``"fused"`` (default) — analyzer-certified whole-matrix
      execution (CRSD runners, whole and sharded; see
      :mod:`repro.gpu_kernels.fused`).  A plan the provers decline, or
      a runner demoted after a fault, runs ``"batched"`` instead;
      runners without a fused path (DIA/ELL/CSR/HYB, symmetric CRSD)
      treat it as ``"batched"``;
    - ``"batched"`` — each kernel as one vectorised invocation over the
      ``(num_groups, local_size)`` grid;
    - ``"pergroup"`` — the sequential per-work-group reference oracle.
    """
    mode = os.environ.get(EXECUTOR_ENV, "fused").strip().lower()
    if mode not in EXECUTOR_MODES:
        raise LaunchError(
            f"{EXECUTOR_ENV}={mode!r} is not a known executor mode; "
            f"expected one of {EXECUTOR_MODES}"
        )
    return mode


@contextlib.contextmanager
def executor_sweep(
    executors: Sequence[str],
) -> Iterator[Callable[[str], None]]:
    """Run one sweep over several engines in this process.

    Every name in ``executors`` is checked up front (``ValueError``
    for one not in :data:`EXECUTOR_MODES`).  The block receives
    ``select(mode)``, which sets ``REPRO_EXECUTOR`` for what follows;
    on exit the variable gets back its earlier value, or is removed
    if it was unset, also when the block raises.
    """
    for ex in executors:
        if ex not in EXECUTOR_MODES:
            raise ValueError(
                f"unknown executor {ex!r}; expected one of {EXECUTOR_MODES}")
    saved = os.environ.get(EXECUTOR_ENV)

    def select(mode: str) -> None:
        os.environ[EXECUTOR_ENV] = mode

    try:
        yield select
    finally:
        if saved is None:
            os.environ.pop(EXECUTOR_ENV, None)
        else:
            os.environ[EXECUTOR_ENV] = saved


def kernel_name(kernel: Callable) -> str:
    """A stable display name for a kernel callable (span labelling)."""
    return getattr(kernel, "__name__", None) or type(kernel).__name__


def make_launch_cache(device: DeviceSpec,
                      trace: bool) -> Optional[SegmentCache]:
    """An L2 cache for a *sequence* of launches (or ``None`` when the
    device has no L2 or tracing is off).  Pass it to every launch of
    one logical operation so back-to-back kernels share residency."""
    if trace and device.l2_bytes > 0:
        return SegmentCache(device.l2_bytes, device.transaction_bytes)
    return None


class Context:
    """A device context: owns global-memory allocations.

    Mirrors ``clCreateContext`` + ``clCreateBuffer``: every allocation
    is charged against the device's global memory and
    :class:`~repro.ocl.errors.DeviceMemoryError` is raised on
    exhaustion (the paper's DIA/double out-of-memory case).
    """

    def __init__(self, device: DeviceSpec = TESLA_C2050):
        self.device = device
        self.allocated_bytes = 0
        self._buffers: list[Buffer] = []

    def alloc(self, data: np.ndarray, name: str = "buf") -> Buffer:
        """Allocate a buffer initialised from host data."""
        buf = Buffer(np.array(data, copy=True), name=name)
        if _flt.ACTIVE is not None:
            _flt.ACTIVE.on_alloc(name, buf.nbytes)
        if self.allocated_bytes + buf.nbytes > self.device.global_mem_bytes:
            raise DeviceMemoryError(
                f"allocating {buf.nbytes:,} B for {name!r} exceeds device memory "
                f"({self.allocated_bytes:,} B already allocated, capacity "
                f"{self.device.global_mem_bytes:,} B)"
            )
        self.allocated_bytes += buf.nbytes
        self._buffers.append(buf)
        return buf

    def alloc_zeros(self, n: int, dtype=np.float64, name: str = "buf") -> Buffer:
        """Allocate a zero-initialised buffer of ``n`` elements."""
        return self.alloc(np.zeros(int(n), dtype=dtype), name=name)

    def free(self, buf: Buffer) -> None:
        """Release one buffer's capacity accounting."""
        if buf in self._buffers:
            self._buffers.remove(buf)
            self.allocated_bytes -= buf.nbytes

    def free_all(self) -> None:
        """Release every allocation (``clReleaseMemObject`` for all)."""
        self._buffers.clear()
        self.allocated_bytes = 0


class WorkGroupCtx:
    """Execution context handed to a kernel for one work-group."""

    def __init__(self, device: DeviceSpec, group_id: int, local_size: int,
                 trace: Optional[KernelTrace],
                 cache: Optional[SegmentCache] = None):
        self.device = device
        self.group_id = int(group_id)
        self.local_size = int(local_size)
        #: local work-item ids, shape (local_size,)
        self.lid = np.arange(local_size, dtype=np.int64)
        self._trace = trace
        self._cache = cache
        self._local_bytes = 0

    # ------------------------------------------------------------------
    # global memory
    # ------------------------------------------------------------------
    def gload(self, buf: Buffer, idx: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """One global load per (active) lane; returns lane values.

        ``idx`` may point anywhere in the buffer; masked-off lanes
        return 0 and generate no traffic.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if self._trace is not None:
            req, segments, useful = wavefront_segments(
                idx, buf.itemsize, self.device.wavefront_size,
                self.device.transaction_bytes, mask,
            )
            if self._cache is not None:
                txn = self._cache.access(id(buf), segments)
                self._trace.l2_hits += segments.size - txn
            else:
                txn = int(segments.size)
            self._trace.global_load_requests += req
            self._trace.global_load_transactions += txn
            self._trace.global_load_bytes_useful += useful
        if mask is None:
            return buf.data[idx]
        out = np.zeros(idx.shape, dtype=buf.data.dtype)
        out[mask] = buf.data[idx[mask]]
        return out

    def gstore(self, buf: Buffer, idx: np.ndarray, values: np.ndarray,
               mask: np.ndarray | None = None) -> None:
        """One global store per (active) lane."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._trace is not None:
            req, segments, useful = wavefront_segments(
                idx, buf.itemsize, self.device.wavefront_size,
                self.device.transaction_bytes, mask,
            )
            if self._cache is not None:
                # write-allocate: lines become resident, but the DRAM
                # write-back is still charged in full
                self._cache.access(id(buf), segments)
            self._trace.global_store_requests += req
            self._trace.global_store_transactions += int(segments.size)
            self._trace.global_store_bytes_useful += useful
        if mask is None:
            buf.data[idx] = values
        else:
            buf.data[idx[mask]] = np.broadcast_to(values, idx.shape)[mask]

    def gatomic_add(self, buf: Buffer, idx: np.ndarray, values: np.ndarray) -> None:
        """Atomic global add (used by the COO tail kernel)."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._trace is not None:
            # an atomic is a read-modify-write: count both directions
            req, txn, useful = wavefront_transactions(
                idx, buf.itemsize, self.device.wavefront_size,
                self.device.transaction_bytes, None,
            )
            self._trace.global_load_requests += req
            self._trace.global_load_transactions += txn
            self._trace.global_load_bytes_useful += useful
            self._trace.global_store_requests += req
            self._trace.global_store_transactions += txn
            self._trace.global_store_bytes_useful += useful
        np.add.at(buf.data, idx, values)

    # ------------------------------------------------------------------
    # local memory
    # ------------------------------------------------------------------
    def alloc_local(self, size: int, dtype=np.float64, name: str = "lmem") -> LocalBuffer:
        """Allocate work-group local memory (capacity-checked per CU)."""
        lbuf = LocalBuffer(size, dtype, name)
        self._local_bytes += lbuf.nbytes
        if self._local_bytes > self.device.local_mem_per_cu_bytes:
            raise LocalMemoryError(
                f"work-group requested {self._local_bytes:,} B local memory; "
                f"CU provides {self.device.local_mem_per_cu_bytes:,} B"
            )
        return lbuf

    def lload(self, lbuf: LocalBuffer, idx: np.ndarray,
              mask: np.ndarray | None = None) -> np.ndarray:
        """One local-memory load per (active) lane."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._trace is not None:
            active = idx.size if mask is None else int(np.count_nonzero(mask))
            self._trace.local_load_bytes += active * lbuf.itemsize
        if mask is None:
            return lbuf.data[idx]
        out = np.zeros(idx.shape, dtype=lbuf.data.dtype)
        out[mask] = lbuf.data[idx[mask]]
        return out

    def lstore(self, lbuf: LocalBuffer, idx: np.ndarray, values: np.ndarray,
               mask: np.ndarray | None = None) -> None:
        """One local-memory store per (active) lane."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._trace is not None:
            active = idx.size if mask is None else int(np.count_nonzero(mask))
            self._trace.local_store_bytes += active * lbuf.itemsize
        if mask is None:
            lbuf.data[idx] = values
        else:
            lbuf.data[idx[mask]] = np.broadcast_to(values, idx.shape)[mask]

    # ------------------------------------------------------------------
    # control / accounting
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """``barrier(CLK_LOCAL_MEM_FENCE)`` — synchronise the group."""
        if self._trace is not None:
            self._trace.barriers += 1

    def flops(self, n: int) -> None:
        """Report ``n`` floating-point operations performed."""
        if self._trace is not None:
            self._trace.flops += int(n)

    def loop_trips(self, trips: np.ndarray) -> None:
        """Report per-lane loop trip counts for divergence accounting.

        Lanes of one wavefront execute in lockstep, so the wavefront
        issues ``max(trips)`` iterations while only ``sum(trips)`` are
        useful.
        """
        if self._trace is None:
            return
        trips = np.asarray(trips, dtype=np.int64).ravel()
        w = self.device.wavefront_size
        nwf = -(-trips.size // w)
        pad = nwf * w - trips.size
        if pad:
            trips = np.concatenate([trips, np.zeros(pad, dtype=np.int64)])
        per_wf = trips.reshape(nwf, w)
        self._trace.lanes_issued += int(per_wf.max(axis=1).sum()) * w
        self._trace.lanes_useful += int(per_wf.sum())


def launch(
    kernel: Callable,
    num_groups: int,
    local_size: int,
    args: Sequence,
    device: DeviceSpec = TESLA_C2050,
    trace: bool = True,
    cache: Optional[SegmentCache] = None,
) -> KernelTrace:
    """Run ``kernel`` over ``num_groups`` work-groups of ``local_size``.

    Returns the aggregated :class:`~repro.ocl.trace.KernelTrace`
    (zero-valued when tracing is off).  A fresh L2
    :class:`~repro.ocl.memory.SegmentCache` is created per launch
    unless one is passed in (pass the previous launch's cache to model
    back-to-back kernels sharing residency).
    """
    if num_groups < 0:
        raise LaunchError(f"num_groups must be >= 0, got {num_groups}")
    if local_size <= 0:
        raise LaunchError(f"local_size must be positive, got {local_size}")
    if _flt.ACTIVE is not None:
        _flt.ACTIVE.on_launch(kernel_name(kernel))
    total = KernelTrace()
    total.work_groups = num_groups
    total.wavefronts = num_groups * (-(-local_size // device.wavefront_size))
    t = total if trace else None
    if trace and cache is None and device.l2_bytes > 0:
        cache = SegmentCache(device.l2_bytes, device.transaction_bytes)
    sess = _obs.ACTIVE
    t0 = _obs.perf_counter() if sess is not None else 0.0
    for gid in range(num_groups):
        ctx = WorkGroupCtx(device, gid, local_size, t, cache)
        kernel(ctx, *args)
    if _flt.ACTIVE is not None:
        _flt.ACTIVE.on_launch_exit(kernel_name(kernel), args)
    if sess is not None:
        sess.record_kernel(
            kernel_name(kernel), work_groups=num_groups,
            local_size=local_size, executor="pergroup",
            wall_s=_obs.perf_counter() - t0, trace=t,
        )
    return total


class BatchCtx:
    """Execution context spanning a contiguous range of work-groups
    that all execute the same code path.

    The same kernel surface as :class:`WorkGroupCtx`, but ``group_id``
    is a ``(num_groups, 1)`` column so every index expression written
    against it broadcasts to a ``(num_groups, local_size)`` lane grid
    and each load/store moves all groups' lanes in one numpy call.

    Trace parity with the per-group engine:

    - :meth:`gload`/:meth:`gstore` only *record* the access: its byte
      addresses and active lanes are copied into pending grids (a
      kernel may mutate its index or mask arrays in place afterwards).
      When the grids are full (:data:`BATCH_PENDING_LANES` lanes, or
      one access if that is larger), and at :meth:`finalize`, one
      :func:`~repro.ocl.memory.count_rows` pass over the stacked rows
      (one per access and group) applies the exact per-wavefront
      segment rule of :func:`~repro.ocl.memory.wavefront_segments` and
      charges requests, transactions and useful bytes;
    - the L2 model is order-sensitive (LRU), so :meth:`finalize`
      replays the rows' segments with
      :func:`~repro.ocl.memory.replay_rows` in per-group execution
      order (group-major, statements in program order), producing the
      identical hit/miss sequence the sequential engine would, and
      moves the hits from load transactions to ``l2_hits``;
    - atomics (:meth:`gatomic_add`) bypass the L2 model and are
      counted at once.
    """

    def __init__(self, device: DeviceSpec, group_ids: np.ndarray,
                 local_size: int, trace: Optional[KernelTrace],
                 cache: Optional[SegmentCache] = None):
        self.device = device
        self.local_size = int(local_size)
        ids = np.asarray(group_ids, dtype=np.int64)
        self.num_groups = int(ids.size)
        #: group ids as a column vector — broadcasts against ``lid``
        self.group_id = ids.reshape(-1, 1)
        #: local work-item ids, shape (local_size,)
        self.lid = np.arange(self.local_size, dtype=np.int64)
        self._shape = (self.num_groups, self.local_size)
        self._rows = np.arange(self.num_groups, dtype=np.int64).reshape(-1, 1)
        self._trace = trace
        self._cache = cache
        self._local_bytes = 0
        # recorded, not yet counted: per access (is_load, buf_id,
        # itemsize); its rows of byte addresses and live lanes sit in
        # the pending grids, allocated on the first record
        self._pending: List[Tuple[bool, int, int]] = []
        self._addr: Optional[np.ndarray] = None
        self._live: Optional[np.ndarray] = None
        # counted, awaiting the L2 replay: per access its buffer id and
        # load flag, per pass its segments and per-row counts
        self._replay_access: List[Tuple[int, bool]] = []
        self._replay_segments: List[np.ndarray] = []
        self._replay_counts: List[np.ndarray] = []

    def sub(self, lo: int, hi: int) -> "BatchCtx":
        """A child context for work-groups ``lo..hi-1`` (one uniform
        region of a multi-region kernel), sharing trace and cache.
        The caller must :meth:`finalize` each child before starting
        the next so the L2 replay stays in launch order."""
        return BatchCtx(self.device, np.arange(lo, hi, dtype=np.int64),
                        self.local_size, self._trace, self._cache)

    def _record(self, is_load: bool, buf: Buffer, idx: np.ndarray,
                mask: np.ndarray | None) -> None:
        """Defer one global access's trace accounting (see the class
        docstring): copy its byte addresses and live lanes into the
        pending grids, and count them once the grids are full."""
        groups = self.num_groups
        if not groups:
            return
        if self._addr is None:
            w = self.device.wavefront_size
            span = -(-self.local_size // w) * w
            rows = groups * max(1, BATCH_PENDING_LANES // (groups * span))
            self._addr = np.empty((rows, span), dtype=np.int64)
            self._live = np.zeros((rows, span), dtype=bool)
        r0 = len(self._pending) * groups
        lanes = self.local_size
        addr = self._addr[r0:r0 + groups, :lanes]
        np.multiply(idx, buf.itemsize, out=addr)
        if mask is None:
            np.greater_equal(addr, 0, out=self._live[r0:r0 + groups, :lanes])
        else:
            self._live[r0:r0 + groups, :lanes] = mask
        self._pending.append((is_load, id(buf), buf.itemsize))
        if r0 + groups == self._addr.shape[0]:
            self._count_pending()

    def _count_pending(self) -> None:
        """One stacked segment pass over every recorded access."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        groups = self.num_groups
        rows = len(pending) * groups
        dev = self.device
        segments, offsets = count_rows(
            self._trace, self._addr[:rows], self._live[:rows],
            np.repeat([p[2] for p in pending], groups),
            np.repeat([p[0] for p in pending], groups),
            dev.wavefront_size, dev.transaction_bytes)
        if self._cache is not None:
            self._replay_access.extend((p[1], p[0]) for p in pending)
            self._replay_segments.append(segments)
            self._replay_counts.append(np.diff(offsets))

    def finalize(self) -> None:
        """Count the recorded accesses, then replay their segment
        streams through the L2 model in per-group execution order and
        move the absorbed load transactions into ``l2_hits``.
        Idempotent; a no-op when tracing is off."""
        self._count_pending()
        access = self._replay_access
        if not access:
            return
        segments = np.concatenate(self._replay_segments)
        counts = np.concatenate(self._replay_counts)
        self._replay_access = []
        self._replay_segments = []
        self._replay_counts = []
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        buffers, loads = zip(*access)
        _, hits = replay_rows(self._cache, segments, offsets, buffers,
                              loads, self.num_groups)
        self._trace.global_load_transactions -= hits
        self._trace.l2_hits += hits

    # ------------------------------------------------------------------
    # global memory
    # ------------------------------------------------------------------
    def _grid(self, arr, dtype) -> np.ndarray:
        return np.broadcast_to(np.asarray(arr, dtype=dtype), self._shape)

    def gload(self, buf: Buffer, idx: np.ndarray,
              mask: np.ndarray | None = None) -> np.ndarray:
        """One global load per (active) lane of *every* group."""
        idx = self._grid(idx, np.int64)
        if mask is not None:
            mask = self._grid(mask, bool)
        if self._trace is not None:
            self._record(True, buf, idx, mask)
        if mask is None:
            return buf.data[idx]
        out = np.zeros(self._shape, dtype=buf.data.dtype)
        out[mask] = buf.data[idx[mask]]
        return out

    def gstore(self, buf: Buffer, idx: np.ndarray, values: np.ndarray,
               mask: np.ndarray | None = None) -> None:
        """One global store per (active) lane of every group."""
        idx = self._grid(idx, np.int64)
        if mask is not None:
            mask = self._grid(mask, bool)
        if self._trace is not None:
            # write-allocate: lines become resident during replay, but
            # the DRAM write-back is charged in full
            self._record(False, buf, idx, mask)
        if mask is None:
            buf.data[idx] = values
        else:
            buf.data[idx[mask]] = np.broadcast_to(values, self._shape)[mask]

    def gatomic_add(self, buf: Buffer, idx: np.ndarray,
                    values: np.ndarray) -> None:
        """Atomic global add over every group's lanes (group order
        preserved, so the floating-point sum order matches the
        sequential engine)."""
        idx = self._grid(idx, np.int64)
        if self._trace is not None:
            dev = self.device
            req, segments, _, useful = segment_streams(
                idx, buf.itemsize, dev.wavefront_size,
                dev.transaction_bytes)
            txn = int(segments.size)
            self._trace.global_load_requests += req
            self._trace.global_load_transactions += txn
            self._trace.global_load_bytes_useful += useful
            self._trace.global_store_requests += req
            self._trace.global_store_transactions += txn
            self._trace.global_store_bytes_useful += useful
        np.add.at(buf.data, idx.ravel(),
                  np.broadcast_to(values, self._shape).ravel())

    # ------------------------------------------------------------------
    # local memory
    # ------------------------------------------------------------------
    def alloc_local(self, size: int, dtype=np.float64,
                    name: str = "lmem") -> BatchedLocalBuffer:
        """Allocate every group's local-memory copy at once (capacity
        is still checked against one CU, as each copy lives alone)."""
        lbuf = BatchedLocalBuffer(self.num_groups, size, dtype, name)
        self._local_bytes += lbuf.nbytes_per_group
        if self._local_bytes > self.device.local_mem_per_cu_bytes:
            raise LocalMemoryError(
                f"work-group requested {self._local_bytes:,} B local memory; "
                f"CU provides {self.device.local_mem_per_cu_bytes:,} B"
            )
        return lbuf

    def lload(self, lbuf: BatchedLocalBuffer, idx: np.ndarray,
              mask: np.ndarray | None = None) -> np.ndarray:
        """One local-memory load per (active) lane of every group."""
        idx = self._grid(idx, np.int64)
        if self._trace is not None:
            active = idx.size if mask is None else int(np.count_nonzero(
                self._grid(mask, bool)))
            self._trace.local_load_bytes += active * lbuf.itemsize
        if mask is None:
            return lbuf.data[self._rows, idx]
        mask = self._grid(mask, bool)
        out = np.zeros(self._shape, dtype=lbuf.data.dtype)
        rows = np.broadcast_to(self._rows, self._shape)
        out[mask] = lbuf.data[rows[mask], idx[mask]]
        return out

    def lstore(self, lbuf: BatchedLocalBuffer, idx: np.ndarray,
               values: np.ndarray, mask: np.ndarray | None = None) -> None:
        """One local-memory store per (active) lane of every group."""
        idx = self._grid(idx, np.int64)
        if self._trace is not None:
            active = idx.size if mask is None else int(np.count_nonzero(
                self._grid(mask, bool)))
            self._trace.local_store_bytes += active * lbuf.itemsize
        if mask is None:
            lbuf.data[self._rows, idx] = values
            return
        mask = self._grid(mask, bool)
        rows = np.broadcast_to(self._rows, self._shape)
        vals = np.broadcast_to(values, self._shape)
        lbuf.data[rows[mask], idx[mask]] = vals[mask]

    # ------------------------------------------------------------------
    # control / accounting
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """One barrier executed by every group of the batch."""
        if self._trace is not None:
            self._trace.barriers += self.num_groups

    def flops(self, n: int) -> None:
        """Report ``n`` floating-point operations across all groups."""
        if self._trace is not None:
            self._trace.flops += int(n)

    def loop_trips(self, trips: np.ndarray) -> None:
        """Per-lane loop trip counts for all groups at once."""
        if self._trace is None:
            return
        trips = self._grid(trips, np.int64)
        w = self.device.wavefront_size
        m = self.local_size
        nwf = -(-m // w)
        pad = nwf * w - m
        if pad:
            trips = np.concatenate(
                [trips, np.zeros((self.num_groups, pad), dtype=np.int64)],
                axis=1,
            )
        per_wf = trips.reshape(self.num_groups * nwf, w)
        self._trace.lanes_issued += int(per_wf.max(axis=1).sum()) * w if per_wf.size else 0
        self._trace.lanes_useful += int(per_wf.sum())


def launch_batched(
    kernel: Callable,
    num_groups: int,
    local_size: int,
    args: Sequence,
    device: DeviceSpec = TESLA_C2050,
    trace: bool = True,
    cache: Optional[SegmentCache] = None,
) -> KernelTrace:
    """Run a *batched* kernel over ``num_groups`` work-groups at once.

    ``kernel(ctx, *args)`` receives a single :class:`BatchCtx` covering
    every group; a uniform kernel (all groups execute the same path —
    the CRSD guarantee, also true of DIA/ELL) runs in one vectorised
    pass instead of ``num_groups`` sequential
    :class:`WorkGroupCtx` invocations.  Multi-region kernels partition
    the grid themselves via :meth:`BatchCtx.sub`.

    Counters and results match :func:`launch` exactly; see
    :class:`BatchCtx`.
    """
    if num_groups < 0:
        raise LaunchError(f"num_groups must be >= 0, got {num_groups}")
    if local_size <= 0:
        raise LaunchError(f"local_size must be positive, got {local_size}")
    if _flt.ACTIVE is not None:
        _flt.ACTIVE.on_launch(kernel_name(kernel))
    total = KernelTrace()
    total.work_groups = num_groups
    total.wavefronts = num_groups * (-(-local_size // device.wavefront_size))
    if trace and cache is None and device.l2_bytes > 0:
        cache = SegmentCache(device.l2_bytes, device.transaction_bytes)
    sess = _obs.ACTIVE
    t0 = _obs.perf_counter() if sess is not None else 0.0
    ctx = BatchCtx(device, np.arange(num_groups, dtype=np.int64), local_size,
                   total if trace else None, cache)
    kernel(ctx, *args)
    ctx.finalize()
    if _flt.ACTIVE is not None:
        _flt.ACTIVE.on_launch_exit(kernel_name(kernel), args)
    if sess is not None:
        sess.record_kernel(
            kernel_name(kernel), work_groups=num_groups,
            local_size=local_size, executor="batched",
            wall_s=_obs.perf_counter() - t0,
            trace=total if trace else None,
        )
    return total


def launch_grid(
    kernel: Callable,
    num_groups: int,
    local_size: int,
    args: Sequence,
    device: DeviceSpec = TESLA_C2050,
    trace: bool = True,
) -> KernelTrace:
    """Run a shape-generic kernel on the selected engine.

    The kernel must work both per group and over a lane grid (index
    expressions built from ``ctx.group_id`` and ``ctx.lid``; arrays
    shaped like them).  ``REPRO_EXECUTOR=pergroup`` runs it with
    :func:`launch`; any other mode runs one :func:`launch_batched` over
    consecutive chunks of at most :data:`BATCH_CHUNK_LANES` lanes, each
    a :meth:`BatchCtx.sub` finalized before the next, so the L2 replay
    stays group-major and ``y``/counters match :func:`launch`.  The
    kernel's name (fault sites, spans) is kept.
    """
    if executor_mode() == "pergroup":
        return launch(kernel, num_groups, local_size, args, device, trace)
    step = max(1, BATCH_CHUNK_LANES // local_size)

    @functools.wraps(kernel)
    def chunked(ctx: BatchCtx, *bufs) -> None:
        for lo in range(0, ctx.num_groups, step):
            sub = ctx.sub(lo, min(lo + step, ctx.num_groups))
            kernel(sub, *bufs)
            sub.finalize()

    return launch_batched(chunked, num_groups, local_size, args, device,
                          trace)
