"""Batched execution engine: counter parity with the per-group oracle.

``launch_batched`` promises the *identical* results and trace counters
as running the same uniform kernel group by group through ``launch``.
These tests express kernels against the shared ctx surface (``group_id``
broadcasts either way) and assert bit-exact buffer contents plus
field-by-field trace equality.
"""

import dataclasses

import numpy as np
import pytest

from repro.ocl.device import TESLA_C2050
from repro.ocl.errors import LaunchError, LocalMemoryError
from repro.ocl.executor import (
    BatchCtx,
    Context,
    executor_mode,
    launch,
    launch_batched,
    make_launch_cache,
)
from repro.ocl.memory import SegmentCache


def trace_dict(tr):
    return dataclasses.asdict(tr)


def run_both(kernel, num_groups, local_size, make_args,
             device=TESLA_C2050, trace=True):
    """Run ``kernel`` through both engines on fresh buffers; return
    ((per-group trace, buffers), (batched trace, buffers))."""
    out = []
    for engine in (launch, launch_batched):
        ctx = Context(device)
        args = make_args(ctx)
        tr = engine(kernel, num_groups, local_size, args,
                    device=device, trace=trace)
        out.append((tr, args))
    return out


class TestParity:
    def test_strided_copy(self):
        """Global load + masked store: same bytes, same counters."""
        def kernel(c, a, b):
            pos = c.group_id * c.local_size + c.lid
            m = pos < 100
            v = c.gload(a, np.minimum(pos, 99), mask=m)
            c.gstore(b, np.minimum(pos, 99), v, mask=m)

        def make_args(ctx):
            return (ctx.alloc(np.arange(100, dtype=np.float64)),
                    ctx.alloc_zeros(100))

        (tr_p, (_, dst_p)), (tr_b, (_, dst_b)) = run_both(
            kernel, 4, 32, make_args)
        assert np.array_equal(dst_p.data, dst_b.data)
        assert trace_dict(tr_p) == trace_dict(tr_b)

    def test_scattered_access_pattern(self):
        """Uncoalesced indices exercise the per-wavefront segment rule."""
        def kernel(c, a, b):
            idx = (c.group_id * 131 + c.lid * 17) % 256
            v = c.gload(a, idx)
            c.gstore(b, (c.group_id * c.local_size + c.lid) % 256, v * 2.0)

        def make_args(ctx):
            return (ctx.alloc(np.arange(256, dtype=np.float64)),
                    ctx.alloc_zeros(256))

        (tr_p, (_, dst_p)), (tr_b, (_, dst_b)) = run_both(
            kernel, 6, 64, make_args)
        assert np.array_equal(dst_p.data, dst_b.data)
        assert trace_dict(tr_p) == trace_dict(tr_b)

    def test_local_memory_round_trip(self):
        """lstore/lload stay group-private and count the same bytes."""
        def kernel(c, out):
            lmem = c.alloc_local(32)
            c.lstore(lmem, c.lid, (c.group_id * 100 + c.lid).astype(float))
            c.barrier()
            v = c.lload(lmem, (c.lid + 1) % 32)
            c.gstore(out, c.group_id * c.local_size + c.lid, v)

        def make_args(ctx):
            return (ctx.alloc_zeros(3 * 32),)

        (tr_p, (dst_p,)), (tr_b, (dst_b,)) = run_both(
            kernel, 3, 32, make_args)
        assert np.array_equal(dst_p.data, dst_b.data)
        assert trace_dict(tr_p) == trace_dict(tr_b)
        assert tr_b.barriers == 3
        assert tr_b.local_store_bytes == 3 * 32 * 8

    def test_atomic_add(self):
        """Colliding atomics accumulate identically (same sum order)."""
        def kernel(c, y):
            c.gatomic_add(y, (c.group_id + c.lid) % 4,
                          (c.lid + 1).astype(float) * 0.125)

        def make_args(ctx):
            return (ctx.alloc_zeros(4),)

        (tr_p, (y_p,)), (tr_b, (y_b,)) = run_both(kernel, 5, 32, make_args)
        assert np.array_equal(y_p.data, y_b.data)
        assert trace_dict(tr_p) == trace_dict(tr_b)

    def test_loop_trips_divergence(self):
        def kernel(c):
            c.loop_trips((c.group_id + c.lid) % 7 + 1)

        tr_p = launch(kernel, 4, 64, ())
        tr_b = launch_batched(kernel, 4, 64, ())
        assert trace_dict(tr_p) == trace_dict(tr_b)
        assert 0 < tr_b.divergence_efficiency < 1.0

    def test_l2_replay_order(self):
        """The LRU stream must replay group-major: with an L2 of only a
        few lines, hit counts are order-sensitive, so any reordering
        relative to the sequential engine shows up here."""
        dev = TESLA_C2050.with_overrides(l2_bytes=4 * 128)

        def kernel(c, a):
            c.gload(a, (c.group_id * 16 + c.lid) % 512)
            c.gload(a, (c.group_id * 16 + c.lid) % 512)

        def make_args(ctx):
            return (ctx.alloc(np.zeros(512)),)

        (tr_p, _), (tr_b, _) = run_both(kernel, 8, 32, make_args, device=dev)
        assert trace_dict(tr_p) == trace_dict(tr_b)
        assert tr_b.l2_hits > 0


class TestBatchedLaunch:
    def test_trace_off_returns_zero_counters(self):
        ctx = Context()
        buf = ctx.alloc(np.ones(32))

        def kernel(c, b):
            c.gload(b, c.lid)
            c.flops(10)

        tr = launch_batched(kernel, 1, 32, (buf,), trace=False)
        assert tr.global_load_requests == 0
        assert tr.flops == 0

    def test_invalid_launch(self):
        with pytest.raises(LaunchError):
            launch_batched(lambda c: None, -1, 32, ())
        with pytest.raises(LaunchError):
            launch_batched(lambda c: None, 1, 0, ())

    def test_zero_groups(self):
        tr = launch_batched(lambda c: None, 0, 32, ())
        assert tr.work_groups == 0

    def test_masked_load_zero_fills(self):
        ctx = Context()
        buf = ctx.alloc(np.full(32, 7.0))
        seen = {}

        def kernel(c, b):
            m = c.lid % 2 == 0
            seen["v"] = c.gload(b, c.lid, mask=np.broadcast_to(
                m, (c.num_groups, c.local_size)))

        launch_batched(kernel, 2, 32, (buf,))
        v = seen["v"]
        assert v.shape == (2, 32)
        assert np.all(v[:, ::2] == 7.0)
        assert np.all(v[:, 1::2] == 0.0)

    def test_local_capacity_enforced(self):
        dev = TESLA_C2050.with_overrides(local_mem_per_cu_bytes=64)

        def kernel(c):
            c.alloc_local(100)

        with pytest.raises(LocalMemoryError):
            launch_batched(kernel, 1, 32, (), device=dev)

    def test_sub_contexts_partition_the_grid(self):
        """Multi-region style: each sub-range sees its own group ids."""
        ctx = Context()
        out = ctx.alloc_zeros(8 * 16)

        def kernel(c, b):
            lo = c.sub(0, 3)
            lo.gstore(b, lo.group_id * 16 + lo.lid,
                      np.broadcast_to(1.0, (lo.num_groups, 16)))
            lo.finalize()
            hi = c.sub(3, 8)
            hi.gstore(b, hi.group_id * 16 + hi.lid,
                      np.broadcast_to(2.0, (hi.num_groups, 16)))
            hi.finalize()

        launch_batched(kernel, 8, 16, (out,))
        assert np.all(out.data[: 3 * 16] == 1.0)
        assert np.all(out.data[3 * 16:] == 2.0)


class TestLaunchCacheSharing:
    def test_shared_cache_carries_residency(self):
        """Two launches with one shared cache: the second one's loads
        hit the lines left by the first (the CRSD dia -> scatter case)."""
        ctx = Context()
        buf = ctx.alloc(np.ones(32))

        def kernel(c, b):
            c.gload(b, c.lid)

        cache = make_launch_cache(TESLA_C2050, trace=True)
        t1 = launch_batched(kernel, 1, 32, (buf,), cache=cache)
        t2 = launch_batched(kernel, 1, 32, (buf,), cache=cache)
        assert t1.global_load_transactions == 2
        assert t1.l2_hits == 0
        assert t2.global_load_transactions == 0
        assert t2.l2_hits == 2

    def test_no_cache_without_trace_or_l2(self):
        assert make_launch_cache(TESLA_C2050, trace=False) is None
        dev = TESLA_C2050.with_overrides(l2_bytes=0)
        assert make_launch_cache(dev, trace=True) is None
        cache = make_launch_cache(TESLA_C2050, trace=True)
        assert isinstance(cache, SegmentCache)


class TestExecutorMode:
    def test_default_is_fused(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert executor_mode() == "fused"

    def test_explicit_modes(self, monkeypatch):
        for mode in ("batched", "pergroup"):
            monkeypatch.setenv("REPRO_EXECUTOR", mode)
            assert executor_mode() == mode
        monkeypatch.setenv("REPRO_EXECUTOR", "  PerGroup ")
        assert executor_mode() == "pergroup"

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "warp-speed")
        with pytest.raises(LaunchError, match="REPRO_EXECUTOR"):
            executor_mode()


class TestBatchCtxShapes:
    def test_group_id_is_column(self):
        ctx = BatchCtx(TESLA_C2050, np.arange(5), 32, None)
        assert ctx.group_id.shape == (5, 1)
        assert ctx.lid.shape == (32,)
        grid = ctx.group_id * ctx.local_size + ctx.lid
        assert grid.shape == (5, 32)
        assert grid[2, 3] == 2 * 32 + 3
