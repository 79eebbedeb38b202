"""Simulated runtime: contexts, launches, tracing, divergence, barriers."""

import os

import numpy as np
import pytest

from repro.ocl.device import TESLA_C2050
from repro.ocl.errors import DeviceMemoryError, LaunchError, LocalMemoryError
from repro.ocl.executor import (
    EXECUTOR_ENV,
    Context,
    executor_mode,
    executor_sweep,
    launch,
)
from repro.ocl.trace import KernelTrace
from repro.validation import InputValidationError


@pytest.fixture
def tiny_device():
    return TESLA_C2050.with_overrides(global_mem_bytes=1024, l2_bytes=0)


class TestContext:
    def test_alloc_accounting(self, tiny_device):
        ctx = Context(tiny_device)
        ctx.alloc(np.zeros(64))  # 512 B
        assert ctx.allocated_bytes == 512

    def test_capacity_enforced(self, tiny_device):
        ctx = Context(tiny_device)
        ctx.alloc(np.zeros(100))
        with pytest.raises(DeviceMemoryError):
            ctx.alloc(np.zeros(100))

    def test_free_releases(self, tiny_device):
        ctx = Context(tiny_device)
        b = ctx.alloc(np.zeros(100))
        ctx.free(b)
        ctx.alloc(np.zeros(100))  # fits again

    def test_buffers_are_copies(self, tiny_device):
        host = np.zeros(4)
        ctx = Context(tiny_device)
        b = ctx.alloc(host)
        b.data[0] = 5.0
        assert host[0] == 0.0


class TestLaunch:
    def test_simple_copy_kernel(self):
        ctx = Context()
        src = ctx.alloc(np.arange(100, dtype=np.float64))
        dst = ctx.alloc_zeros(100)

        def kernel(c, a, b):
            pos = c.group_id * c.local_size + c.lid
            m = pos < 100
            v = c.gload(a, np.minimum(pos, 99), mask=m)
            c.gstore(b, np.minimum(pos, 99), v, mask=m)

        tr = launch(kernel, 4, 32, (src, dst))
        assert np.array_equal(dst.data, src.data)
        assert tr.work_groups == 4
        assert tr.wavefronts == 4
        assert tr.global_load_requests == 4
        assert tr.global_store_requests == 4

    def test_trace_off_returns_zero_counters(self):
        ctx = Context()
        buf = ctx.alloc(np.ones(32))

        def kernel(c, b):
            c.gload(b, c.lid)
            c.flops(10)

        tr = launch(kernel, 1, 32, (buf,), trace=False)
        assert tr.global_load_requests == 0
        assert tr.flops == 0

    def test_invalid_launch(self):
        with pytest.raises(LaunchError):
            launch(lambda c: None, -1, 32, ())
        with pytest.raises(LaunchError):
            launch(lambda c: None, 1, 0, ())

    def test_zero_groups(self):
        tr = launch(lambda c: None, 0, 32, ())
        assert tr.work_groups == 0


class TestLocalMemory:
    def test_alloc_and_use(self):
        def kernel(c):
            lmem = c.alloc_local(32)
            c.lstore(lmem, c.lid, c.lid.astype(float))
            c.barrier()
            v = c.lload(lmem, (c.lid + 1) % 32)
            assert v[0] == 1.0

        tr = launch(kernel, 1, 32, ())
        assert tr.barriers == 1
        assert tr.local_store_bytes == 32 * 8
        assert tr.local_load_bytes == 32 * 8

    def test_capacity_enforced(self):
        dev = TESLA_C2050.with_overrides(local_mem_per_cu_bytes=64)

        def kernel(c):
            c.alloc_local(100)

        with pytest.raises(LocalMemoryError):
            launch(kernel, 1, 32, (), device=dev)


class TestDivergence:
    def test_uniform_trips_full_efficiency(self):
        def kernel(c):
            c.loop_trips(np.full(32, 5))

        tr = launch(kernel, 1, 32, ())
        assert tr.divergence_efficiency == 1.0

    def test_one_long_lane_serialises(self):
        def kernel(c):
            trips = np.ones(32, dtype=int)
            trips[0] = 32
            c.loop_trips(trips)

        tr = launch(kernel, 1, 32, ())
        # issued 32*32, useful 63
        assert tr.divergence_efficiency == pytest.approx(63 / 1024)

    def test_no_report_means_no_divergence(self):
        tr = launch(lambda c: None, 4, 32, ())
        assert tr.divergence_efficiency == 1.0


class TestAtomics:
    def test_atomic_add_accumulates(self):
        ctx = Context()
        y = ctx.alloc_zeros(4)

        def kernel(c, yb):
            c.gatomic_add(yb, np.zeros(32, dtype=int), np.ones(32))

        launch(kernel, 2, 32, (y,))
        assert y.data[0] == 64.0

    def test_atomic_counts_both_directions(self):
        ctx = Context()
        y = ctx.alloc_zeros(4)

        def kernel(c, yb):
            c.gatomic_add(yb, np.zeros(32, dtype=int), np.ones(32))

        tr = launch(kernel, 1, 32, (y,))
        assert tr.global_load_transactions >= 1
        assert tr.global_store_transactions >= 1


class TestL2Integration:
    def test_repeated_load_hits_cache(self):
        ctx = Context()
        buf = ctx.alloc(np.ones(32))

        def kernel(c, b):
            c.gload(b, c.lid)
            c.gload(b, c.lid)

        tr = launch(kernel, 1, 32, (buf,))
        assert tr.l2_hits == 2  # second load's 2 segments hit
        assert tr.global_load_transactions == 2

    def test_cache_shared_across_groups(self):
        ctx = Context()
        buf = ctx.alloc(np.ones(32))

        def kernel(c, b):
            c.gload(b, c.lid)  # every group loads the same 32 doubles

        tr = launch(kernel, 5, 32, (buf,))
        assert tr.global_load_transactions == 2
        assert tr.l2_hits == 8

    def test_l2_disabled(self):
        dev = TESLA_C2050.with_overrides(l2_bytes=0)
        ctx = Context(dev)
        buf = ctx.alloc(np.ones(32))

        def kernel(c, b):
            c.gload(b, c.lid)

        tr = launch(kernel, 5, 32, (buf,), device=dev)
        assert tr.l2_hits == 0
        assert tr.global_load_transactions == 10


class TestTrace:
    def test_merge(self):
        a = KernelTrace(flops=5, barriers=1, work_groups=2)
        b = KernelTrace(flops=7, barriers=2, work_groups=3)
        a.merge(b)
        assert a.flops == 12 and a.barriers == 3 and a.work_groups == 5

    def test_coalescing_efficiency_bounds(self):
        t = KernelTrace(global_load_transactions=4,
                        global_load_bytes_useful=256)
        assert 0 < t.load_coalescing_efficiency() <= 1.0
        assert KernelTrace().load_coalescing_efficiency() == 1.0

    def test_device_overrides(self):
        d = TESLA_C2050.with_overrides(num_cus=7)
        assert d.num_cus == 7
        assert d.name == TESLA_C2050.name
        assert TESLA_C2050.num_cus == 14

    def test_peak_gflops_lookup(self):
        assert TESLA_C2050.peak_gflops("double") == 515.0
        assert TESLA_C2050.peak_gflops("single") == 1030.0
        with pytest.raises(ValueError):
            TESLA_C2050.peak_gflops("half")

    @pytest.mark.parametrize("overrides", [
        {"transaction_bytes": -128},
        {"transaction_bytes": 0},
        {"wavefront_size": 0},
        {"wavefront_size": -32},
        {"l2_bytes": -1},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_device_rejects_nonsense_geometry(self, overrides):
        with pytest.raises(InputValidationError, match=next(iter(overrides))):
            TESLA_C2050.with_overrides(**overrides)

    def test_device_accepts_disabled_l2(self):
        assert TESLA_C2050.with_overrides(l2_bytes=0).l2_bytes == 0


class TestExecutorSweep:
    """``executor_sweep`` selects engines inside the block and gives
    ``REPRO_EXECUTOR`` back its earlier state on every exit."""

    @pytest.mark.parametrize("before", [None, "pergroup"])
    def test_restores_on_exit_and_on_error(self, before, monkeypatch):
        if before is None:
            monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        else:
            monkeypatch.setenv(EXECUTOR_ENV, before)
        with executor_sweep(("batched", "fused")) as select:
            select("batched")
            assert executor_mode() == "batched"
            select("fused")
            assert executor_mode() == "fused"
        assert os.environ.get(EXECUTOR_ENV) == before
        with pytest.raises(RuntimeError):
            with executor_sweep(("batched",)) as select:
                select("batched")
                raise RuntimeError("case failed")
        assert os.environ.get(EXECUTOR_ENV) == before

    def test_unknown_executor_raises_before_the_block(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "pergroup")
        entered = []
        with pytest.raises(ValueError, match="unknown executor 'gpu'"):
            with executor_sweep(("batched", "gpu")):
                entered.append(True)
        assert not entered
        assert os.environ[EXECUTOR_ENV] == "pergroup"
