"""Device specifications for the simulated OpenCL platform.

The numbers for the Tesla C2050 come from the paper's platform table
(Table IV: 448 CUDA cores at 1.15 GHz, 3 GB device memory) and the
published datasheet (144 GB/s memory bandwidth, 515 / 1030 GFLOPS
double/single peak, 48 KB shared memory per SM, 128-byte memory
transactions).  The performance model treats these as calibration
constants — see ``repro/perf/calibration.py`` for the derived
efficiency factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.validation import InputValidationError


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of an OpenCL device.

    Attributes
    ----------
    name:
        Marketing name.
    num_cus:
        Compute units (CUDA streaming multiprocessors).
    pes_per_cu:
        Processing elements per CU (CUDA cores per SM).
    wavefront_size:
        Work-items executing in lockstep (CUDA warp = 32).
    clock_ghz:
        PE clock.
    global_mem_bytes:
        Device (global) memory capacity — allocations beyond this raise
        :class:`~repro.ocl.errors.DeviceMemoryError`.
    global_bw_gbs:
        Peak global-memory bandwidth in GB/s.
    local_mem_per_cu_bytes:
        Local (shared) memory available to one work-group.
    local_bw_multiplier:
        Local-memory bandwidth relative to global (an order of
        magnitude on Fermi).
    peak_gflops_sp / peak_gflops_dp:
        Peak arithmetic throughput per precision.
    transaction_bytes:
        Size of one global-memory transaction; a wavefront load
        touching N distinct transaction-sized segments issues N
        transactions (this is what "coalescing" measures).
    global_latency_cycles:
        Latency of one global transaction, used for the latency-bound
        term on very small launches.
    barrier_cost_cycles:
        Cost of one work-group barrier.
    kernel_launch_us:
        Fixed host-side launch overhead per kernel.
    """

    name: str
    num_cus: int
    pes_per_cu: int
    wavefront_size: int
    clock_ghz: float
    global_mem_bytes: int
    global_bw_gbs: float
    local_mem_per_cu_bytes: int
    local_bw_multiplier: float
    peak_gflops_sp: float
    peak_gflops_dp: float
    transaction_bytes: int = 128
    global_latency_cycles: int = 400
    barrier_cost_cycles: int = 40
    kernel_launch_us: float = 7.0
    #: unified L2 cache (bytes); global loads hitting a resident line
    #: cost no DRAM transaction (Fermi: 768 KB)
    l2_bytes: int = 768 * 1024

    def __post_init__(self):
        # the coalescing rule divides by both; a non-positive value
        # would either crash deep in a launch or count nonsense
        for name in ("wavefront_size", "transaction_bytes"):
            if getattr(self, name) <= 0:
                raise InputValidationError(
                    f"DeviceSpec.{name} must be positive, got "
                    f"{getattr(self, name)!r}")
        if self.l2_bytes < 0:
            raise InputValidationError(
                f"DeviceSpec.l2_bytes must be >= 0 (0 disables the L2 "
                f"model), got {self.l2_bytes!r}")

    @property
    def num_pes(self) -> int:
        return self.num_cus * self.pes_per_cu

    def peak_gflops(self, precision: str) -> float:
        """Peak arithmetic throughput for "double"/"single"."""
        p = precision.lower()
        if p in ("double", "fp64"):
            return self.peak_gflops_dp
        if p in ("single", "fp32"):
            return self.peak_gflops_sp
        raise ValueError(f"unknown precision {precision!r}")

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """A copy with some fields replaced (used by ablations)."""
        return replace(self, **kwargs)


#: The paper's GPU (Table IV + NVIDIA datasheet).
TESLA_C2050 = DeviceSpec(
    name="Tesla C2050",
    num_cus=14,
    pes_per_cu=32,
    wavefront_size=32,
    clock_ghz=1.15,
    global_mem_bytes=3 * 1024**3,
    global_bw_gbs=144.0,
    local_mem_per_cu_bytes=48 * 1024,
    local_bw_multiplier=10.0,
    peak_gflops_sp=1030.0,
    peak_gflops_dp=515.0,
)

#: AMD Radeon HD 5870 "Cypress" — the OpenCL portability target the
#: paper's conclusion names ("we will do more evaluations on different
#: platforms, such as Cell and AMD devices").  64-wide wavefronts, no
#: general read/write cache for global buffers in this generation
#: (l2_bytes=0), 32 KB LDS per CU.
AMD_CYPRESS = DeviceSpec(
    name="Radeon HD 5870 (Cypress)",
    num_cus=20,
    pes_per_cu=80,
    wavefront_size=64,
    clock_ghz=0.85,
    global_mem_bytes=1 * 1024**3,
    global_bw_gbs=153.6,
    local_mem_per_cu_bytes=32 * 1024,
    local_bw_multiplier=8.0,
    peak_gflops_sp=2720.0,
    peak_gflops_dp=544.0,
    transaction_bytes=256,
    global_latency_cycles=500,
    l2_bytes=0,
)

#: NVIDIA GTX 285 — Bell & Garland's 2009 evaluation GPU (GT200: no
#: general-purpose cache, 16 KB shared memory per SM).
GTX_285 = DeviceSpec(
    name="GeForce GTX 285",
    num_cus=30,
    pes_per_cu=8,
    wavefront_size=32,
    clock_ghz=1.476,
    global_mem_bytes=1 * 1024**3,
    global_bw_gbs=159.0,
    local_mem_per_cu_bytes=16 * 1024,
    local_bw_multiplier=10.0,
    peak_gflops_sp=1063.0,
    peak_gflops_dp=89.0,
    transaction_bytes=64,
    global_latency_cycles=550,
    l2_bytes=0,
)

#: all predefined devices by short name
DEVICES = {
    "c2050": TESLA_C2050,
    "cypress": AMD_CYPRESS,
    "gtx285": GTX_285,
}
