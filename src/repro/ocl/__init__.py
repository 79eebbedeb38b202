"""Simulated OpenCL platform, device and runtime.

The paper runs on a Tesla C2050 through OpenCL; this environment has no
GPU, so — per the substitution policy in DESIGN.md — we implement a
functional + instrumented model of the OpenCL execution model
(Section III-A):

- a **device** is a collection of compute units (CUs) of processing
  elements (PEs), executing work-groups of work-items in lockstep
  **wavefronts**;
- four memory spaces (global / constant / local / private), with
  global-memory traffic issued in fixed-size *transactions* so that
  **coalescing** is an observable, measured quantity;
- **barriers** synchronise a work-group; **divergence** (work-items of
  one wavefront taking different paths) serialises execution and is
  likewise measured.

Kernels are Python callables written *vectorised over the work-group*
(``local_id`` is an array); they are functionally executed so results
are bit-checked against the reference SpMV, while every buffer access
is recorded into a :class:`~repro.ocl.trace.KernelTrace` that the
performance model (:mod:`repro.perf`) converts into time.
"""

from repro.ocl.device import AMD_CYPRESS, GTX_285, DeviceSpec, TESLA_C2050
from repro.ocl.errors import DeviceMemoryError, LocalMemoryError, LaunchError
from repro.ocl.memory import Buffer, LocalBuffer, MemSpace
from repro.ocl.trace import KernelTrace
from repro.ocl.executor import (
    Context, WorkGroupCtx, launch, launch_batched, launch_grid,
)

__all__ = [
    "DeviceSpec",
    "TESLA_C2050",
    "AMD_CYPRESS",
    "GTX_285",
    "DeviceMemoryError",
    "LocalMemoryError",
    "LaunchError",
    "Buffer",
    "LocalBuffer",
    "MemSpace",
    "KernelTrace",
    "Context",
    "WorkGroupCtx",
    "launch",
    "launch_batched",
    "launch_grid",
]
