"""CRSD SpMV reproduction (Sun et al., ICPP 2011).

``repro`` implements the paper's contribution -- the CRSD sparse storage
format with runtime codelet generation -- together with every substrate
its evaluation depends on:

- ``repro.formats``      -- COO/CSR/DIA/ELL/HYB/BCSR storage formats
- ``repro.core``         -- diagonal patterns, row segments, CRSD itself
- ``repro.codegen``      -- the runtime code generator (OpenCL C + Python)
- ``repro.ocl``          -- a simulated OpenCL device and runtime
- ``repro.gpu_kernels``  -- Bell & Garland (2009) style baseline kernels
- ``repro.perf``         -- roofline/transaction performance model
- ``repro.cpu``          -- MKL-like CPU baselines and machine model
- ``repro.matrices``     -- the 23-matrix evaluation suite (synthetic)
- ``repro.bench``        -- the per-figure/table benchmark harness
- ``repro.solvers``      -- CG/BiCGSTAB/Jacobi over the SpMV kernels
- ``repro.hybrid``       -- PCIe transfers + CPU+GPU hybrid SpMV
- ``repro.obs``          -- spans, metric registries, profile exporters
- ``repro.resilience``   -- fault injection, retries, fallback ladder
- ``repro.serve``        -- plan cache, micro-batching, admission control
- ``repro.cluster``      -- sharded multi-device serving on certified plans
- ``repro.cli``          -- ``python -m repro info/bench/serve/loadgen/...``

The package root doubles as the facade (:mod:`repro.api`)::

    import repro

    run = repro.spmv(A, x, format="auto")   # -> SpMVRun (y, trace, metrics)
    runner = repro.build(A, format="crsd")  # -> prepared kernel runner
    report = repro.profile(A)               # -> ProfileReport
    session = repro.serve_session()         # -> ServeEngine (request stream)

Heavy submodules load lazily (PEP 562), so ``import repro`` stays cheap
and instrumentation-free code paths never pay for the observation
layer.
"""

from repro._version import __version__

__all__ = [
    "__version__",
    # facade verbs
    "spmv",
    "build",
    "profile",
    "auto_format",
    # key public classes
    "CRSDMatrix",
    "COOMatrix",
    "CrsdSpMV",
    "DeviceSpec",
    "SpMVRun",
    # observation entry points
    "observe",
    "ProfileReport",
    # resilience entry points
    "Policy",
    "ResilienceExhausted",
    "FaultInjector",
    "InputValidationError",
    # serving entry points
    "serve_session",
    "Engine",
    "PlanCache",
    "ServeOverloaded",
    "ClusterEngine",
    "fingerprint",
]

#: lazily-resolved public attribute -> defining module
_LAZY = {
    "spmv": "repro.api",
    "build": "repro.api",
    "profile": "repro.api",
    "auto_format": "repro.api",
    "CRSDMatrix": "repro.core.crsd",
    "COOMatrix": "repro.formats.coo",
    "CrsdSpMV": "repro.gpu_kernels",
    "DeviceSpec": "repro.ocl.device",
    "SpMVRun": "repro.gpu_kernels.base",
    "observe": "repro.obs.recorder",
    "ProfileReport": "repro.obs.report",
    "Policy": "repro.resilience.policy",
    "ResilienceExhausted": "repro.resilience.policy",
    "FaultInjector": "repro.resilience.faults",
    "InputValidationError": "repro.validation",
    "serve_session": "repro.serve",
    "Engine": "repro.serve.engine",
    "PlanCache": "repro.serve.cache",
    "ServeOverloaded": "repro.serve.admission",
    "ClusterEngine": "repro.cluster",
    "fingerprint": "repro.core.serialize",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        value = getattr(importlib.import_module(_LAZY[name]), name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
