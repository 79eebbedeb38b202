"""Shared machinery for GPU SpMV kernel runners.

A runner owns the device-side buffers for one matrix (allocated once,
capacity-checked) and executes the kernel for arbitrary source vectors,
returning the result and the execution trace.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.obs.recorder import maybe_span
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.executor import Context
from repro.ocl.trace import KernelTrace
from repro.resilience import faults as _flt
from repro.validation import check_operand

#: default work-group size for one-work-item-per-row kernels
DEFAULT_LOCAL_SIZE = 128

def quiet_ieee(run):
    """Decorate a runner entry to run with numpy's invalid/overflow
    warnings off: the kernels' IEEE results (``inf * 0`` and
    ``inf - inf`` are NaN, a large product is inf) are defined, so
    those warnings are noise a caller cannot act on."""
    @functools.wraps(run)
    def quiet(*args, **kwargs):
        with np.errstate(invalid="ignore", over="ignore"):
            return run(*args, **kwargs)
    return quiet


def precision_dtype(precision: str):
    """numpy dtype for "double"/"single"."""
    p = precision.lower()
    if p in ("double", "fp64"):
        return np.float64
    if p in ("single", "fp32"):
        return np.float32
    raise ValueError(f"unknown precision {precision!r}")


@dataclass
class SpMVRun:
    """Result of one kernel execution.

    ``metrics`` is optional and populated only by the instrumentation
    layer (:mod:`repro.obs` / the :func:`repro.spmv` facade);
    ``resilience`` is populated only by the resilient execution layer
    (:mod:`repro.resilience`, ``repro.spmv(..., resilience=...)``) and
    carries the :class:`~repro.resilience.engine.IncidentReport`.  The
    classic ``SpMVRun(y, trace)`` construction is unchanged.
    """

    y: np.ndarray
    trace: KernelTrace
    metrics: Optional[Dict[str, Any]] = field(default=None, compare=False)
    resilience: Optional[Any] = field(default=None, compare=False)


class GPUSpMV(abc.ABC):
    """Base class for SpMV kernel runners.

    Subclasses implement :meth:`_prepare` (allocate matrix buffers) and
    :meth:`_execute` (launch kernels for one ``x``).

    Parameters
    ----------
    device:
        Target device spec (capacity, wavefront, transaction size).
    precision:
        "double" or "single"; matrix values and vectors are held at
        this precision on the device.
    local_size:
        Work-group size for the main kernel.
    """

    #: kernel family name for reports ("dia", "ell", ...)
    name: str = "abstract"

    def __init__(
        self,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        local_size: int = DEFAULT_LOCAL_SIZE,
    ):
        self.device = device
        self.precision = precision
        self.dtype = precision_dtype(precision)
        self.local_size = int(local_size)
        self.context = Context(device)
        self._prepared = False

    def prepare(self) -> "GPUSpMV":
        """Allocate and populate device buffers (idempotent).

        Raises :class:`~repro.ocl.errors.DeviceMemoryError` when the
        format does not fit — the paper's DIA/double case.
        """
        if not self._prepared:
            if _flt.ACTIVE is not None:
                _flt.ACTIVE.on_phase(f"{self.name}.prepare")
            with maybe_span(f"{self.name}.prepare", "prepare",
                            kernel=self.name, precision=self.precision):
                self._prepare()
            self._prepared = True
        return self

    @quiet_ieee
    def run(self, x: np.ndarray, trace: bool = True) -> SpMVRun:
        """Compute ``y = A @ x`` on the device.

        ``x`` passes :func:`~repro.validation.check_operand` (NaN/Inf
        accepted).
        """
        self.prepare()
        if _flt.ACTIVE is not None:
            _flt.ACTIVE.on_phase(f"{self.name}.run")
        x = check_operand(x, self.ncols, dtype=self.dtype)
        with maybe_span(f"{self.name}.spmv", "op", kernel=self.name,
                        precision=self.precision, nrows=self.nrows,
                        ncols=self.ncols):
            return self._execute(x, trace)

    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def nrows(self) -> int: ...

    @property
    @abc.abstractmethod
    def ncols(self) -> int: ...

    @abc.abstractmethod
    def _prepare(self) -> None: ...

    @abc.abstractmethod
    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun: ...

    # ------------------------------------------------------------------
    @property
    def device_bytes(self) -> int:
        """Bytes currently allocated on the device for this runner."""
        return self.context.allocated_bytes

    def groups_for_rows(self, nrows: int) -> int:
        """Work-groups needed at one work-item per row."""
        return -(-nrows // self.local_size)
