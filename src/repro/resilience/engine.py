"""The graceful-degradation ladder: resilient SpMV execution.

:func:`resilient_spmv` runs one ``y = A @ x`` under a
:class:`~repro.resilience.policy.Policy`: each ladder rung is attempted
up to ``max_attempts`` times (transient faults are retried with
deterministic backoff accounting); a rung that keeps failing is
abandoned for the next, less demanding one —

    CRSD+local-mem → CRSD no-local → HYB → CSR → CPU reference

(the HYB rung is exactly Bell & Garland's ELL+COO degradation, and the
walk itself is the feasibility-driven format fallback the
format-selection literature applies when the preferred layout does not
fit).  Every candidate ``y`` is verified against the COO reference, and
an attempt during which a *soft* fault touched the output is
invalidated outright — a served result is therefore bit-identical to
the fault-free run of the serving rung.  Only when every rung fails
does a typed :class:`~repro.resilience.policy.ResilienceExhausted`
escape, carrying the full :class:`IncidentReport`.

Incidents are also emitted as observation spans/events (category
``resilience``) when a profile session is active, so chaos runs show up
in the same reports as healthy ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import recorder as _obs
from repro.obs.recorder import maybe_span
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.errors import OCLError
from repro.resilience import faults as _flt
from repro.resilience.policy import Policy, ResilienceExhausted
from repro.validation import check_operand

__all__ = [
    "DEFAULT_LADDER",
    "AttemptRecord",
    "IncidentReport",
    "ladder_for",
    "resilient_spmv",
]

#: the full degradation ladder, most- to least-demanding
DEFAULT_LADDER: Tuple[str, ...] = (
    "crsd", "crsd-nolocal", "hyb", "csr", "cpu",
)


def ladder_for(fmt: str, use_local_memory: bool = True) -> Tuple[str, ...]:
    """The rung sequence for a requested format.

    Formats on the default ladder enter it at their own rung; DIA and
    ELL (not fallback rungs themselves — they are the *demanding*
    layouts the ladder exists to degrade from) run first and then join
    the ladder at HYB.
    """
    if fmt == "crsd":
        ladder = DEFAULT_LADDER if use_local_memory else DEFAULT_LADDER[1:]
    elif fmt == "crsd-nolocal":
        ladder = DEFAULT_LADDER[1:]
    elif fmt in ("dia", "ell"):
        ladder = (fmt,) + DEFAULT_LADDER[2:]
    elif fmt in DEFAULT_LADDER:
        ladder = DEFAULT_LADDER[DEFAULT_LADDER.index(fmt):]
    else:
        raise ValueError(
            f"no resilience ladder for format {fmt!r}; expected one of "
            f"{('crsd', 'crsd-nolocal', 'dia', 'ell', 'hyb', 'csr', 'cpu')}")
    return tuple(ladder)


@dataclass
class AttemptRecord:
    """One attempt of one rung."""

    rung: str
    attempt: int                     # 1-based within the rung
    outcome: str                     # served | fault | corrupt | verify-failed
    error: Optional[str] = None      # exception type name for faults
    message: str = ""
    backoff_s: float = 0.0           # simulated backoff charged *after*
    #                                  this attempt, before the retry

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation of this attempt."""
        return {
            "rung": self.rung,
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "message": self.message,
            "backoff_s": self.backoff_s,
        }


@dataclass
class IncidentReport:
    """Everything one resilient SpMV call went through."""

    requested: str
    precision: str
    served_rung: Optional[str] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    total_backoff_s: float = 0.0
    faults_seen: int = 0             # injector events during this call
    verified: Optional[bool] = None  # verification result of the served y

    @property
    def degraded(self) -> bool:
        """Whether the serving rung differs from the requested one."""
        return self.served_rung is not None and \
            self.served_rung != self.requested

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation of the whole incident."""
        return {
            "requested": self.requested,
            "precision": self.precision,
            "served_rung": self.served_rung,
            "degraded": self.degraded,
            "attempts": [a.to_dict() for a in self.attempts],
            "total_backoff_s": self.total_backoff_s,
            "faults_seen": self.faults_seen,
            "verified": self.verified,
        }


class _CpuReference:
    """The ladder's last rung: the host COO reference kernel.

    Mimics the runner surface ``resilient_spmv`` needs (``prepare`` /
    ``run``) so the rung loop stays uniform; the trace is empty — no
    device work happens.
    """

    name = "cpu"

    def __init__(self, coo, dtype):
        self.coo = coo
        self.dtype = dtype

    def prepare(self) -> "_CpuReference":
        return self

    def run(self, x: np.ndarray, trace: bool = True):
        from repro.gpu_kernels.base import SpMVRun
        from repro.ocl.trace import KernelTrace

        x = np.ascontiguousarray(x, dtype=self.dtype)
        y = self.coo.matvec(x).astype(self.dtype)
        return SpMVRun(y=y, trace=KernelTrace())


def _make_rung_runner(rung: str, coo, device: DeviceSpec, precision: str,
                      mrows: int, dtype):
    """Build a fresh, unprepared runner for one ladder rung.

    Fresh per attempt: a fault mid-``prepare`` must not leave partial
    device allocations behind for the retry.
    """
    from repro.bench.runner import _build_runners

    if rung == "cpu":
        return _CpuReference(coo, dtype)
    fmt = "crsd" if rung == "crsd-nolocal" else rung
    return _build_runners(
        coo, device, precision, [fmt], mrows,
        use_local_memory=(rung != "crsd-nolocal"),
    )[fmt]


def resilient_spmv(
    A,
    x: np.ndarray,
    format: str = "crsd",
    *,
    device: DeviceSpec = TESLA_C2050,
    precision: str = "double",
    mrows: int = 128,
    use_local_memory: bool = True,
    policy: Optional[Policy] = None,
    trace: bool = True,
):
    """``y = A @ x`` that degrades instead of dying.

    Returns an :class:`~repro.gpu_kernels.base.SpMVRun` whose
    ``resilience`` field carries the :class:`IncidentReport`; raises
    :class:`~repro.resilience.policy.ResilienceExhausted` only when
    every ladder rung failed.  ``A`` is anything
    :func:`repro.api._as_coo` understands.  ``x`` passes
    :func:`~repro.validation.check_operand` with NaN/Inf rejected
    before any rung runs: a non-finite ``y`` can never verify against
    the reference, so the ladder would only exhaust itself on it.
    """
    from repro.api import _as_coo
    from repro.gpu_kernels.base import precision_dtype

    policy = policy or Policy()
    coo = _as_coo(A)
    dtype = precision_dtype(precision)
    x = check_operand(x, coo.ncols, dtype=np.float64, finite=True)
    ref = coo.matvec(x)
    refscale = max(1.0, float(np.abs(ref).max()))
    tol = policy.verify_tol if policy.verify_tol is not None else (
        1e-6 if precision == "double" else 1e-2)

    rungs: Sequence[str] = policy.ladder or ladder_for(format,
                                                       use_local_memory)
    report = IncidentReport(requested=rungs[0], precision=precision)
    inj = _flt.ACTIVE
    ev0 = len(inj.events) if inj is not None else 0

    with maybe_span("resilience.spmv", "resilience", requested=rungs[0],
                    precision=precision):
        for rung in rungs:
            for attempt in range(1, policy.max_attempts + 1):
                mark = len(inj.events) if inj is not None else 0
                rec = AttemptRecord(rung=rung, attempt=attempt,
                                    outcome="served")
                with maybe_span("resilience.attempt", "resilience",
                                rung=rung, attempt=attempt):
                    try:
                        runner = _make_rung_runner(
                            rung, coo, device, precision, mrows, dtype)
                        run = runner.prepare().run(x, trace=trace)
                    except OCLError as exc:
                        rec.outcome = "fault"
                        rec.error = type(exc).__name__
                        rec.message = str(exc)
                        run = None
                if run is not None and inj is not None and \
                        inj.soft_events_since(mark):
                    # the output was touched by a soft fault: the
                    # numbers cannot be trusted, retry as if it failed
                    rec.outcome = "corrupt"
                    rec.error = "SoftFault"
                    rec.message = (
                        f"{inj.soft_events_since(mark)} soft fault(s) "
                        "hit this attempt's launches")
                    run = None
                if run is not None and policy.verify:
                    err = float(np.abs(
                        run.y.astype(np.float64) - ref).max()) / refscale
                    if not np.isfinite(err) or err > tol:
                        rec.outcome = "verify-failed"
                        rec.error = "VerificationError"
                        rec.message = f"rel err {err:.3e} > tol {tol:.1e}"
                        run = None
                if run is not None:
                    report.attempts.append(rec)
                    report.served_rung = rung
                    report.verified = bool(policy.verify)
                    report.faults_seen = (
                        len(inj.events) - ev0 if inj is not None else 0)
                    if _obs.ACTIVE is not None:
                        _obs.ACTIVE.record_event(
                            "resilience.served", "resilience", rung=rung,
                            degraded=report.degraded,
                            attempts=len(report.attempts),
                            total_backoff_s=report.total_backoff_s,
                        )
                    run.resilience = report
                    return run
                # failed attempt: charge deterministic backoff before a
                # retry of the same rung (no backoff before descending)
                if attempt < policy.max_attempts:
                    rec.backoff_s = policy.backoff_s(attempt)
                    report.total_backoff_s += rec.backoff_s
                report.attempts.append(rec)
                if _obs.ACTIVE is not None:
                    _obs.ACTIVE.record_event(
                        "resilience.fault", "resilience", rung=rung,
                        attempt=attempt, outcome=rec.outcome,
                        error=rec.error or "",
                    )
            if _obs.ACTIVE is not None and rung != rungs[-1]:
                _obs.ACTIVE.record_event(
                    "resilience.fallback", "resilience", abandoned=rung)

    report.faults_seen = len(inj.events) - ev0 if inj is not None else 0
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.record_event(
            "resilience.exhausted", "resilience",
            attempts=len(report.attempts))
    raise ResilienceExhausted(
        f"every rung of the ladder failed ({' -> '.join(rungs)}; "
        f"{len(report.attempts)} attempts)", report=report)
