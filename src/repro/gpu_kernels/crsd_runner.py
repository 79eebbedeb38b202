"""CRSD SpMV runner: generated codelets on the simulated device.

Only the value arrays travel to the device — ``crsd_dia_val`` plus the
three scatter arrays; every index is baked into the generated kernel
(that is the paper's memory-pressure reduction, measurable here as the
absence of index traffic in the trace).  The diagonal kernel launches
one work-group per row segment with ``local_size = mrows``; the scatter
ELL kernel runs second and overwrites its rows.  Both launches share
one L2 :class:`~repro.ocl.memory.SegmentCache` so the trace models the
x-vector residency the scatter kernel inherits from the diagonal pass.

The execution engine is selected by ``REPRO_EXECUTOR`` (see
:func:`~repro.ocl.executor.executor_mode`).  The default fused engine
executes the whole SpMV as a few whole-matrix expressions with a trace
synthesized from the static predictor — entered only when the analyzer
certifies the plan (see :mod:`repro.gpu_kernels.fused`); a declined
plan records a ``fused.uncertified`` event and runs on the
segment-batched engine (``REPRO_EXECUTOR=batched``), which runs each
kernel as one vectorised invocation.  The per-group reference engine
(``REPRO_EXECUTOR=pergroup``) iterates work-groups sequentially and
serves as the correctness oracle.  A fused run can additionally be
differentially verified against the batched oracle
(``REPRO_FUSED_VERIFY=first`` or ``always``); any mismatch permanently
demotes the runner to ``batched`` and files an :class:`IncidentReport`
on the served run.  :class:`~repro.shard.executor.ShardedSpMV` applies
the same policy per shard, against that shard's batched launches.

A runner builds its :class:`~repro.codegen.plan.KernelPlan` at
construction but generates the Python codelets (emit, source
validation, ``compile``) only when a batched or per-group launch, or
fused verification, first needs them: a runner the fused engine serves
never generates them.  ``strict=True`` generates them eagerly, so the
analyzer's :class:`~repro.analyze.report.KernelAnalysisError` still
raises at construction.
"""

from __future__ import annotations

import dataclasses
import os
import warnings

import numpy as np

from repro.codegen.plan import build_plan
from repro.codegen.python_codelet import generate_python_kernel
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.gpu_kernels.fused import FUSED_KERNEL_NAME, build_fused_state
from repro.obs import recorder as _obs
from repro.obs.recorder import maybe_span
from repro.ocl.executor import (
    executor_mode,
    launch,
    launch_batched,
    make_launch_cache,
)
from repro.resilience import faults as _flt

#: environment variable selecting fused differential verification:
#: ``off`` (default), ``first`` (verify the first fused run of each
#: runner against the batched oracle), ``always`` (verify every run)
FUSED_VERIFY_ENV = "REPRO_FUSED_VERIFY"

#: ladder-style rung name fused incidents report as requested
FUSED_RUNG = "crsd-fused"


def fused_verify_mode() -> str:
    """The selected fused verification policy (see
    :data:`FUSED_VERIFY_ENV`)."""
    mode = os.environ.get(FUSED_VERIFY_ENV, "off").strip().lower()
    if mode in ("", "0", "off", "no", "none"):
        return "off"
    if mode not in ("first", "always"):
        raise ValueError(
            f"{FUSED_VERIFY_ENV}={mode!r} is not a known verification "
            "policy; expected off, first or always")
    return mode


def record_fused_decline(kernel: str, reasons, **labels) -> None:
    """Record the ``fused.uncertified`` event of a clean prover decline
    (the runner falls back to the batched engine)."""
    sess = _obs.ACTIVE
    if sess is not None:
        sess.record_event("fused.uncertified", category="resilience",
                          kernel=kernel, reasons=list(reasons), **labels)


def fused_incident(kernel: str, precision: str, outcome: str, error=None,
                   message: str = "", **labels):
    """The :class:`~repro.resilience.engine.IncidentReport` of a fused
    demotion to the batched engine, with its ``fused.demoted`` event.

    ``outcome`` is ``"fault"`` for a crashed prover or
    ``"verify-failed"`` for a fused result the batched oracle refuted;
    ``labels`` (e.g. a shard index) go on the event.
    """
    from repro.resilience.engine import AttemptRecord, IncidentReport

    incident = IncidentReport(
        requested=FUSED_RUNG, precision=precision, served_rung=kernel,
        attempts=[
            AttemptRecord(
                rung=FUSED_RUNG, attempt=1, outcome=outcome,
                error=type(error).__name__ if error is not None else None,
                message=message),
            AttemptRecord(rung=kernel, attempt=1, outcome="served"),
        ],
        verified=(outcome == "verify-failed") or None,
    )
    sess = _obs.ACTIVE
    if sess is not None:
        sess.record_event("fused.demoted", category="resilience",
                          kernel=kernel, outcome=outcome, message=message,
                          **labels)
    return incident


class CrsdSpMV(GPUSpMV):
    """Generated-codelet CRSD SpMV runner.

    Parameters
    ----------
    matrix:
        The CRSD-format matrix.
    use_local_memory:
        Stage AD-group x windows through local memory (default; turn
        off for ablation A1).
    strict:
        Run the full static analyzer over the generated plan and both
        renderings before compiling; raises
        :class:`~repro.analyze.report.KernelAnalysisError` if any
        checker finds a violation.
    template:
        Optional same-pattern donor runner (matched by the serve plan
        cache via :func:`repro.core.serialize.pattern_fingerprint`).
        The plan, the compiled codelets and — when device and precision
        also match — the fused certificate/kernel/trace are pure
        functions of the sparsity pattern, so they are adopted instead
        of rebuilt; only the value buffers are per matrix.
    """

    name = "crsd"

    def __init__(self, matrix: CRSDMatrix, use_local_memory: bool = True,
                 strict: bool = False, template: "CrsdSpMV" = None,
                 **kwargs):
        kwargs.setdefault("local_size", matrix.mrows)
        super().__init__(**kwargs)
        self.matrix = matrix
        if template is not None and self._template_compatible(
                template, 1, bool(use_local_memory)):
            self.plan = template.plan
        else:
            template = None
            self.plan = build_plan(matrix,
                                   use_local_memory=use_local_memory)
        self._init_kernels(template, strict)

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def _init_kernels(self, template, strict: bool) -> None:
        """Set up the lazily generated codelets and the fused state.

        ``template`` is the adopted same-pattern donor (or ``None``):
        its codelets and fused state are shared instead of rebuilt.
        ``strict`` generates the codelets now, running the analyzer so
        a bad plan raises at construction.
        """
        self._template = template
        self._kernel = None
        if strict and template is None:
            self._kernel = generate_python_kernel(self.plan, strict=True)
        self._fused_state_obj = None   # None = not built, False = declined
        self._fused_demoted = False
        self._fused_verified = False
        self._fused_incident_pending = None
        #: IncidentReports filed by fused demotions, newest last
        self.fused_incidents = []

    @property
    def kernel(self):
        """The generated Python codelets (batched and per-group forms).

        Generated on first access — the fused engine never needs them —
        or resolved through the same-pattern donor, so a twin and its
        donor share one compiled set.
        """
        if self._kernel is None:
            self._kernel = (self._template.kernel
                            if self._template is not None
                            else generate_python_kernel(self.plan))
        return self._kernel

    @property
    def opencl_source(self) -> str:
        """The OpenCL C rendering of the same kernel (for inspection)."""
        from repro.codegen.opencl_source import generate_opencl_source

        return generate_opencl_source(self.plan, self.precision)

    def _result_elems(self) -> int:
        """Elements of the device-side result buffer (``nrows`` for
        SpMV; the SpMM subclass widens it to ``nrows * nvec``)."""
        return self.nrows

    def _prepare(self) -> None:
        self._dia_val = self.context.alloc(
            self.matrix.dia_val.astype(self.dtype), "crsd_dia_val"
        )
        # scatter arrays column-major so the unrolled loads coalesce
        self._scol = self.context.alloc(
            np.ascontiguousarray(self.matrix.scatter_colval.T).ravel(), "scatter_colval"
        )
        self._sval = self.context.alloc(
            np.ascontiguousarray(self.matrix.scatter_val.T).astype(self.dtype).ravel(),
            "scatter_val",
        )
        self._srow = self.context.alloc(self.matrix.scatter_rowno, "scatter_rowno")
        self._y = self.context.alloc_zeros(self._result_elems(), self.dtype, "y")

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            ybuf = self._y
            ybuf.data[:] = 0
            mode = executor_mode()
            if mode == "fused":
                run = self._execute_fused(xbuf, ybuf, trace)
                if run is not None:
                    return run
                # not certified / demoted: fall back to batched
                ybuf.data[:] = 0
                mode = "batched"
            run = self._execute_launches(xbuf, ybuf, trace,
                                         batched=(mode == "batched"))
            if self._fused_incident_pending is not None:
                run.resilience = self._fused_incident_pending
                self._fused_incident_pending = None
            return run
        finally:
            self.context.free(xbuf)

    # ------------------------------------------------------------------
    # dynamic engines (batched grid / per-group oracle)
    # ------------------------------------------------------------------
    def _execute_launches(self, xbuf, ybuf, trace: bool,
                          batched: bool) -> SpMVRun:
        if batched:
            do_launch = launch_batched
            dia_kernel = self.kernel.dia_kernel_batched
            scatter_kernel = self.kernel.scatter_kernel_batched
        else:
            do_launch = launch
            dia_kernel = self.kernel.dia_kernel
            scatter_kernel = self.kernel.scatter_kernel
        # one L2 cache for both kernels of this SpMV: the scatter
        # pass reuses x lines the diagonal pass brought in
        cache = make_launch_cache(self.device, trace)
        tr = do_launch(
            dia_kernel,
            self.plan.num_groups,
            self.plan.local_size,
            (self._dia_val, xbuf, ybuf),
            self.device,
            trace,
            cache,
        )
        if scatter_kernel is not None:
            groups = -(-self.plan.scatter.num_rows // self.plan.local_size)
            tr2 = do_launch(
                scatter_kernel,
                groups,
                self.plan.local_size,
                (self._scol, self._sval, self._srow, xbuf, ybuf),
                self.device,
                trace,
                cache,
            )
            tr.merge(tr2)
        return SpMVRun(y=ybuf.to_host().copy(), trace=tr)

    # ------------------------------------------------------------------
    # fused engine
    # ------------------------------------------------------------------
    def _template_compatible(self, template, nvec: int,
                             use_local_memory=None) -> bool:
        """Cheap sanity guard — callers passing a template are expected
        to have matched the *pattern fingerprint* already."""
        m = self.matrix
        return (isinstance(template, CrsdSpMV)
                and template.plan.nvec == nvec
                and (use_local_memory is None
                     or template.plan.use_local_memory
                     == (use_local_memory and nvec == 1))
                and template.plan.nrows == m.nrows
                and template.plan.ncols == m.ncols
                and template.plan.mrows == m.mrows
                and template.plan.scatter.num_rows == m.num_scatter_rows
                and template.matrix.dia_val.size == m.dia_val.size)

    def _fused_state(self):
        """The runner's fused execution state, built (or adopted from
        the template) on first use; ``None`` when declined/demoted."""
        if self._fused_demoted:
            return None
        if self._fused_state_obj is None:
            self._fused_state_obj = self._build_fused_state()
        return self._fused_state_obj or None

    def _build_fused_state(self):
        tpl = self._template
        if (tpl is not None and tpl._fused_state_obj is not None
                and tpl.precision == self.precision
                and tpl.device == self.device):
            return tpl._fused_state_obj
        try:
            if _flt.ACTIVE is not None:
                _flt.ACTIVE.on_phase(f"{self.name}.fused_certify")
            state, cert = build_fused_state(
                self.plan, self.device, self.precision,
                scatter_colval=self.matrix.scatter_colval,
                scatter_rowno=self.matrix.scatter_rowno)
        except Exception as exc:
            # a *crashed* prover is an incident, not a clean decline:
            # demote permanently and surface the report on the next run
            self._demote("fault", error=exc,
                         message="fused certification raised; "
                                 "demoted to batched")
            return False
        if state is None:
            # cleanly not certifiable: fall back, leaving an event
            record_fused_decline(self.name, cert.reasons)
            return False
        return state

    def _demote(self, outcome: str, error=None, message: str = "") -> None:
        """Permanently demote this runner to the batched engine and
        file the IncidentReport (attached to the next served run)."""
        self._fused_demoted = True
        incident = fused_incident(self.name, self.precision, outcome,
                                  error=error, message=message)
        self.fused_incidents.append(incident)
        self._fused_incident_pending = incident

    def _execute_fused(self, xbuf, ybuf, trace: bool):
        """One fused run, or ``None`` to fall back to batched."""
        state = self._fused_state()
        if state is None:
            return None
        verify = fused_verify_mode()
        need_verify = verify == "always" or (verify == "first"
                                             and not self._fused_verified)
        tr = run_fused_launch(state, self.plan.local_size, self._dia_val,
                              self._sval, xbuf, ybuf, trace)
        if need_verify:
            mismatch = self._fused_mismatch(state, xbuf, ybuf, trace)
            if mismatch is not None:
                return mismatch
            self._fused_verified = True
        return SpMVRun(y=ybuf.to_host().copy(), trace=tr)

    def _fused_mismatch(self, state, xbuf, ybuf, trace: bool):
        """Differentially verify the fused result in ``ybuf`` against
        the batched oracle.  Returns ``None`` on agreement (``ybuf``
        restored to the — bit-identical — fused result) or the oracle's
        run with the demotion incident attached."""
        y_fused = ybuf.data.copy()
        tr_fused = state.run_trace(True)
        ybuf.data[:] = 0
        oracle = self._execute_launches(xbuf, ybuf, True, batched=True)
        if fused_agrees(y_fused, tr_fused, oracle.y, oracle.trace):
            ybuf.data[:] = y_fused
            return None
        self._demote("verify-failed",
                     message="fused y/trace diverged from the batched "
                             "oracle; demoted to batched")
        oracle.resilience = self._fused_incident_pending
        self._fused_incident_pending = None
        if not trace:
            oracle = SpMVRun(y=oracle.y,
                             trace=minimal_trace(oracle.trace),
                             resilience=oracle.resilience)
        return oracle


def run_fused_launch(state, local_size: int, dia_val, sval, xbuf, ybuf,
                     trace: bool):
    """One launch of a fused kernel over its bound device buffers.

    Fires the fault-injection launch hooks around the kernel and
    records the ``crsd_fused_kernel`` obs kernel; returns the run's
    :class:`~repro.ocl.trace.KernelTrace`.  ``sval`` is the scatter
    value buffer, or ``None`` for a (shard) plan without scatter rows.
    Shared by the whole-matrix and the sharded runners.
    """
    sess = _obs.ACTIVE
    t0 = _obs.perf_counter() if sess is not None else 0.0
    if _flt.ACTIVE is not None:
        _flt.ACTIVE.on_launch(FUSED_KERNEL_NAME)
    state.kernel(dia_val.data,
                 sval.data if sval is not None
                 else np.empty(0, dtype=dia_val.data.dtype),
                 xbuf.data, ybuf.data)
    if _flt.ACTIVE is not None:
        _flt.ACTIVE.on_launch_exit(
            FUSED_KERNEL_NAME,
            tuple(b for b in (dia_val, sval, xbuf, ybuf) if b is not None))
    tr = state.run_trace(trace)
    if sess is not None:
        sess.record_kernel(
            FUSED_KERNEL_NAME, work_groups=state.work_groups,
            local_size=local_size, executor="fused",
            wall_s=_obs.perf_counter() - t0,
            trace=tr if trace else None)
    return tr


def fused_agrees(y_fused, tr_fused, y_oracle, tr_oracle) -> bool:
    """Whether a fused result and trace equal the batched oracle's,
    bit for bit and counter for counter."""
    return (np.array_equal(y_fused, y_oracle)
            and dataclasses.asdict(tr_fused)
            == dataclasses.asdict(tr_oracle))


def minimal_trace(full):
    """An untraced-run view of a full trace (launch geometry only):
    what an oracle run made for verification returns when the caller
    did not ask for a trace."""
    from repro.ocl.trace import KernelTrace

    return KernelTrace(work_groups=full.work_groups,
                       wavefronts=full.wavefronts)


class CrsdSpMM(CrsdSpMV):
    """Generated multi-vector CRSD SpMM runner.

    The codelets bake ``nvec`` in and load each slab value once for all
    right-hand sides.  ``run(X)`` takes ``X`` of shape ``(ncols, nvec)``
    and returns ``y`` of shape ``(nrows, nvec)``; device-side both are
    column-major flat buffers with the strides in the kernel text.

    With ``nvec > 1`` the plan always disables AD-group local-memory
    staging (see :class:`~repro.codegen.plan.KernelPlan`): the L2
    already holds the shared x window across the columns in flight, and
    per-column tiles would exhaust local memory.  Passing
    ``use_local_memory=True`` is therefore a no-op and warns.
    """

    name = "crsd_spmm"

    def __init__(self, matrix: CRSDMatrix, nvec: int,
                 use_local_memory: bool | None = None,
                 strict: bool = False, template: "CrsdSpMM" = None,
                 **kwargs):
        kwargs.setdefault("local_size", matrix.mrows)
        GPUSpMV.__init__(self, **kwargs)  # skip CrsdSpMV.__init__
        self.matrix = matrix
        self.nvec = int(nvec)
        if use_local_memory and self.nvec > 1:
            warnings.warn(
                "CrsdSpMM ignores use_local_memory=True: the multi-vector "
                "plan always uses direct x loads (nvec > 1 disables "
                "AD-group local-memory staging)",
                stacklevel=2,
            )
        if template is not None and self._template_compatible(
                template, self.nvec):
            self.plan = template.plan
        else:
            template = None
            self.plan = build_plan(
                matrix,
                # None = inherit the default (build_plan itself turns the
                # staging off whenever nvec > 1)
                use_local_memory=True if use_local_memory is None else use_local_memory,
                nvec=self.nvec,
            )
        self._init_kernels(template, strict)

    def run(self, x: np.ndarray, trace: bool = True) -> SpMVRun:
        """Compute ``Y = A @ X`` for ``X`` of shape ``(ncols, nvec)``."""
        from repro.validation import validate_batch

        self.prepare()
        x = validate_batch(x, self.ncols, self.nvec).astype(
            self.dtype, copy=False)
        flat = np.ascontiguousarray(x.T).ravel()  # column-major device layout
        with maybe_span(f"{self.name}.spmm", "op", kernel=self.name,
                        precision=self.precision, nvec=self.nvec):
            run = self._execute(flat, trace)
        y = run.y.reshape(self.nvec, self.nrows).T.copy()
        return SpMVRun(y=y, trace=run.trace, resilience=run.resilience)

    def _result_elems(self) -> int:
        # one flat column-major buffer holding all nvec result columns
        return self.nrows * self.nvec
