"""CRSD SpMV runner: generated codelets on the simulated device.

Only the value arrays travel to the device — ``crsd_dia_val`` plus the
three scatter arrays; every index is baked into the generated kernel
(that is the paper's memory-pressure reduction, measurable here as the
absence of index traffic in the trace).  The diagonal kernel launches
one work-group per row segment with ``local_size = mrows``; the scatter
ELL kernel runs second and overwrites its rows.  Both launches share
one L2 :class:`~repro.ocl.memory.SegmentCache` so the trace models the
x-vector residency the scatter kernel inherits from the diagonal pass
(:func:`launch_plan`, which the symmetric runner shares).

One :class:`PlanExecutor` runs one :class:`~repro.codegen.plan.KernelPlan`
through the engine ladder selected by ``REPRO_EXECUTOR`` (see
:func:`~repro.ocl.executor.executor_mode`).  :class:`CrsdSpMV` and
:class:`CrsdSpMM` hold one; :class:`~repro.shard.executor.ShardedSpMV`
holds one per shard, so an unsharded matrix is simply a one-block
partition.  The default fused engine executes the plan as a few
whole-matrix expressions with a trace synthesized from the static
predictor — entered only when the analyzer certifies the plan (see
:mod:`repro.gpu_kernels.fused`); a declined plan records a
``fused.uncertified`` event and runs on the segment-batched engine
(``REPRO_EXECUTOR=batched``), which runs each kernel as one vectorised
invocation.  The per-group reference engine (``REPRO_EXECUTOR=pergroup``)
iterates work-groups sequentially and serves as the correctness oracle.
A fused run can additionally be differentially verified against the
batched oracle (``REPRO_FUSED_VERIFY=first`` or ``always``); any
mismatch, like a crashed prover, permanently demotes that executor to
``batched`` and files an :class:`IncidentReport` on the served run.

A plan, its codelets and its fused outcome live in one
:class:`PlanArtifacts`, which same-pattern runners share (the serve plan
cache keeps them in its engine's :class:`~repro.serve.cache.PatternStore`);
demotions stay with each executor.  Codelets (emit, source validation,
``compile``) are generated only when a batched or per-group launch, or
fused verification, first needs them: a plan the fused engine serves
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
from repro.gpu_kernels.fused import (
    FUSED_KERNEL_NAME,
    FusedCertificate,
    build_fused_state,
)
from repro.obs import recorder as _obs
from repro.obs.recorder import maybe_span
from repro.ocl.executor import (
    executor_mode,
    launch,
    launch_batched,
    make_launch_cache,
)
from repro.ocl.trace import KernelTrace
from repro.resilience import faults as _flt

#: environment variable selecting fused differential verification:
#: ``off`` (default), ``first`` (verify the first fused run of each
#: plan executor against the batched oracle), ``always`` (verify every
#: run)
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


def launch_plan(kernel, plan, device, values, scatter, xbuf, ybuf,
                trace: bool, batched=None) -> KernelTrace:
    """Launch ``plan``'s codelets over bound device buffers.

    The diagonal kernel runs over ``values``, then — when the plan has
    scatter rows — the scatter kernel over the ``scatter`` buffer
    triple ``(colval, val, rowno)``, both on one L2 cache: the scatter
    pass reuses x lines the diagonal pass brought in.  ``batched``
    picks the segment-batched form, or the per-group form when false;
    ``None`` follows :func:`~repro.ocl.executor.executor_mode` (fused
    serves through the batched form).
    """
    if batched is None:
        batched = executor_mode() != "pergroup"
    if batched:
        do_launch = launch_batched
        dia_kernel = kernel.dia_kernel_batched
    else:
        do_launch = launch
        dia_kernel = kernel.dia_kernel
    cache = make_launch_cache(device, trace)
    tr = do_launch(dia_kernel, plan.num_groups, plan.local_size,
                   (values, xbuf, ybuf), device, trace, cache)
    if plan.scatter.num_rows:
        groups = -(-plan.scatter.num_rows // plan.local_size)
        tr.merge(do_launch(
            kernel.scatter_kernel_batched if batched
            else kernel.scatter_kernel,
            groups, plan.local_size, (*scatter, xbuf, ybuf), device,
            trace, cache))
    return tr


class PlanArtifacts:
    """One plan's pattern-pure artifacts, each made once and shared.

    The :class:`~repro.codegen.plan.KernelPlan`, its Python codelets
    (generated on first use) and ``fused``, its certified outcome: a
    :class:`~repro.gpu_kernels.fused.FusedState` or a clean-decline
    :class:`~repro.gpu_kernels.fused.FusedCertificate`, ``None`` until
    certified.  The outcome holds for one device spec and precision,
    so the first executor binds the artifacts to its own.
    """

    def __init__(self, plan):
        self.plan = plan
        self.fused = None
        self._kernel = None
        self._target = None

    def codelets(self, strict: bool = False):
        """The generated codelets (batched and per-group forms),
        generated — and, with ``strict``, analyzed — on first call."""
        if self._kernel is None:
            self._kernel = generate_python_kernel(self.plan, strict=strict)
        return self._kernel

    def bind(self, device, precision: str) -> None:
        """Bind to ``device`` and ``precision`` on the first call;
        ``ValueError`` when already bound to others."""
        if self._target is None:
            self._target = (device, precision)
        elif self._target != (device, precision):
            raise ValueError("plan artifacts bound to another device or "
                             "precision")


class PlanExecutor:
    """One CRSD plan and its engine ladder: fused, batched, per-group.

    Runs the plan of its :class:`PlanArtifacts` on the owning runner's
    bound buffers.  A runner over a whole matrix holds one; a sharded
    runner holds one per shard, with ``labels={"shard": i}`` on its
    events and a ``shard {i} `` prefix on its incident messages.

    Parameters
    ----------
    artifacts:
        The plan's :class:`PlanArtifacts` (a whole matrix's plan or one
        shard's sub-plan).  Crashes, demotions and verification stay
        with this executor.
    name:
        The owning runner's name: the kernel of events and incidents,
        and the ``{name}.fused_certify`` fault-injection phase.
    device, precision:
        The owning runner's device and precision.
    scatter_colval, scatter_rowno:
        The host scatter structure the plan's scatter rows read, for
        fused certification.
    dia_val_size:
        Elements of the bound ``dia_val`` buffer when it is larger than
        the plan's own slab (a shard binds the full matrix's slab).
    labels:
        Extra attributes of this executor's events.
    strict:
        Generate (and analyze) the codelets now.
    """

    def __init__(self, artifacts: PlanArtifacts, name: str, device,
                 precision: str, scatter_colval, scatter_rowno,
                 dia_val_size=None, labels=None, strict: bool = False):
        artifacts.bind(device, precision)
        self.artifacts = artifacts
        self.plan = artifacts.plan
        self.name = name
        self.device = device
        self.precision = precision
        self._scatter_colval = scatter_colval
        self._scatter_rowno = scatter_rowno
        self._dia_val_size = dia_val_size
        self.labels = dict(labels or {})
        # incident messages name the labels first, e.g. "shard 2 "
        self._prefix = "".join(f"{k} {v} " for k, v in self.labels.items())
        if strict:
            artifacts.codelets(strict=True)
        #: fused state: None = not built, False = declined or demoted
        self.fused_state = None
        #: whether a fused run passed ``REPRO_FUSED_VERIFY=first``
        self.verified = False
        self._pending = None

    @property
    def kernel(self):
        """The plan's generated Python codelets, generated on first
        access — the fused engine never needs them."""
        return self.artifacts.codelets()

    def run(self, dia_val, scatter, xbuf, ybuf, trace: bool):
        """Run the plan on bound buffers under ``executor_mode()``.

        ``scatter`` is the ``(colval, val, rowno)`` buffer triple, or
        ``None`` for a plan without scatter rows.  Returns the
        :class:`~repro.ocl.trace.KernelTrace` and the
        :class:`~repro.resilience.engine.IncidentReport` of a demotion
        this run made (or ``None``).
        """
        mode = executor_mode()
        tr = None
        if mode == "fused":
            tr = self._run_fused(dia_val, scatter, xbuf, ybuf, trace)
        if tr is None:
            # not fused, or the fused engine declined or was demoted
            tr = launch_plan(self.kernel, self.plan, self.device, dia_val,
                             scatter, xbuf, ybuf, trace,
                             batched=(mode != "pergroup"))
        incident, self._pending = self._pending, None
        return tr, incident

    # ------------------------------------------------------------------
    def _build_fused_state(self):
        """The shared fused outcome, certified on a miss; ``False`` when
        the provers decline or crash."""
        outcome = self.artifacts.fused
        if outcome is None:
            try:
                if _flt.ACTIVE is not None:
                    _flt.ACTIVE.on_phase(f"{self.name}.fused_certify")
                state, cert = build_fused_state(
                    self.plan, self.device, self.precision,
                    scatter_colval=self._scatter_colval,
                    scatter_rowno=self._scatter_rowno,
                    dia_val_size=self._dia_val_size)
            except Exception as exc:
                # a *crashed* prover is an incident, not a clean decline
                self._demote("fault", error=exc,
                             message="fused certification raised; "
                                     "demoted to batched")
                return False
            outcome = state if state is not None else cert
            self.artifacts.fused = outcome
        if isinstance(outcome, FusedCertificate):
            # cleanly not certifiable: fall back, leaving an event
            sess = _obs.ACTIVE
            if sess is not None:
                sess.record_event("fused.uncertified", category="resilience",
                                  kernel=self.name,
                                  reasons=list(outcome.reasons), **self.labels)
            return False
        return outcome

    def _demote(self, outcome: str, error=None, message: str = "") -> None:
        """Run batched from now on and file the IncidentReport, with its
        ``fused.demoted`` event, for the run to return.

        ``outcome`` is ``"fault"`` for a crashed prover or
        ``"verify-failed"`` for a fused result the batched oracle
        refuted.
        """
        from repro.resilience.engine import AttemptRecord, IncidentReport

        self.fused_state = False
        message = self._prefix + message
        self._pending = IncidentReport(
            requested=FUSED_RUNG, precision=self.precision,
            served_rung=self.name,
            attempts=[
                AttemptRecord(
                    rung=FUSED_RUNG, attempt=1, outcome=outcome,
                    error=type(error).__name__ if error is not None
                    else None,
                    message=message),
                AttemptRecord(rung=self.name, attempt=1, outcome="served"),
            ],
            verified=(outcome == "verify-failed") or None,
        )
        sess = _obs.ACTIVE
        if sess is not None:
            sess.record_event("fused.demoted", category="resilience",
                              kernel=self.name, outcome=outcome,
                              message=message, **self.labels)

    def _run_fused(self, dia_val, scatter, xbuf, ybuf, trace: bool):
        """One fused run, or ``None`` to fall back to batched.

        Under ``REPRO_FUSED_VERIFY`` the fused rows and trace are
        checked against the plan's batched launches from the same
        starting ``y``; a mismatch leaves the oracle's rows in ``ybuf``,
        demotes this executor and returns the oracle's trace (launch
        geometry only when ``trace`` is off).
        """
        if self.fused_state is None:
            self.fused_state = self._build_fused_state()
        state = self.fused_state
        if not state:
            return None
        verify = fused_verify_mode()
        need_verify = verify == "always" or (verify == "first"
                                             and not self.verified)
        y_before = ybuf.data.copy() if need_verify else None
        tr = run_fused_launch(state, self.plan.local_size, dia_val,
                              scatter[1] if scatter is not None else None,
                              xbuf, ybuf, trace)
        if need_verify:
            y_fused = ybuf.data.copy()
            ybuf.data[:] = y_before
            oracle = launch_plan(self.kernel, self.plan, self.device,
                                 dia_val, scatter, xbuf, ybuf, True,
                                 batched=True)
            if not (np.array_equal(y_fused, ybuf.data)
                    and dataclasses.asdict(state.run_trace(True))
                    == dataclasses.asdict(oracle)):
                self._demote("verify-failed",
                             message="fused y/trace diverged from the "
                                     "batched oracle; demoted to batched")
                if trace:
                    return oracle
                return KernelTrace(work_groups=oracle.work_groups,
                                   wavefronts=oracle.wavefronts)
            ybuf.data[:] = y_fused
            self.verified = True
        return tr


def run_fused_launch(state, local_size: int, dia_val, sval, xbuf, ybuf,
                     trace: bool):
    """One launch of a fused kernel over its bound device buffers.

    Fires the fault-injection launch hooks around the kernel and
    records the ``crsd_fused_kernel`` obs kernel; returns the run's
    :class:`~repro.ocl.trace.KernelTrace`.  ``sval`` is the scatter
    value buffer, or ``None`` for a (shard) plan without scatter rows.
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
    artifacts:
        A same-pattern, same-configuration runner's
        :class:`PlanArtifacts` to share (``ValueError`` when their plan
        does not fit); ``None`` builds the plan and fresh ones.
    """

    name = "crsd"

    def __init__(self, matrix: CRSDMatrix, use_local_memory: bool = True,
                 strict: bool = False, artifacts: PlanArtifacts = None,
                 **kwargs):
        kwargs.setdefault("local_size", matrix.mrows)
        super().__init__(**kwargs)
        self.matrix = matrix
        self._init_executor(artifacts, use_local_memory, 1, strict)

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def _init_executor(self, artifacts, use_local_memory: bool, nvec: int,
                       strict: bool) -> None:
        """Set up the :class:`PlanExecutor` over ``artifacts`` (checked
        against the matrix) or, without them, over a new plan."""
        m = self.matrix
        if artifacts is None:
            artifacts = PlanArtifacts(build_plan(
                m, use_local_memory=use_local_memory, nvec=nvec))
        else:
            p = artifacts.plan
            if ((p.nrows, p.ncols, p.mrows, p.scatter.num_rows, p.nvec,
                 p.use_local_memory)
                    != (m.nrows, m.ncols, m.mrows, m.num_scatter_rows, nvec,
                        bool(use_local_memory) and nvec == 1)):
                raise ValueError("plan artifacts do not fit this matrix "
                                 "and configuration")
        self.artifacts = artifacts
        self.plan = artifacts.plan
        self._executor = PlanExecutor(
            artifacts, self.name, self.device, self.precision,
            m.scatter_colval, m.scatter_rowno, strict=strict)
        #: IncidentReports filed by fused demotions, newest last
        self.fused_incidents = []

    @property
    def kernel(self):
        """The generated Python codelets (batched and per-group forms),
        generated on first access."""
        return self._executor.kernel

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
        self._scatter = (
            self.context.alloc(
                np.ascontiguousarray(self.matrix.scatter_colval.T).ravel(),
                "scatter_colval"),
            self.context.alloc(
                np.ascontiguousarray(self.matrix.scatter_val.T)
                .astype(self.dtype).ravel(),
                "scatter_val"),
            self.context.alloc(self.matrix.scatter_rowno, "scatter_rowno"),
        )
        self._y = self.context.alloc_zeros(self._result_elems(), self.dtype, "y")

    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            ybuf = self._y
            ybuf.data[:] = 0
            tr, incident = self._executor.run(self._dia_val, self._scatter,
                                              xbuf, ybuf, trace)
            if incident is not None:
                self.fused_incidents.append(incident)
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr,
                           resilience=incident)
        finally:
            self.context.free(xbuf)


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
                 strict: bool = False, artifacts: PlanArtifacts = None,
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
        # None = inherit the default (build_plan itself turns the staging
        # off whenever nvec > 1)
        self._init_executor(
            artifacts, True if use_local_memory is None else use_local_memory,
            self.nvec, strict)

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
