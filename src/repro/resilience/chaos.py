"""Chaos sweeps: fault-inject the 23-matrix suite and prove bit-identity.

:func:`chaos_sweep` is the engine behind ``repro faultsim``: for every
(matrix, executor, precision) case it runs one resilient SpMV under a
seeded fault plan, then replays the *serving rung* fault-free and
checks the served ``y`` is **bit-identical** — the differential
guarantee that resilience never trades correctness for availability.
A case may alternatively end in
:class:`~repro.resilience.policy.ResilienceExhausted`; what it may
never do is silently diverge.

Everything is deterministic: per-case injector seeds are derived
arithmetically from the sweep seed, backoff is simulated (never
slept), and the report carries no wall-clock timestamps — two sweeps
with the same seed produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.executor import DEFAULT_SWEEP_EXECUTORS, executor_sweep
from repro.resilience.engine import resilient_spmv
from repro.resilience.faults import FaultInjector, FaultSpec, inject
from repro.resilience.policy import Policy, ResilienceExhausted

__all__ = [
    "CHAOS_SCHEMA",
    "ChaosAction",
    "ChaosReport",
    "ChaosSchedule",
    "chaos_sweep",
    "default_chaos_specs",
    "default_cluster_schedule",
]

#: schema tag of the ``repro faultsim`` JSON report
CHAOS_SCHEMA = "repro-faultsim/v1"

#: chaos-action kinds a :class:`ChaosSchedule` may carry: the
#: structural device kills, plus the cluster-level straggler and flap
SCHEDULE_KINDS = ("device_oom", "local_oom", "launch", "device_slow",
                  "device_flap")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled cluster fault.

    ``device_oom`` / ``local_oom`` / ``launch`` kill ``device`` at
    ``at_s`` permanently (the kill *kind* is the incident label).
    ``device_slow`` multiplies the device's service times by
    ``factor`` for ``duration_s`` simulated seconds (a straggler).
    ``device_flap`` kills the device at ``at_s`` and rejoins it — a
    fresh engine on the same ring index — ``duration_s`` later.
    """

    kind: str
    device: int
    at_s: float
    duration_s: float = 0.0
    factor: float = 4.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(
                f"unknown chaos action kind {self.kind!r}; expected one "
                f"of {SCHEDULE_KINDS}")
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.kind in ("device_slow", "device_flap") \
                and self.duration_s <= 0:
            raise ValueError(
                f"{self.kind} needs duration_s > 0, got {self.duration_s}")
        if self.kind == "device_slow" and self.factor <= 1.0:
            raise ValueError(
                f"device_slow needs factor > 1, got {self.factor}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe action payload (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "device": self.device,
            "at_s": self.at_s,
            "duration_s": self.duration_s,
            "factor": self.factor,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosAction":
        return cls(
            kind=payload["kind"], device=int(payload["device"]),
            at_s=float(payload["at_s"]),
            duration_s=float(payload.get("duration_s", 0.0)),
            factor=float(payload.get("factor", 4.0)))


@dataclass(frozen=True)
class ChaosSchedule:
    """A correlated multi-device fault sequence for one cluster run.

    The schedule is declarative and engine-agnostic: :meth:`apply`
    translates every action into the cluster engine's scheduling calls
    (``fail_device`` / ``slow_device`` / ``rejoin_device``), which the
    engine's event loop then applies as epoch boundaries in
    deterministic order.  ``to_dict``/``from_dict`` round-trip the
    schedule through the chaos report JSON byte-stably.
    """

    actions: Tuple[ChaosAction, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        for a in self.actions:
            if not isinstance(a, ChaosAction):
                raise TypeError(
                    f"actions must be ChaosAction, got {type(a)}")

    def apply(self, engine) -> None:
        """Schedule every action on a cluster engine (anything with
        the ``fail_device`` / ``slow_device`` / ``rejoin_device``
        scheduling surface)."""
        for a in self.actions:
            if a.kind == "device_slow":
                engine.slow_device(a.device, at_s=a.at_s,
                                   duration_s=a.duration_s,
                                   factor=a.factor)
            elif a.kind == "device_flap":
                engine.fail_device(a.device, at_s=a.at_s,
                                   kind="device_flap")
                engine.rejoin_device(a.device,
                                     at_s=a.at_s + a.duration_s)
            else:
                engine.fail_device(a.device, at_s=a.at_s, kind=a.kind)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe schedule payload (inverse of :meth:`from_dict`)."""
        return {"actions": [a.to_dict() for a in self.actions]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosSchedule":
        return cls(actions=tuple(
            ChaosAction.from_dict(a) for a in payload["actions"]))


def default_cluster_schedule(
    num_devices: int,
    *,
    seed: int = 0,
    at_s: float = 3e-4,
) -> ChaosSchedule:
    """The standard correlated multi-fault plan: one straggler, one
    permanent kill, one flap — on distinct devices, offsets derived
    arithmetically from ``seed`` (hash-free, deterministic).

    On clusters too small to keep a quorum through a kill *and* a flap
    (fewer than 3 devices) the permanent kill is dropped; the flap
    still exercises loss + rejoin.
    """
    if num_devices < 2:
        raise ValueError(
            f"a chaos schedule needs >= 2 devices, got {num_devices}")
    slow = seed % num_devices
    flap = (slow + 1) % num_devices
    actions = [
        ChaosAction("device_slow", slow, at_s=at_s,
                    duration_s=6.0 * at_s, factor=8.0),
        ChaosAction("device_flap", flap, at_s=2.0 * at_s,
                    duration_s=2.0 * at_s),
    ]
    if num_devices >= 3:
        kill = (slow + 2) % num_devices
        actions.append(
            ChaosAction("device_oom", kill, at_s=1.5 * at_s))
    return ChaosSchedule(actions=tuple(actions))


def default_chaos_specs() -> Tuple[FaultSpec, ...]:
    """The standard chaos plan: a mix of transient launch/allocation
    faults (absorbed by retries), an occasionally-persistent prepare
    failure (forces ladder descent), and rare soft corruptions (must be
    caught, never served)."""
    return (
        FaultSpec(site="launch:*", kind="launch",
                  probability=0.08, max_fires=2),
        FaultSpec(site="alloc:x", kind="device_oom",
                  probability=0.05, max_fires=1),
        FaultSpec(site="phase:crsd.prepare", kind="device_oom",
                  probability=0.25),
        FaultSpec(site="launch:*", kind="soft",
                  probability=0.05, max_fires=2, payload="nan"),
        FaultSpec(site="launch:*", kind="soft",
                  probability=0.03, max_fires=1, payload="nudge"),
    )


@dataclass
class ChaosReport:
    """Result of one :func:`chaos_sweep`."""

    seed: int
    scale: float
    format: str
    cases: List[Dict[str, Any]] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def silent_divergences(self) -> List[Dict[str, Any]]:
        """Cases that served a ``y`` differing from the fault-free run
        of the serving rung — the outcome the layer must never allow."""
        return [c for c in self.cases
                if c["outcome"] == "served" and not c["identical"]]

    @property
    def exit_code(self) -> int:
        return 1 if self.silent_divergences else 0

    def to_dict(self) -> Dict[str, Any]:
        """The full JSON payload (schema ``repro-faultsim/v1``)."""
        return {
            "schema": CHAOS_SCHEMA,
            "seed": self.seed,
            "scale": self.scale,
            "format": self.format,
            "meta": dict(self.meta),
            "cases": list(self.cases),
            "silent_divergences": len(self.silent_divergences),
        }

    def summary(self) -> str:
        """Human-readable digest: one header plus one line per case."""
        served = [c for c in self.cases if c["outcome"] == "served"]
        degraded = [c for c in served if c["degraded"]]
        exhausted = [c for c in self.cases if c["outcome"] == "exhausted"]
        faults = sum(c["faults"] for c in self.cases)
        lines = [
            f"faultsim seed={self.seed}: {len(self.cases)} cases, "
            f"{faults} faults injected — {len(served)} served "
            f"({len(degraded)} degraded), {len(exhausted)} exhausted, "
            f"{len(self.silent_divergences)} silent divergences",
        ]
        for c in self.cases:
            if c["outcome"] == "served":
                tag = "ok " if c["identical"] else "DIVERGED"
                lines.append(
                    f"  {c['matrix']:<12} {c['executor']:<8} "
                    f"{c['precision']:<6} -> {c['served_rung']:<12} "
                    f"[{tag}] attempts={c['attempts']} "
                    f"faults={c['faults']} "
                    f"backoff={c['total_backoff_s'] * 1e3:.2f}ms")
            else:
                lines.append(
                    f"  {c['matrix']:<12} {c['executor']:<8} "
                    f"{c['precision']:<6} -> EXHAUSTED "
                    f"attempts={c['attempts']} faults={c['faults']}")
        return "\n".join(lines)


def _case_seed(seed: int, number: int, ei: int, pi: int) -> int:
    """Arithmetic (hash-free, thus deterministic) per-case seed."""
    return (seed * 1_000_003 + number * 10_007 + ei * 101 + pi * 13) \
        % (2 ** 32)


def chaos_sweep(
    seed: int = 0,
    scale: float = 0.01,
    *,
    matrices: Optional[Sequence[int]] = None,
    format: str = "crsd",
    executors: Sequence[str] = DEFAULT_SWEEP_EXECUTORS,
    precisions: Sequence[str] = ("double", "single"),
    device: DeviceSpec = TESLA_C2050,
    mrows: int = 128,
    specs: Optional[Sequence[FaultSpec]] = None,
    policy: Optional[Policy] = None,
) -> ChaosReport:
    """Fault-inject SpMV across the suite and differentially verify.

    For each case the resilient call runs under a per-case seeded
    injector; if it serves, the serving rung is re-run with injection
    suspended and the two ``y`` arrays are compared bit-for-bit.
    """
    from repro.matrices.suite23 import SUITE
    from repro.resilience.engine import _make_rung_runner
    from repro.gpu_kernels.base import precision_dtype

    specs = tuple(specs) if specs is not None else default_chaos_specs()
    policy = policy or Policy(max_attempts=2)
    nums = set(matrices) if matrices is not None else None

    report = ChaosReport(seed=seed, scale=scale, format=format, meta={
        "executors": list(executors),
        "precisions": list(precisions),
        "matrices": sorted(nums) if nums is not None else "suite23",
        "specs": [s.to_dict() for s in specs],
        "policy": {
            "max_attempts": policy.max_attempts,
            "backoff_base_s": policy.backoff_base_s,
            "backoff_factor": policy.backoff_factor,
        },
        "device": device.name,
        "mrows": mrows,
    })
    with executor_sweep(executors) as select:
        for spec_m in SUITE:
            if nums is not None and spec_m.number not in nums:
                continue
            coo = spec_m.generate(scale=scale, seed=seed)
            rng = np.random.default_rng(seed + spec_m.number)
            x = rng.standard_normal(coo.ncols)
            for ei, executor in enumerate(executors):
                select(executor)
                for pi, precision in enumerate(precisions):
                    case: Dict[str, Any] = {
                        "matrix": spec_m.name,
                        "number": spec_m.number,
                        "executor": executor,
                        "precision": precision,
                    }
                    injector = FaultInjector(
                        seed=_case_seed(seed, spec_m.number, ei, pi),
                        specs=specs,
                    )
                    try:
                        with inject(injector):
                            run = resilient_spmv(
                                coo, x, format,
                                device=device, precision=precision,
                                mrows=mrows, policy=policy,
                            )
                    except ResilienceExhausted as exc:
                        case.update(
                            outcome="exhausted",
                            attempts=len(exc.report.attempts),
                            faults=len(injector.events),
                            total_backoff_s=exc.report.total_backoff_s,
                            incident=exc.report.to_dict(),
                        )
                        report.cases.append(case)
                        continue
                    inc = run.resilience
                    # differential check: replay the serving rung with
                    # injection suspended; the served y must match it
                    # bit-for-bit
                    with inject(None):
                        dtype = precision_dtype(precision)
                        ref_runner = _make_rung_runner(
                            inc.served_rung, coo, device, precision,
                            mrows, dtype)
                        ref_run = ref_runner.prepare().run(x)
                    case.update(
                        outcome="served",
                        served_rung=inc.served_rung,
                        degraded=inc.degraded,
                        attempts=len(inc.attempts),
                        faults=len(injector.events),
                        total_backoff_s=inc.total_backoff_s,
                        identical=bool(np.array_equal(run.y, ref_run.y)),
                        incident=inc.to_dict(),
                    )
                    report.cases.append(case)
    return report
