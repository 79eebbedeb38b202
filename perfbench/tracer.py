"""Traced runs: wrap the program's public functions in timed spans.

:class:`Tracer` replaces each function named in :data:`LAYERS` with a
wrapper that records one span per call: function, start, end and the
span that was open when it was called.  A function is wrapped wherever
a caller looks it up: in the module that defines it, in every
``repro`` or ``perfbench`` module that imported it by name, and on the
class that defines a method.  :meth:`Tracer.restore` puts every
original back.

A layer's self time is the duration of its spans minus the time their
child spans cover, so the layers' self times plus the time outside
every span add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> the public functions whose calls make up that layer
LAYERS: Dict[str, Tuple[str, ...]] = {
    "serialize": ("repro.core.serialize:fingerprints",),
    "cache": ("repro.serve.cache:PlanCache.entry",
              "repro.serve.cache:PlanCache.runner_for",
              "repro.serve.cache:PlanCache.shard_runner_for",
              "repro.serve.cache:PlanCache.shard_certificate_for"),
    "crsd": ("repro.core.crsd:CRSDMatrix.from_coo",
             "repro.core.analysis:analyze_structure"),
    "codegen": ("repro.codegen.plan:build_plan",
                "repro.codegen.python_codelet:generate_python_kernel",
                "repro.codegen.validator:validate_python_source"),
    "certify": ("repro.gpu_kernels.fused:build_fused_state",
                "repro.gpu_kernels.fused:certify_plan",
                "repro.analyze.sharding:certify_shard_plan"),
    "kernel": ("repro.gpu_kernels.base:GPUSpMV.run",
               "repro.gpu_kernels.crsd_runner:CrsdSpMM.run",
               "repro.shard.executor:ShardedSpMV.run"),
    "executor": ("repro.ocl.executor:launch_batched",
                 "repro.ocl.executor:launch"),
    "trace": ("repro.ocl.memory:SegmentCache.access",
              "repro.ocl.executor:BatchCtx.finalize",
              "repro.gpu_kernels.fused:synthesize_trace"),
    "costmodel": ("repro.perf.costmodel:predict_gpu_time",),
    "batcher": ("repro.serve.engine:ServeEngine.submit",
                "repro.serve.engine:ServeEngine.run"),
    "cluster": ("repro.cluster.engine:ClusterEngine.submit",
                "repro.cluster.engine:ClusterEngine.run",
                "repro.cluster.halo:HaloExchange.ship"),
    "report": ("repro.serve.engine:ServeEngine.stats",
               "repro.cluster.engine:ClusterEngine.stats",
               "perfbench.workloads:fold_checksum"),
}

#: bytes hashed per nonzero by one ``fingerprints`` call: int64 rows,
#: int64 cols and float64 values for the combined hash, rows and cols
#: again for the pattern hash, values again for the value hash
HASHED_BYTES_PER_NNZ = 48

#: modules searched for references to a wrapped function
_SCANNED = ("repro", "perfbench")

_CACHE_BUILDS = ("repro.serve.cache:PlanCache.runner_for",
                 "repro.serve.cache:PlanCache.shard_runner_for",
                 "repro.serve.cache:PlanCache.shard_certificate_for")
_KERNEL_RUNS = ("repro.gpu_kernels.base:GPUSpMV.run",
                "repro.gpu_kernels.crsd_runner:CrsdSpMM.run")


class TracerError(RuntimeError):
    """A wrapper could not be installed where its callers look it up."""


def _scanned_modules():
    return [m for name, m in list(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and name.split(".")[0] in _SCANNED]


def _is_wrapper(value) -> bool:
    return (type(value) is types.FunctionType
            and "_perfbench_original" in value.__dict__)


class Tracer:
    """Installs span-recording wrappers and summarises the spans."""

    def __init__(self, layers: Dict[str, Tuple[str, ...]] = LAYERS):
        self.targets: List[str] = [t for ts in layers.values() for t in ts]
        self.layer_of: Dict[str, str] = {t: layer for layer, ts in
                                         layers.items() for t in ts}
        self.layers = list(layers)
        #: (target index, start, end, parent span index or -1)
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self._stack: List[int] = []
        #: (holder, attribute, original raw value)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: owner target -> [(inheriting target, its class)]
        self._aliases: Dict[str, List[Tuple[str, type]]] = {}
        #: inheriting target -> calls (zeroed in place: wrappers hold it)
        self.alias_calls: Dict[str, int] = {}
        self.sites: Dict[str, int] = {}
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget recorded spans and counters (wrappers stay)."""
        self.spans.clear()
        self._stack.clear()
        self.mb_hashed = 0.0
        self.runs_by_format: Dict[str, int] = {}
        self.kernel_trace: Dict[str, int] = {}
        for alias in self.alias_calls:
            self.alias_calls[alias] = 0
        self.missed: set = set()

    # ------------------------------------------------------------------
    # hooks: extra counters measured where the work happens
    # ------------------------------------------------------------------
    def _on_fingerprints(self, idx, args, token, out) -> None:
        self.mb_hashed += (HASHED_BYTES_PER_NNZ
                           * int(getattr(args[0], "nnz", 0)) / 1e6)

    @staticmethod
    def _misses_before(args):
        return args[0].stats.misses

    def _on_cache_build(self, idx, args, token, out) -> None:
        if args[0].stats.misses > token:
            self.missed.add(idx)

    def _on_kernel_run(self, idx, args, token, out) -> None:
        name = args[0].name
        self.runs_by_format[name] = self.runs_by_format.get(name, 0) + 1
        for k, v in dataclasses.asdict(out.trace).items():
            self.kernel_trace[k] = self.kernel_trace.get(k, 0) + v

    def _hooks(self, target: str):
        if target == "repro.core.serialize:fingerprints":
            return None, self._on_fingerprints
        if target in _CACHE_BUILDS:
            return self._misses_before, self._on_cache_build
        if target in _KERNEL_RUNS:
            return None, self._on_kernel_run
        return None, None

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, fid: int, target: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        enter, leave = self._hooks(target)

        if enter is None and leave is None:
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (fid, t0, t1, stack[-1] if stack else -1)
        else:
            # calls of subclasses that inherit this method, by target
            aliases = self._aliases.setdefault(target, [])
            alias_calls = self.alias_calls

            def wrapper(*args, **kwargs):
                token = enter(args) if enter is not None else None
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (fid, t0, t1, stack[-1] if stack else -1)
                if leave is not None:
                    leave(idx, args, token, out)
                for alias, cls in aliases:
                    if isinstance(args[0], cls):
                        alias_calls[alias] += 1
                return out

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper._perfbench_original = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; raises :class:`TracerError` (after undoing
        what was installed) if a target cannot be found."""
        if self._patches:
            raise TracerError("wrappers are already installed")
        self._aliases.clear()
        try:
            for fid, target in enumerate(self.targets):
                self.sites[target] = self._install_one(fid, target)
        except Exception:
            self.restore()
            raise

    def _install_one(self, fid: int, target: str) -> int:
        modname, _, qual = target.partition(":")
        module = importlib.import_module(modname)
        parts = qual.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0], None)
            if not isinstance(original, types.FunctionType):
                raise TracerError(f"{target}: not a function")
            wrapper = self._wrap(original, fid, target)
            sites = 0
            for mod in _scanned_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        sites += 1
            return sites
        cls = getattr(module, parts[0])
        attr = parts[1]
        owner = next((c for c in cls.__mro__ if attr in vars(c)), None)
        if owner is None:
            raise TracerError(f"{target}: no such attribute")
        raw = vars(owner)[attr]
        if owner is not cls:
            # inherited: the owner's wrapper records the call; count it
            # for this class too when the instance is one
            self._alias(owner, attr, cls, target)
            return 1
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, fid, target))
        elif isinstance(raw, types.FunctionType):
            new = self._wrap(raw, fid, target)
        else:
            raise TracerError(f"{target}: not a method")
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)
        return 1

    def _alias(self, owner, attr: str, cls, target: str) -> None:
        owner_target = f"{owner.__module__}:{owner.__name__}.{attr}"
        if owner_target not in self._aliases:
            raise TracerError(
                f"{target}: inherited from {owner_target}, which must be "
                f"listed before it and carry a hook")
        self._aliases[owner_target].append((target, cls))
        self.alias_calls.setdefault(target, 0)

    def restore(self) -> None:
        """Put every original back, including copies of a wrapper that a
        module imported while the wrappers were installed."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        for mod in _scanned_modules():
            for attr, value in list(vars(mod).items()):
                if _is_wrapper(value):
                    setattr(mod, attr, _unwrap(value))

    @contextmanager
    def installed(self):
        """Wrappers installed for the ``with`` body, restored after."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    def summary(self, wall_s: float) -> Dict[str, Any]:
        """Per-layer and per-function calls and self time of the
        recorded spans, over a traced phase of ``wall_s`` seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for fid, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        fn_calls = dict.fromkeys(self.targets, 0)
        fn_self = dict.fromkeys(self.targets, 0.0)
        top = 0.0
        build_s = 0.0
        for i, (fid, t0, t1, parent) in enumerate(spans):
            target = self.targets[fid]
            fn_calls[target] += 1
            fn_self[target] += (t1 - t0) - child[i]
            if parent < 0:
                top += t1 - t0
            if i in self.missed and (
                    parent < 0 or self.layer_of[
                        self.targets[spans[parent][0]]] != "cache"):
                build_s += t1 - t0
        fn_calls.update(self.alias_calls)
        layers = {}
        for layer in self.layers:
            ts = [t for t in self.targets if self.layer_of[t] == layer]
            self_s = sum(fn_self[t] for t in ts)
            layers[layer] = {
                "calls": sum(fn_calls[t] for t in ts
                             if t not in self.alias_calls),
                "self_s": self_s,
                "share": self_s / wall_s if wall_s > 0 else 0.0,
            }
        return {
            "layers": layers,
            "fn_calls": fn_calls,
            "fn_self_s": fn_self,
            "outside_share": (wall_s - top) / wall_s if wall_s > 0 else 0.0,
            "spans": len(spans),
            "cache_build_s": build_s,
            "mb_hashed": self.mb_hashed,
            "runs_by_format": dict(self.runs_by_format),
            "kernel_trace": dict(self.kernel_trace),
        }

    def dump(self, path: Path, origin: float, **meta) -> None:
        """Write the recorded spans, gzip-compressed JSON, once."""
        payload = {
            **meta,
            "names": self.targets,
            "layers": [self.layer_of[t] for t in self.targets],
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[fid, round(t0 - origin, 9), round(t1 - origin, 9),
                       parent] for fid, t0, t1, parent in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _unwrap(value):
    while _is_wrapper(value):
        value = value._perfbench_original
    return value


def installed_wrappers() -> List[str]:
    """Names of wrappers still reachable from any scanned module or
    from a class those modules define (empty after a restore)."""
    found = []
    for mod in _scanned_modules():
        for attr, value in list(vars(mod).items()):
            if _is_wrapper(value):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for name, raw in list(vars(value).items()):
                    fn = getattr(raw, "__func__", raw)
                    if _is_wrapper(fn):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found
