"""PlanCache: bounded LRU of prepared per-matrix serving artifacts.

The paper's economics — expensive once-per-matrix preparation (pattern
detection, CRSD build, codelet generation, autotuning) buying cheap
steady-state SpMV — only pay off if the prepared artifacts are *kept*.
The cache keys everything on the matrix's stable content
:func:`~repro.core.serialize.fingerprint`, so the same mathematical
matrix arriving as COO, CRSD or dense hits the same entry, and reports
agree with cache keys on identity.

One :class:`PlanEntry` per matrix holds the canonical COO, the CRSD
builds (per ``mrows``), the prepared kernel runners (per precision /
local-memory / ``nvec``), autotune results and ``auto_format``
decisions.  The cache is LRU-bounded on *entries* (matrices); evicting
an entry drops every prepared artifact with it.

What depends only on the sparsity *pattern* lives one level up, in the
engine's :class:`PatternStore`: the :class:`~repro.core.crsd.CRSDLayout`
each CRSD build is filled from (so a same-pattern matrix costs one value
gather, not a structure analysis), each runner plan's
:class:`~repro.gpu_kernels.crsd_runner.PlanArtifacts` (plan, codelets,
fused outcome), and the shard certificates.  A cluster passes one store
to every device's cache, so each artifact is made once per engine and a
same-pattern runner gets the same artifacts on any device; a standalone
cache keeps a private store and prunes it on eviction.  Everything a
*device* does stays in its own cache: the runners and their value
buffers, the hit/miss counters (which price preparation into simulated
service time), and each runner's fused crashes, verification and
demotions.

Hit/miss/eviction counters live in :class:`CacheStats` and are also
emitted as :mod:`repro.obs` events (category ``serve``) when a profile
session is active, so serving runs show cache behaviour in the same
reports as kernel launches.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.serialize import MatrixFingerprints, ingest
from repro.obs import recorder as _obs
from repro.ocl.device import DeviceSpec, TESLA_C2050

__all__ = ["CacheStats", "PlanEntry", "PlanCache", "PatternStore",
           "default_cache", "reset_default_cache"]


@dataclass
class CacheStats:
    """Lookup counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: runner misses where a resident same-pattern entry already held a
    #: runner of this configuration (only values and buffers are new)
    pattern_reuses: int = 0
    #: shard-certificate hits served from a *shared*
    #: :class:`PatternStore` where the certificate was proven by a
    #: different cache (another cluster device)
    cert_reuses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The counters plus the derived hit rate, JSON-safe."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pattern_reuses": self.pattern_reuses,
            "cert_reuses": self.cert_reuses,
            "hit_rate": self.hit_rate,
        }


#: distinguishes the caches sharing one pattern store (never recycled,
#: unlike ``id()``)
_CACHE_TOKENS = itertools.count()

#: the kinds of entry a :class:`PatternStore` holds
STORE_KINDS = ("certificate", "layout", "plan")


class PatternStore:
    """Shared, read-only-after-insert map of pattern-pure artifacts.

    Everything here is a function of the sparsity *pattern* and the
    build or execution config, never of matrix values, so an artifact
    made once is valid for every same-pattern matrix on every device.
    Three kinds of entry, each keyed by a tuple whose first element is
    the pattern fingerprint:

    - ``"certificate"``: shard certificates, keyed by (pattern, build
      params, row-block boundaries, execution config);
    - ``"layout"``: :class:`~repro.core.crsd.CRSDLayout` builds, keyed
      by (pattern, build params);
    - ``"plan"``: :class:`~repro.gpu_kernels.crsd_runner.PlanArtifacts`
      — a runner plan, its codelets and its certified fused outcome —
      keyed by (pattern, build params, device, precision, local memory,
      ``mrows``, ``nvec``), plus the shard index and row-block
      boundaries for a shard.

    The first cache to make an artifact publishes it; later caches
    (usually other devices) get a hit.  Entries are never replaced
    (a plan's codelets and fused outcome are filled in once, on first
    use); only a cache that privately owns its store may
    :meth:`prune` orphans on eviction.  One store lives per engine:
    a :class:`~repro.cluster.engine.ClusterEngine` shares one across
    its devices, a standalone :class:`PlanCache` keeps its own.
    """

    def __init__(self):
        #: kind -> key -> (artifact, token of the cache that made it)
        self._entries: Dict[str, Dict[Tuple, Tuple[Any, int]]] = {
            kind: {} for kind in STORE_KINDS}
        #: certificate hits proven by another cache
        self.cross_device_reuses = 0

    def count(self, kind: str) -> int:
        """Entries of ``kind`` held."""
        return len(self._entries[kind])

    def get(self, kind: str, key: Tuple, token: int):
        """The ``kind`` artifact under ``key`` (or ``None``) plus whether
        the hit crossed caches — made by a cache other than ``token``."""
        rec = self._entries[kind].get(key)
        if rec is None:
            return None, False
        value, owner = rec
        cross = owner != token
        if cross and kind == "certificate":
            self.cross_device_reuses += 1
        return value, cross

    def put(self, kind: str, key: Tuple, value, token: int) -> None:
        """Publish ``value`` under ``key`` (first writer wins; the store
        is read-only after insert)."""
        self._entries[kind].setdefault(key, (value, token))

    def prune(self, live_patterns: Iterable[str]) -> None:
        """Drop entries whose pattern is not in ``live_patterns``
        (private per-cache stores only — shared stores are never
        pruned, other devices may still hold the pattern)."""
        live = set(live_patterns)
        for kind, entries in self._entries.items():
            self._entries[kind] = {k: v for k, v in entries.items()
                                   if k[0] in live}

    def clear(self) -> None:
        """Drop every entry (private-store reset)."""
        for entries in self._entries.values():
            entries.clear()

    def to_dict(self) -> Dict[str, Any]:
        """Certificate residency and reuse counters, JSON-safe."""
        return {
            "certificates": self.count("certificate"),
            "cross_device_reuses": self.cross_device_reuses,
        }


class PlanEntry:
    """Every prepared artifact of one matrix (one fingerprint).

    Built lazily through the owning cache's accessors; not constructed
    directly by callers.
    """

    def __init__(self, coo, fingerprints: MatrixFingerprints):
        #: the three content hashes computed once at ingest
        self.fingerprints = fingerprints
        self.coo = coo
        #: mrows -> CRSDMatrix
        self._crsd: Dict[int, Any] = {}
        #: (device, precision, use_local_memory, nvec|None) -> runner
        self._runners: Dict[Tuple, Any] = {}
        #: memoised autotune results, keyed by the tune arguments
        self._tunes: Dict[Tuple, Any] = {}
        #: memoised auto_format decisions
        self._formats: Dict[Tuple, str] = {}

    @property
    def fingerprint(self) -> str:
        """The combined fingerprint (this entry's cache key)."""
        return self.fingerprints.combined

    @property
    def pattern_fingerprint(self) -> str:
        """Sparsity-structure hash shared by same-pattern matrices
        (see :func:`repro.core.serialize.pattern_fingerprint`)."""
        return self.fingerprints.pattern

    @property
    def num_runners(self) -> int:
        return len(self._runners)


class PlanCache:
    """Bounded LRU cache of :class:`PlanEntry` objects.

    Parameters
    ----------
    capacity:
        Maximum number of matrix entries kept; the least recently used
        entry (and all its prepared runners) is evicted beyond that.
    store:
        The :class:`PatternStore` of the owning engine (a cluster
        passes one store to every device's cache); by default the
        cache keeps a private one.
    """

    def __init__(self, capacity: int = 16,
                 store: Optional[PatternStore] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, PlanEntry]" = OrderedDict()
        #: CRSD layouts, plan artifacts and shard certificates are
        #: pattern-keyed and live in a :class:`PatternStore` — a
        #: private one per cache by default, or the one the cluster
        #: shares so devices inherit each other's builds and proofs
        self._private_store = store is None
        self.store = store if store is not None else PatternStore()
        self._token = next(_CACHE_TOKENS)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # entry management
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    @property
    def fingerprints(self) -> Tuple[str, ...]:
        """Resident fingerprints, least- to most-recently used."""
        return tuple(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept; a shared pattern store
        is left alone — other devices may still use it)."""
        self._entries.clear()
        if self._private_store:
            self.store.clear()

    def entry(self, coo, fingerprints: MatrixFingerprints) -> PlanEntry:
        """The (possibly new) entry for an ingested matrix, LRU-touched.

        ``coo`` and ``fingerprints`` are the canonical COO form and the
        content hashes :func:`repro.core.serialize.ingest` returned for
        the matrix; nothing is hashed here.  Entry creation itself is
        not counted as a hit or miss — only prepared-artifact lookups
        (:meth:`runner`, :meth:`tune`, :meth:`auto_format`) move the
        counters.
        """
        key = fingerprints.combined
        entry = self._entries.get(key)
        if entry is None:
            entry = PlanEntry(coo, fingerprints)
            self._entries[key] = entry
            self._evict_over_capacity()
        else:
            self._entries.move_to_end(key)
        return entry

    def _evict_over_capacity(self) -> None:
        evicted = False
        while len(self._entries) > self.capacity:
            fp, entry = self._entries.popitem(last=False)
            self.stats.evictions += 1
            evicted = True
            self._event("plan_cache.evict", fingerprint=fp,
                        runners=entry.num_runners)
        if evicted and self._private_store:
            # pattern artifacts live while any resident entry still
            # shares the pattern; prune the orphans with the eviction
            # (shared stores are never pruned: other devices' entries
            # may still reference the pattern)
            self.store.prune(
                e.pattern_fingerprint for e in self._entries.values())

    # ------------------------------------------------------------------
    # prepared artifacts
    # ------------------------------------------------------------------
    def runner(
        self,
        matrix,
        *,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        mrows: int = 128,
        use_local_memory: bool = True,
        nvec: Optional[int] = None,
    ):
        """A *prepared* CRSD runner for ``matrix`` (cached).

        ``nvec=None`` returns a single-vector
        :class:`~repro.gpu_kernels.crsd_runner.CrsdSpMV`; an integer
        returns the multi-vector
        :class:`~repro.gpu_kernels.crsd_runner.CrsdSpMM` with that
        batch width baked into its codelets.
        """
        from repro.core.crsd import CRSDMatrix

        entry = self.entry(*ingest(matrix))
        if isinstance(matrix, CRSDMatrix) and matrix.mrows == int(mrows):
            entry._crsd.setdefault(int(mrows), matrix)
        return self.runner_for(
            entry, device=device, precision=precision, mrows=mrows,
            use_local_memory=use_local_memory, nvec=nvec)

    def runner_for(
        self,
        entry: PlanEntry,
        *,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        mrows: int = 128,
        use_local_memory: bool = True,
        nvec: Optional[int] = None,
    ):
        """:meth:`runner` for an already-resolved entry (the serving
        engine's hot path — no re-fingerprinting per launch)."""
        from repro.gpu_kernels.crsd_runner import CrsdSpMM, CrsdSpMV

        key = (device, precision, bool(use_local_memory),
               int(mrows), None if nvec is None else int(nvec))
        runner = entry._runners.get(key)
        if runner is not None:
            self._hit("runner", entry.fingerprint, nvec=nvec)
            return runner
        self._miss("runner", entry.fingerprint, nvec=nvec)
        crsd = self._crsd_for(entry, mrows)
        # the plan artifacts are shared through the store, keyed like
        # the runner but by pattern (and the carrier's build params)
        pkey = (entry.pattern_fingerprint, crsd.params) + key
        artifacts, _ = self.store.get("plan", pkey, self._token)
        if nvec is None:
            runner = CrsdSpMV(crsd, device=device, precision=precision,
                              use_local_memory=use_local_memory,
                              artifacts=artifacts)
        else:
            runner = CrsdSpMM(crsd, nvec=int(nvec), device=device,
                              precision=precision, artifacts=artifacts)
        if artifacts is None:
            self.store.put("plan", pkey, runner.artifacts, self._token)
        if any(e.pattern_fingerprint == entry.pattern_fingerprint
               and key in e._runners for e in self._entries.values()):
            # a same-pattern, different-values matrix already prepared
            # this configuration here
            self.stats.pattern_reuses += 1
            self._event("plan_cache.pattern_reuse",
                        fingerprint=entry.fingerprint,
                        pattern=entry.pattern_fingerprint, nvec=nvec)
        runner.prepare()
        entry._runners[key] = runner
        return runner

    def shard_certificate(
        self,
        matrix,
        num_shards: int,
        *,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        mrows: int = 128,
        use_local_memory: bool = True,
        boundaries: Optional[Sequence[int]] = None,
    ):
        """Memoised shard-plan certification for ``matrix``.

        Plans the wavefront-aligned row-block split (``boundaries``
        defaults to the alignment-quantised even split) and runs
        :func:`repro.analyze.sharding.certify_shard_plan` over it,
        memoising the resulting
        :class:`~repro.analyze.sharding.ShardCertificate` in the
        :class:`PatternStore` under the *pattern* fingerprint, CRSD
        build params and boundary rows — the provers never read matrix
        values, so a same-pattern new-values matrix (the serving steady
        state) inherits the certificate, and cluster devices sharing the
        store inherit each other's proofs (counted in
        :attr:`CacheStats.cert_reuses`).  Declined certificates are
        cached too: re-asking cannot make an unprovable plan provable.
        """
        return self.shard_certificate_for(
            self.entry(*ingest(matrix)), num_shards, device=device,
            precision=precision, mrows=mrows,
            use_local_memory=use_local_memory, boundaries=boundaries)

    def shard_certificate_for(
        self,
        entry: PlanEntry,
        num_shards: int,
        *,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        mrows: int = 128,
        use_local_memory: bool = True,
        boundaries: Optional[Sequence[int]] = None,
    ):
        """:meth:`shard_certificate` for an already-resolved entry
        (the cluster's hot path — no re-fingerprinting)."""
        from repro.analyze.sharding import certify_shard_plan
        from repro.shard.plan import ShardPlanner

        cuts = self._shard_cuts(entry, mrows, num_shards, boundaries)
        # the sub-plans are made for one CRSD build of the pattern: a
        # carrier built with other params needs its own certificate
        key = (entry.pattern_fingerprint, self._build_params(entry, mrows),
               cuts, int(num_shards), device, precision, int(mrows),
               bool(use_local_memory))
        cert, cross = self.store.get("certificate", key, self._token)
        if cert is not None:
            if cross:
                self.stats.cert_reuses += 1
            self._hit("shard_plan", entry.fingerprint,
                      num_shards=int(num_shards), cross_device=cross)
            return cert
        self._miss("shard_plan", entry.fingerprint,
                   num_shards=int(num_shards))
        crsd = self._crsd_for(entry, mrows)
        shard_plan = ShardPlanner(crsd, coo=entry.coo).plan(
            int(num_shards), boundaries=boundaries)
        cert = certify_shard_plan(
            crsd, shard_plan, device=device, precision=precision,
            use_local_memory=use_local_memory)
        self.store.put("certificate", key, cert, self._token)
        return cert

    def shard_runner_for(
        self,
        entry: PlanEntry,
        *,
        num_shards: int,
        shard_index: int,
        device: DeviceSpec = TESLA_C2050,
        precision: str = "double",
        mrows: int = 128,
        use_local_memory: bool = True,
    ):
        """A *prepared* single-shard
        :class:`~repro.shard.executor.ShardedSpMV` runner (cached).

        The cluster's per-device execution path: the device serving
        shard ``shard_index`` of a split matrix activates it only
        through the certificate — :meth:`shard_certificate_for` is
        consulted first (a store hit on another device's proof counts
        as cross-device reuse), and an unprovable plan raises
        :class:`~repro.shard.plan.ShardPlanError` instead of running.
        """
        from repro.gpu_kernels.crsd_runner import PlanArtifacts
        from repro.shard.executor import ShardedSpMV
        from repro.shard.plan import ShardPlanError

        key = ("shard", device, precision, bool(use_local_memory),
               int(mrows), int(num_shards), int(shard_index))
        runner = entry._runners.get(key)
        if runner is not None:
            self._hit("shard_runner", entry.fingerprint,
                      shard=int(shard_index))
            return runner
        cert = self.shard_certificate_for(
            entry, num_shards, device=device, precision=precision,
            mrows=mrows, use_local_memory=use_local_memory)
        if not cert.ok:
            raise ShardPlanError(
                "refusing to activate an uncertified shard plan: "
                + ("; ".join(cert.reasons) or "no certificate"))
        self._miss("shard_runner", entry.fingerprint,
                   shard=int(shard_index))
        crsd = self._crsd_for(entry, mrows)
        pkey = ((entry.pattern_fingerprint, crsd.params) + key
                + (self._shard_cuts(entry, mrows, num_shards),))
        artifacts, _ = self.store.get("plan", pkey, self._token)
        if artifacts is None:
            artifacts = PlanArtifacts(cert.subplans[int(shard_index)])
            self.store.put("plan", pkey, artifacts, self._token)
        runner = ShardedSpMV(
            crsd, cert, shards=(int(shard_index),), device=device,
            precision=precision, artifacts={int(shard_index): artifacts})
        runner.prepare()
        entry._runners[key] = runner
        return runner

    @staticmethod
    def _shard_cuts(entry: PlanEntry, mrows: int, num_shards: int,
                    boundaries: Optional[Sequence[int]] = None
                    ) -> Tuple[int, ...]:
        """The row-block boundaries of a split (default: the
        alignment-quantised even split)."""
        from repro.shard.plan import auto_boundaries

        if boundaries is None:
            boundaries = auto_boundaries(int(entry.coo.nrows), int(mrows),
                                         int(num_shards))
        return tuple(int(b) for b in boundaries)

    @staticmethod
    def _build_params(entry: PlanEntry, mrows: int):
        """The build params of ``entry``'s CRSD for ``mrows``: those of
        the resident build, else the ones :meth:`_crsd_for` builds with
        (so nothing is built to find them)."""
        from repro.core.crsd import CRSDBuildParams, compatible_wavefront

        crsd = entry._crsd.get(int(mrows))
        if crsd is not None:
            return crsd.params
        return CRSDBuildParams(mrows=int(mrows),
                               wavefront_size=compatible_wavefront(mrows))

    def _crsd_for(self, entry: PlanEntry, mrows: int):
        """The (possibly new) CRSD build of ``entry`` for ``mrows``.

        The pattern's :class:`~repro.core.crsd.CRSDLayout` comes from
        the store, so only the first same-pattern matrix (on any device
        sharing the store) analyses the structure; the rest gather
        their values into it.
        """
        from repro.core.crsd import CRSDMatrix

        crsd = entry._crsd.get(int(mrows))
        if crsd is None:
            params = self._build_params(entry, mrows)
            key = (entry.pattern_fingerprint, params)
            layout, _ = self.store.get("layout", key, self._token)
            crsd = CRSDMatrix.from_coo(entry.coo, params, layout=layout)
            if layout is None:
                self.store.put("layout", key, crsd.layout, self._token)
            entry._crsd[int(mrows)] = crsd
        return crsd

    def tune(self, matrix, **kwargs):
        """Memoised :func:`repro.core.autotune.tune` for ``matrix``.

        The kwargs (grids, precision, ``fast``, ...) are part of the
        memo key, so different tuning requests coexist; a repeated
        request is served from the cache instead of re-running the
        whole grid search.
        """
        from repro.core.autotune import tune as _tune

        entry = self.entry(*ingest(matrix))
        key = tuple(sorted(
            (k, tuple(v) if isinstance(v, (list, tuple)) else v)
            for k, v in kwargs.items()))
        result = entry._tunes.get(key)
        if result is not None:
            self._hit("tune", entry.fingerprint)
            return result
        self._miss("tune", entry.fingerprint)
        result = _tune(entry.coo, **kwargs)
        entry._tunes[key] = result
        return result

    def auto_format(self, matrix, precision: str = "double",
                    device: DeviceSpec = TESLA_C2050,
                    mrows: int = 128) -> str:
        """Memoised :func:`repro.api.auto_format` decision."""
        from repro.api import _auto_format_impl as _auto_format

        entry = self.entry(*ingest(matrix))
        key = (device, precision, int(mrows))
        fmt = entry._formats.get(key)
        if fmt is not None:
            self._hit("auto_format", entry.fingerprint)
            return fmt
        self._miss("auto_format", entry.fingerprint)
        fmt = _auto_format(entry.coo, precision, device, mrows)
        entry._formats[key] = fmt
        return fmt

    # ------------------------------------------------------------------
    # counters + observation
    # ------------------------------------------------------------------
    def _hit(self, kind: str, fingerprint: str, **attrs) -> None:
        self.stats.hits += 1
        self._event(f"plan_cache.hit.{kind}", fingerprint=fingerprint,
                    **attrs)

    def _miss(self, kind: str, fingerprint: str, **attrs) -> None:
        self.stats.misses += 1
        self._event(f"plan_cache.miss.{kind}", fingerprint=fingerprint,
                    **attrs)

    @staticmethod
    def _event(name: str, **attrs) -> None:
        sess = _obs.ACTIVE
        if sess is not None:
            sess.record_event(name, category="serve", **attrs)


#: the process-wide default cache (``repro.api.auto_format`` and
#: ``repro tune`` consult it so in-session repeats never re-prepare)
_DEFAULT: Optional[PlanCache] = None

#: capacity of the default cache
DEFAULT_CAPACITY = 16


def default_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PlanCache(capacity=DEFAULT_CAPACITY)
    return _DEFAULT


def reset_default_cache() -> None:
    """Drop the process-wide cache (tests; memory pressure)."""
    global _DEFAULT
    _DEFAULT = None
