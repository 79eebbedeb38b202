"""Persist CRSD matrices to disk (.npz) and fingerprint them.

CRSD construction (analysis + slab fill + codegen) is the expensive,
once-per-matrix step; iterative applications amortise it by storing
the built format.  The file carries every array of Fig. 4 plus the
region metadata needed to regenerate codelets bit-identically.

:func:`fingerprint` is the identity half of that amortisation story:
a stable content hash of the *mathematical* matrix, independent of the
carrier format, so cache keys (the serving layer's
:class:`~repro.serve.cache.PlanCache`), profile artifacts and saved
files all agree on which matrix they are talking about.  Like the
format, the hash is paid once per carrier object: :func:`fingerprints`
memoises it on the carrier and freezes the carrier's arrays, so the
memo cannot go stale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from repro.core.crsd import CRSDBuildParams, CRSDMatrix
from repro.core.pattern import DiagonalPattern, PatternRegion
from repro.formats.base import SparseFormat
from repro.formats.coo import COOMatrix

#: format marker + version for forward compatibility
MAGIC = "repro-crsd"
VERSION = 1

#: domain tag hashed into every fingerprint; bump if the canonical
#: byte layout below ever changes
FINGERPRINT_DOMAIN = b"repro-matrix-fp/v1"

#: domain tags of the pattern/value halves of the split fingerprint
PATTERN_FINGERPRINT_DOMAIN = b"repro-matrix-fp-pattern/v1"
VALUE_FINGERPRINT_DOMAIN = b"repro-matrix-fp-values/v1"

#: hex digits of the (truncated) fingerprint
FINGERPRINT_LEN = 16


@dataclass(frozen=True)
class MatrixFingerprints:
    """The three content hashes of one matrix.

    ``combined`` is the historical :func:`fingerprint` (the
    backward-compatible cache key over shape + coordinates + values);
    ``pattern`` hashes only shape + coordinates, so two matrices with
    the same sparsity structure but different values share it (and can
    share cached plans, codelets and fused callables); ``values``
    hashes only the value array.  ``pattern`` + ``values`` together
    identify the matrix exactly as ``combined`` does.
    """

    combined: str
    pattern: str
    values: str


def _digest(coo, variant: bytes) -> MatrixFingerprints:
    """The three hashes of a canonical COO matrix (never memoised)."""
    shape = np.asarray([coo.nrows, coo.ncols], dtype=np.int64).tobytes()
    rows = np.ascontiguousarray(coo.rows, dtype=np.int64).tobytes()
    cols = np.ascontiguousarray(coo.cols, dtype=np.int64).tobytes()
    vals = np.ascontiguousarray(coo.vals, dtype=np.float64).tobytes()
    combined = hashlib.sha256(
        FINGERPRINT_DOMAIN + variant + shape + rows + cols + vals)
    pattern = hashlib.sha256(
        PATTERN_FINGERPRINT_DOMAIN + variant + shape + rows + cols)
    values = hashlib.sha256(VALUE_FINGERPRINT_DOMAIN + variant + vals)
    return MatrixFingerprints(
        combined=combined.hexdigest()[:FINGERPRINT_LEN],
        pattern=pattern.hexdigest()[:FINGERPRINT_LEN],
        values=values.hexdigest()[:FINGERPRINT_LEN])


def fingerprints(matrix) -> MatrixFingerprints:
    """All three content hashes of ``matrix`` in one canonicalisation
    pass (see :func:`fingerprint` for the canonical form and the
    accepted carrier formats).

    A sparse carrier (any :class:`~repro.formats.base.SparseFormat`,
    :class:`~repro.core.crsd.CRSDMatrix` and
    :class:`~repro.core.symcrsd.SymCRSDMatrix` included) is hashed
    once: the first call marks every array of its
    ``array_inventory()`` read-only — so an in-place write raises
    numpy's ``ValueError`` instead of leaving a stale hash — and
    memoises the result, together with the carrier's canonical COO
    form, on the object.  The memo holds while the carrier keeps the
    same shape and the very same, still read-only array objects;
    rebinding one (``coo.vals = new``) or making one writeable again
    re-hashes.  Dense ndarrays and scipy-style objects are hashed on
    every call.
    """
    from repro.api import _as_coo

    # carriers whose *serving identity* differs from the mathematical
    # matrix (e.g. the symmetric half carrier, whose cached plans and
    # codelets are not interchangeable with the full pattern's) declare
    # a variant tag folded into every hash — read off the original
    # object, before the COO coercion erases it
    variant = bytes(getattr(matrix, "fingerprint_variant", b""))
    if not isinstance(matrix, SparseFormat):
        return _digest(_as_coo(matrix), variant)
    memo = _valid_memo(matrix)
    if memo is not None:
        return memo[3]
    arrays = tuple(matrix.array_inventory().values())
    for arr in arrays:
        arr.flags.writeable = False
    coo = _as_coo(matrix)
    fps = _digest(coo, variant)
    if coo is not matrix:
        # the memoised canonical form is shared by every request that
        # ingests this carrier, so it is frozen too, and it records
        # whose fingerprints it travels with (see as_ingested)
        for arr in coo.array_inventory().values():
            arr.flags.writeable = False
        coo._ingested_fingerprints = fps
    # the memo keeps the hashed arrays themselves, not their ids: an id
    # can be reused by a new array once a rebound one is freed; a COO
    # carrier is its own canonical form (no self-reference kept)
    matrix._fingerprints_memo = (
        matrix.shape, arrays, None if coo is matrix else coo, fps)
    return fps


def _valid_memo(matrix):
    """The carrier's ``(shape, arrays, coo, fingerprints)`` memo, or
    ``None`` when absent or stale."""
    memo = getattr(matrix, "_fingerprints_memo", None)
    if memo is None or memo[0] != matrix.shape:
        return None
    arrays = tuple(matrix.array_inventory().values())
    if len(memo[1]) != len(arrays) or not all(
            a is b and not a.flags.writeable
            for a, b in zip(memo[1], arrays)):
        return None
    return memo


class Ingested(NamedTuple):
    """What :func:`ingest` returns for one matrix: its canonical COO
    form and its fingerprints, produced together."""

    coo: COOMatrix
    fingerprints: MatrixFingerprints


def ingest(matrix) -> Ingested:
    """The canonical COO form of ``matrix`` and its fingerprints.

    The serving layer's one ingest step per request, one
    :func:`fingerprints` call.  A sparse carrier is canonicalised and
    hashed once, through its memo: a resident CRSD, ELL or CSR carrier
    costs one conversion and one hash however often it is served.  A
    dense or scipy-style input is canonicalised once and the resulting
    COO is hashed, so it is never canonicalised twice.
    """
    from repro.api import _as_coo

    if not isinstance(matrix, SparseFormat):
        coo = _as_coo(matrix)
        return Ingested(coo, fingerprints(coo))
    fps = fingerprints(matrix)
    # fingerprints() has just validated or written the memo
    coo = matrix._fingerprints_memo[2]
    return Ingested(matrix if coo is None else coo, fps)


def as_ingested(matrix) -> Ingested:
    """``ingest(matrix)``, or ``matrix`` itself when it already is the
    :class:`Ingested` value :func:`ingest` returned.

    A passed-through value is checked, without hashing, against what
    ingest recorded: its ``coo`` must be a :class:`COOMatrix` whose
    memo (or, for the canonical form of another carrier, whose record)
    holds exactly its ``fingerprints``.  A hand-built pair fails with
    ``ValueError`` instead of serving another matrix's cached entry.
    """
    if not isinstance(matrix, Ingested):
        return ingest(matrix)
    coo, fps = matrix
    if not isinstance(coo, COOMatrix):
        raise TypeError(
            "an Ingested value carries the canonical COOMatrix, got "
            f"{type(coo).__name__}; pass the matrix itself instead")
    recorded = getattr(coo, "_ingested_fingerprints", None)
    if recorded is None:
        memo = _valid_memo(coo)
        recorded = memo[3] if memo is not None else None
    if recorded is None or recorded != fps:
        raise ValueError(
            "the Ingested value's fingerprints were not computed for "
            "its matrix; build it with repro.core.serialize.ingest")
    return matrix


def fingerprint(matrix) -> str:
    """Stable content hash of a matrix, as a short hex string.

    The hash is computed over the *canonical COO form* — triplets
    sorted row-major with duplicate coordinates summed and explicit
    zeros dropped (exactly what :class:`~repro.formats.coo.COOMatrix`
    construction does) — so it is invariant under the entry order and
    duplicate-splitting of the input, and identical across carrier
    formats: a :class:`~repro.core.crsd.CRSDMatrix` fingerprints the
    same as the COO (or dense array) it was built from.

    Accepts anything :func:`repro.api._as_coo` does: COO, CRSD, any
    :class:`~repro.formats.base.SparseFormat`, a dense 2-D ndarray, or
    a scipy-style object with ``.tocoo()``.
    """
    return fingerprints(matrix).combined


def pattern_fingerprint(matrix) -> str:
    """Content hash of the sparsity *pattern* alone (shape +
    coordinates, values excluded) — equal across same-pattern
    matrices with different values."""
    return fingerprints(matrix).pattern


def value_fingerprint(matrix) -> str:
    """Content hash of the canonical value array alone."""
    return fingerprints(matrix).values


def save_crsd(crsd: CRSDMatrix, path: Union[str, Path]) -> None:
    """Write a CRSD matrix to ``path`` (numpy .npz)."""
    meta = {
        "magic": MAGIC,
        "version": VERSION,
        "shape": list(crsd.shape),
        "nnz": crsd.nnz,
        "params": {
            "mrows": crsd.params.mrows,
            "idle_fill_max_rows": crsd.params.idle_fill_max_rows,
            "detect_scatter": crsd.params.detect_scatter,
            "wavefront_size": crsd.params.wavefront_size,
        },
        "regions": [
            {
                "start_row": r.start_row,
                "num_segments": r.num_segments,
                "mrows": r.mrows,
                "ncols": r.ncols,
                "offsets": list(r.pattern.offsets),
            }
            for r in crsd.regions
        ],
    }
    np.savez_compressed(
        Path(path),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        dia_val=crsd.dia_val,
        scatter_rowno=crsd.scatter_rowno,
        scatter_colval=crsd.scatter_colval,
        scatter_val=crsd.scatter_val,
        scatter_occupancy=crsd.scatter_occupancy,
    )


def load_crsd(path: Union[str, Path]) -> CRSDMatrix:
    """Read a CRSD matrix written by :func:`save_crsd`."""
    with np.load(Path(path)) as data:
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: not a repro CRSD file") from exc
        if meta.get("magic") != MAGIC:
            raise ValueError(f"{path}: not a repro CRSD file")
        if meta.get("version") != VERSION:
            raise ValueError(
                f"{path}: unsupported CRSD file version {meta.get('version')}"
            )
        params = CRSDBuildParams(**meta["params"])
        regions = tuple(
            PatternRegion(
                pattern=DiagonalPattern.from_offsets(r["offsets"]),
                start_row=r["start_row"],
                num_segments=r["num_segments"],
                mrows=r["mrows"],
                ncols=r["ncols"],
            )
            for r in meta["regions"]
        )
        return CRSDMatrix(
            shape=tuple(meta["shape"]),
            params=params,
            regions=regions,
            dia_val=data["dia_val"],
            scatter_rowno=data["scatter_rowno"],
            scatter_colval=data["scatter_colval"],
            scatter_val=data["scatter_val"],
            scatter_occupancy=data["scatter_occupancy"],
            nnz=meta["nnz"],
        )
