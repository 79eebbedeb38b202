"""Common machinery shared by all sparse storage formats.

Every concrete format derives from :class:`SparseFormat` and implements
the small abstract surface (``nnz``, ``matvec``, ``to_coo``,
``array_inventory``).  The base class supplies shape/dtype validation,
``__matmul__`` sugar, dense round-tripping and footprint accounting so
that each format module only contains what is genuinely
format-specific.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple

import numpy as np

from repro.validation import is_real_numeric

#: dtype used for all stored values; kernels cast to float32 on demand.
VALUE_DTYPE = np.float64

#: dtype used for all stored indices (matches the 4-byte ints the paper's
#: GPU kernels use).
INDEX_DTYPE = np.int32


class FormatError(ValueError):
    """Raised when a matrix cannot be represented or validated."""


def check_shape(shape: Tuple[int, int]) -> Tuple[int, int]:
    """Validate and normalise a 2-tuple matrix shape.

    Raises :class:`FormatError` for non-2D, non-positive or non-integer
    shapes.
    """
    try:
        nrows, ncols = shape
    except (TypeError, ValueError) as exc:
        raise FormatError(f"shape must be a 2-tuple, got {shape!r}") from exc
    nrows, ncols = int(nrows), int(ncols)
    if nrows <= 0 or ncols <= 0:
        raise FormatError(f"shape must be positive, got {shape!r}")
    return nrows, ncols


def check_vector(x: np.ndarray, n: int, name: str = "x") -> np.ndarray:
    """Validate a source/destination vector of length ``n``.

    ``x`` must have a real numeric dtype (float/int; complex, string,
    bool and object inputs raise :class:`FormatError`), the dtype rule
    of :func:`~repro.validation.check_operand`.  Returns ``x`` as a
    contiguous 1-D float array (no copy when already conforming; a
    strided slice, such as a column of a block of vectors, is copied).
    """
    x = np.asarray(x)
    if not is_real_numeric(x):
        raise FormatError(
            f"{name} has unsupported dtype {x.dtype}; expected a real "
            "numeric dtype (float/int)")
    if x.ndim != 1:
        raise FormatError(f"{name} must be 1-D, got ndim={x.ndim}")
    if x.shape[0] != n:
        raise FormatError(f"{name} has length {x.shape[0]}, expected {n}")
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(VALUE_DTYPE)
    return np.ascontiguousarray(x)


class SparseFormat(abc.ABC):
    """Abstract base class for sparse matrix storage formats.

    Concrete formats store their arrays however the format dictates and
    expose them through :meth:`array_inventory` so the footprint
    accountant and the performance model can reason about bytes moved
    without knowing format internals.
    """

    #: short lowercase format name ("csr", "dia", ...), set by subclasses.
    name: str = "abstract"

    def __init__(self, shape: Tuple[int, int]):
        self._shape = check_shape(shape)

    # ------------------------------------------------------------------
    # abstract surface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of *mathematical* nonzeros stored (excluding padding)."""

    @abc.abstractmethod
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Reference sequential y = A @ x.

        This is the golden semantics every generated/simulated kernel is
        tested against.
        """

    @abc.abstractmethod
    def to_coo(self) -> "repro.formats.coo.COOMatrix":  # noqa: F821
        """Convert back to canonical COO (sorted row-major, no explicit zeros
        unless the format materialised them as values)."""

    @abc.abstractmethod
    def array_inventory(self) -> Dict[str, np.ndarray]:
        """Mapping of array name -> stored ndarray for footprint accounting."""

    # ------------------------------------------------------------------
    # shared behaviour
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Matrix shape ``(nrows, ncols)``."""
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def stored_elements(self) -> int:
        """Number of value slots actually stored, *including* padding.

        Formats that pad (DIA, ELL) override this; by default it equals
        ``nnz``.
        """
        return self.nnz

    @property
    def fill_ratio(self) -> float:
        """stored_elements / nnz — 1.0 means no padding waste."""
        nnz = self.nnz
        return float(self.stored_elements) / nnz if nnz else 1.0

    def todense(self) -> np.ndarray:
        """Materialise as a dense ndarray (small matrices / tests only)."""
        return self.to_coo().todense()

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Multi-vector SpMM: ``Y = A @ X`` for ``X`` of shape
        ``(ncols, k)``.

        The default loops :meth:`matvec` over columns; formats with a
        cheaper blocked path override it.  Multi-RHS products amortise
        the index traffic over ``k`` vectors — the same argument the
        paper makes for baking indices away entirely.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.ncols:
            raise FormatError(
                f"X must be ({self.ncols}, k), got {x.shape}"
            )
        k = x.shape[1]
        if out is None:
            out = np.zeros((self.nrows, k), dtype=np.result_type(x, np.float64))
        elif out.shape != (self.nrows, k):
            raise FormatError(f"out must be ({self.nrows}, {k})")
        for j in range(k):
            out[:, j] = self.matvec(np.ascontiguousarray(x[:, j]))
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 2:
            return self.matmat(x)
        return self.matvec(x)

    def nbytes(self, value_itemsize: int = 8, index_itemsize: int = 4) -> int:
        """Total bytes of the stored representation.

        ``value_itemsize`` is 8 for double precision, 4 for single; index
        arrays always use ``index_itemsize`` bytes per element.  Floating
        arrays are counted at ``value_itemsize`` regardless of the dtype
        they are held in host-side (the paper transfers them to the
        device at the benchmark precision).
        """
        total = 0
        for arr in self.array_inventory().values():
            if np.issubdtype(arr.dtype, np.floating):
                total += arr.size * value_itemsize
            else:
                total += arr.size * index_itemsize
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} shape={self.shape} nnz={self.nnz} "
            f"stored={self.stored_elements}>"
        )
