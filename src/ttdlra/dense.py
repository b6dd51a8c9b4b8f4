"""Dense tensor algebra: storage, unfoldings, mode products, SVD.

Index convention
----------------
A tensor with mode sizes ``(N_0, ..., N_{d-1})`` is flattened in column-major
(Fortran) order: mode 0 is the fastest running index.  All matricizations
enumerate their row and column multi-indices the same way, with the smallest
participating mode fastest.  The tangent coordinates and the columns of the
core tangent basis are laid out in this ordering, so it is fixed.

All scalars are 64-bit floats; the tolerances used throughout the package are
calibrated to double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "DenseTensor",
    "SvdResult",
    "matricize",
    "mode_multiply",
    "svd",
    "inner",
]


@dataclass(frozen=True)
class DenseTensor:
    """A d-way array over a multi-index grid.

    Parameters
    ----------
    dims : tuple of int
        Positive mode sizes ``(N_0, ..., N_{d-1})``.
    data : numpy.ndarray
        Flat array of length ``prod(dims)`` in column-major order
        (mode 0 fastest).
    """

    dims: tuple
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise InvalidArgumentError(f"invalid mode sizes {dims}")
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.size != int(np.prod(dims)):
            raise InvalidArgumentError(
                f"data length {data.size} does not match dims {dims}"
            )
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        return cls(arr.shape, arr.ravel(order="F"))

    @classmethod
    def zeros(cls, dims) -> "DenseTensor":
        return cls(tuple(dims), np.zeros(int(np.prod(dims))))

    def to_array(self) -> np.ndarray:
        """Return the tensor as an ndarray of shape ``dims``."""
        return self.data.reshape(self.dims, order="F")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.data.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        if other.dims != self.dims:
            raise InvalidArgumentError("mode sizes differ")
        return DenseTensor(self.dims, self.data + other.data)

    def __sub__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        if other.dims != self.dims:
            raise InvalidArgumentError("mode sizes differ")
        return DenseTensor(self.dims, self.data - other.data)

    def __mul__(self, s):
        return DenseTensor(self.dims, self.data * float(s))

    __rmul__ = __mul__

    def __neg__(self):
        return DenseTensor(self.dims, -self.data)


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition ``M = U diag(s) V^T``.

    ``left_vectors`` and ``right_vectors`` have orthonormal columns and
    ``singular_values`` is nonincreasing and nonnegative.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray


def _check_split(split, d):
    split = tuple(sorted(int(m) for m in split))
    if len(split) == 0:
        raise InvalidArgumentError("split must be nonempty")
    if len(set(split)) != len(split):
        raise InvalidArgumentError("split contains repeated modes")
    if any(m < 0 or m >= d for m in split):
        raise InvalidArgumentError(f"split {split} out of range for order {d}")
    if len(split) == d:
        raise InvalidArgumentError("split must be a proper subset of the modes")
    rest = tuple(m for m in range(d) if m not in split)
    return split, rest


def matricize(x: DenseTensor, split) -> np.ndarray:
    """Unfold ``x`` into a matrix whose rows carry the ``split`` modes.

    Rows enumerate the split modes in increasing mode order with the first
    one fastest; columns do the same for the complementary modes.  The map
    is a linear bijection.
    """
    split, rest = _check_split(split, x.ndim)
    arr = x.to_array().transpose(split + rest)
    m = int(np.prod([x.dims[i] for i in split]))
    n = int(np.prod([x.dims[i] for i in rest]))
    return arr.reshape((m, n), order="F")


def mode_multiply(x: DenseTensor, m, mode: int) -> DenseTensor:
    """Left-multiply the matrix ``m`` onto mode ``mode`` of ``x``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InvalidArgumentError("mode factor must be a matrix")
    if mode < 0 or mode >= x.ndim:
        raise InvalidArgumentError(f"mode {mode} out of range")
    if m.shape[1] != x.dims[mode]:
        raise InvalidArgumentError(
            f"matrix has {m.shape[1]} columns, mode {mode} has size {x.dims[mode]}"
        )
    arr = np.tensordot(m, x.to_array(), axes=(1, mode))
    arr = np.moveaxis(arr, 0, mode)
    return DenseTensor.from_array(arr)


def _multiply_modes(arr, factors):
    """``arr x_m mat`` for each ``(m, mat)`` in ``factors``, on a plain array."""
    for m, mat in factors:
        shape = arr.shape
        rows = (math.prod(shape[:m]), shape[m], math.prod(shape[m + 1 :]))
        out = mat[None, :, :] @ arr.reshape(rows)
        arr = out.reshape(shape[:m] + mat.shape[:1] + shape[m + 1 :])
    return arr


def svd(m) -> SvdResult:
    """Thin SVD with a finiteness check on the input."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InvalidArgumentError("svd expects a matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("svd input contains non-finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdResult(u, s, vh.T)


def inner(x: DenseTensor, y: DenseTensor) -> float:
    """Frobenius pairing of two tensors with equal mode sizes."""
    if x.dims != y.dims:
        raise InvalidArgumentError(f"mode sizes differ: {x.dims} vs {y.dims}")
    return float(np.dot(x.data, y.data))


def _exponent(a) -> int:
    """The power of two ``e`` that brings the largest ``|a|`` into [0.5, 1)
    as ``a * 2**-e`` (0 for a zero array): the scaling is exact, and no square
    of the scaled entries overflows or loses the largest one to underflow."""
    return int(np.frexp(np.max(np.abs(a), initial=0.0))[1])


def _norm(a) -> float:
    """Frobenius norm of ``a`` at any scale: taken on ``a * 2**-e`` (``e`` from
    :func:`_exponent`) and scaled back, so where ``np.linalg.norm(a)`` neither
    under- nor overflows the two agree bit for bit."""
    e = _exponent(a)
    return float(np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e))
