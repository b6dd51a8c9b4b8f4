"""Dense tensor algebra: the ambient oracle type, unfoldings, mode products, SVD,
and the small-matrix kernels.

:class:`DenseTensor` is the ambient oracle type: only oracles form one, and it
refuses more than ``AMBIENT_LIMIT`` entries.  Cores are plain ndarrays.

The package's matrices are small (tens of entries), where numpy's Python
wrappers, not LAPACK or BLAS, take the time.  The small-matrix kernels give
numpy's bits with little else: :func:`_qr`, :func:`_svd`, :func:`_eigh`,
:func:`_inv`, :func:`_solve` and :func:`_norm2` each call the numpy 2
``_umath_linalg`` gufuncs that ``np.linalg`` calls, and :func:`_frobenius`,
:func:`_moveaxis` and :func:`_contract` are ``np.linalg.norm``, ``np.moveaxis``
and ``np.tensordot``.

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

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidArgumentError, OversizeError

__all__ = [
    "AMBIENT_LIMIT",
    "DenseTensor",
    "SvdResult",
    "matricize",
    "mode_multiply",
    "svd",
    "inner",
]

# dense-ambient computations (oracles, curvature reports) are limited to this size
AMBIENT_LIMIT = 4096


def _check_ambient(dims) -> int:
    """The entry count over ``dims``; ``OversizeError`` above ``AMBIENT_LIMIT``."""
    size = math.prod(int(n) for n in dims)
    if size > AMBIENT_LIMIT:
        raise OversizeError(f"ambient size {size} exceeds the dense limit {AMBIENT_LIMIT}")
    return size


def _check_finite(a, what: str) -> None:
    if not np.isfinite(a).all():
        raise InvalidArgumentError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class DenseTensor:
    """A d-way ambient array of at most ``AMBIENT_LIMIT`` entries.

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
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise InvalidArgumentError(f"invalid mode sizes {dims}")
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.size != _check_ambient(dims):
            raise InvalidArgumentError(f"data length {data.size} does not match dims {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=float)
        return cls(arr.shape, arr.ravel(order="F"))

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
        return float(_frobenius(self.data))

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
    return DenseTensor.from_array(_tensordot_modes(x.to_array(), [(mode, m)]))


def _tensordot_modes(arr, factors) -> np.ndarray:
    """:func:`mode_multiply` on an array for each ``(m, mat)`` in ``factors``, column-major:
    the oracles' product, independent of the solver's :func:`_multiply_modes`."""
    for m, mat in factors:
        arr = np.asfortranarray(_moveaxis(_contract(mat, arr, (1, m)), 0, m))
    return arr


def _multiply_modes(arr, factors):
    """``arr x_m mat`` for each ``(m, mat)`` in ``factors``, on a plain array."""
    for m, mat in factors:
        shape = arr.shape
        rows = (math.prod(shape[:m]), shape[m], math.prod(shape[m + 1 :]))
        out = mat[None, :, :] @ arr.reshape(rows)
        arr = out.reshape(shape[:m] + mat.shape[:1] + shape[m + 1 :])
    return arr


def _contract(a, b, axes) -> np.ndarray:
    """``np.tensordot(a, b, axes)`` of two arrays, bit for bit: its transpose,
    reshape and one ``np.dot``, without its axis parsing.  ``axes`` is an int
    ``k`` (the last ``k`` axes of ``a`` with the first ``k`` of ``b``) or a pair
    of nonnegative axes or of equal-length sequences of them."""
    if isinstance(axes, int):
        axes_a, axes_b = range(a.ndim - axes, a.ndim), range(axes)
    else:
        axes_a, axes_b = axes
        if isinstance(axes_a, int):
            axes_a, axes_b = (axes_a,), (axes_b,)
    free_a = [k for k in range(a.ndim) if k not in axes_a]
    free_b = [k for k in range(b.ndim) if k not in axes_b]
    shape = [a.shape[k] for k in free_a] + [b.shape[k] for k in free_b]
    inner = math.prod(a.shape[k] for k in axes_a)
    at = a.transpose(free_a + list(axes_a)).reshape(math.prod(shape[: len(free_a)]), inner)
    bt = b.transpose(list(axes_b) + free_b).reshape(inner, math.prod(shape[len(free_a) :]))
    return np.dot(at, bt).reshape(shape)


def _qr(a, mode="reduced") -> tuple:
    """``np.linalg.qr(a, mode)`` of a real matrix, bit for bit, both factors
    C-ordered as numpy's: its gufuncs ``qr_r_raw`` (in place) and ``qr_reduced``
    or ``qr_complete``.  ``mode`` is ``"reduced"``, ``"complete"`` or ``"r"`` (R alone)."""
    m, n = a.shape
    cols = m if mode == "complete" and m > n else min(m, n)  # the columns of Q
    f = np.array(a, dtype=float, order="C")
    tau = _gufunc(_umath_linalg.qr_r_raw, f)
    r = f[:cols].copy()
    r[_below_diagonal(cols, n)] = 0.0
    if mode == "r":
        return r
    return _gufunc(_umath_linalg.qr_complete if cols > n else _umath_linalg.qr_reduced, f, tau), r


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _gufunc(gufunc, *args):
    """One call of a ``numpy.linalg._umath_linalg`` gufunc under ``np.linalg``'s error
    state, whose LAPACK-failure signal, the invalid flag, raises ``InvalidArgumentError``."""
    try:
        return gufunc(*args)
    except FloatingPointError as exc:
        raise InvalidArgumentError(f"LAPACK failed in {gufunc.__name__}: {exc}") from None


_SVD = {"thin": _umath_linalg.svd_s, "full": _umath_linalg.svd_f, "values": _umath_linalg.svd}


def _svd(a, mode="thin"):
    """``np.linalg.svd(a)``: ``(u, s, vh)`` thin (``full_matrices=False``) or
    ``"full"``, or ``s`` alone (``"values"``, ``compute_uv=False``)."""
    return _gufunc(_SVD[mode], a)


def _eigh(a, vectors=True):
    """``np.linalg.eigh(a)`` as ``(w, v)``, or ``np.linalg.eigvalsh(a)``."""
    return _gufunc(_umath_linalg.eigh_lo if vectors else _umath_linalg.eigvalsh_lo, a)


def _inv(a) -> np.ndarray:
    """``np.linalg.inv(a)``."""
    return _gufunc(_umath_linalg.inv, a)


def _solve(a, b) -> np.ndarray:
    """``np.linalg.solve(a, b)``, ``b`` a vector or a matrix."""
    return _gufunc(_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve, a, b)


def _norm2(a):
    """``np.linalg.norm(a, 2)`` of a matrix: its largest singular value."""
    return _svd(a, "values").max()


def _frobenius(a):
    """``np.linalg.norm(a)``, the same ``np.float64``."""
    v = a.ravel(order="K")
    return np.sqrt(v.dot(v))


def _moveaxis(a, source, destination) -> np.ndarray:
    """``np.moveaxis(a, source, destination)``, one ``transpose`` with its permutation."""
    if isinstance(source, int):
        source, destination = (source,), (destination,)
    source = [k % a.ndim for k in source]
    order = [k for k in range(a.ndim) if k not in source]
    for dest, src in sorted(zip((k % a.ndim for k in destination), source)):
        order.insert(dest, src)
    return a.transpose(order)


@functools.lru_cache(maxsize=1024)
def _below_diagonal(rows, cols) -> np.ndarray:
    """The mask of the entries below the diagonal, which ``np.triu`` zeroes
    (read-only: every caller of a shape shares it)."""
    mask = np.tri(rows, cols, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def svd(m) -> SvdResult:
    """Thin SVD with a finiteness check on the input."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InvalidArgumentError("svd expects a matrix")
    _check_finite(m, "svd input")
    u, s, vh = _svd(m)
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
    return float(np.ldexp(_frobenius(np.ldexp(a, -e)), e))
