"""Tensor-product P1 finite elements for anisotropic diffusion on (0,1)^d.

Each coordinate direction carries piecewise-linear elements on a uniform grid
with homogeneous Dirichlet conditions (boundary nodes eliminated).  The
d-dimensional bilinear form with diffusion matrix ``B(t) = B0 + t B1`` splits
into a diagonal part (one stiffness term per mode, which maps manifold points
into their own tangent space) and a cross part (one transfer-factor pair per
unordered mode pair for the mixed derivatives, which is merely bounded),
mirroring the operator splitting the evolution theory rests on.

All operators and loads are expressed in mass-orthonormal coordinates: the
per-dimension congruence by the Cholesky factor ``L`` of the mass matrix turns
the discrete L2 inner product into the Euclidean product of coefficient
tensors, so the manifold geometry (orthogonal projectors, interface spectra)
applies to coefficients verbatim.  The P1 matrices are tridiagonal and ``L``
is bidiagonal, so only their nonzero entries are stored: every operator
factor ``L^-1 X L^-T`` (:class:`ModeFactor`) acts on an n x k block in O(n k)
by two bidiagonal solves around a tridiagonal product
(:func:`tridiagonal_images`), and no n x n matrix is formed.  A nodal factor
``V`` has the orthonormal coordinates ``L^T V``, so on nodal coefficients a
factor acts as the tridiagonal product alone, as the Galerkin solve of
:mod:`~ttdlra.integrate` uses it.

The quadratic form ``<A u, u>`` of a point (:func:`operator_quadratic_form`,
behind the energies and the mixed-derivative check) is contracted on its core
through the r x r matrices ``U^T (L^-1 X L^-T) U = Ut^T X Ut``, with the
nodal ``Ut = L^-T U``.  Only the oracle ``TTOperator.apply``
and the tangency probe ``check_a1_tangency`` work on the ambient grid.

The source stays factored: :func:`source_loads` gives, per mode, the n x s
matrix of the separable terms' mode loads, one rank-one column per term, and
every consumer reads those columns; no source tensor or train is assembled.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from .dense import DenseTensor, _check_finite, _contract, _eigh, _moveaxis, _multiply_modes, inner
from .errors import InvalidArgumentError
from .manifold import ManifoldPoint, point_boundary_gap, point_to_dense
from .tangent import TangentBasis, TangentVector, tangent_to_ambient

__all__ = [
    "Fem1D",
    "ModeFactor",
    "build_fem1d",
    "load_vector",
    "profile_values",
    "Discretization",
    "mass_orthonormalize",
    "DiffusionCoefficient",
    "TTOperator",
    "OperatorTerm",
    "laplacian_operator",
    "assemble_operator",
    "operator_quadratic_form",
    "source_loads",
    "SourceTerm",
    "lipschitz_constant",
    "check_a1_tangency",
    "mixed_derivative_check",
    "MixedDerivativeReport",
]

_LAPACK_LOCK = threading.Lock()


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrapper ``scipy.linalg._flapack``, whose ``dpbtrf``, ``dtbtrs``,
    ``dpttrf`` and ``dpttrs`` ``scipy.linalg.lapack`` exports.  Loaded on first use, under a
    lock, without ``import scipy.linalg`` (about 300 modules and 20 MiB) and kept in
    ``sys.modules`` under its name, which a later ``import scipy.linalg`` reuses; the
    curvature suite, which factors no banded matrix, loads nothing."""
    name = "scipy.linalg._flapack"
    with _LAPACK_LOCK:
        if name not in sys.modules:
            import scipy  # its __init__ sets up the BLAS and LAPACK the wrapper links

            loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
            spec = FileFinder(os.path.join(scipy.__path__[0], "linalg"), loaders).find_spec(name)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        return sys.modules[name]


@dataclass(frozen=True)
class Fem1D:
    """P1 tridiagonals on a uniform grid of (0,1) with eliminated boundary nodes.

    ``mass``, ``stiffness`` and ``transfer`` hold row i of the matrix in row i,
    ``(X[i, i-1], X[i, i], X[i, i+1])``; the corners ``[0, 0]`` and ``[-1, 2]``
    are never read, and for a symmetric ``X`` the rows ``[:, 1:].T`` are its
    LAPACK lower band storage.  ``transfer`` pairs ``(i, j) -> Int phi_i
    phi_j'``, stencil (-1/2, 0, 1/2), exactly antisymmetric.  ``mass_chol`` is
    the bidiagonal Cholesky factor ``L`` of the mass matrix in lower band
    storage, as ``dpbtrf`` returns it.
    """

    n_cells: int
    h: float
    n_interior: int
    mass: np.ndarray
    stiffness: np.ndarray
    transfer: np.ndarray
    mass_chol: np.ndarray


def build_fem1d(n_cells: int) -> Fem1D:
    """Assemble the 1D P1 mass, stiffness, and transfer tridiagonals."""
    n_cells = int(n_cells)
    if n_cells < 2:
        raise InvalidArgumentError("need at least 2 cells for an interior node")
    n = n_cells - 1
    h = 1.0 / n_cells
    rows = np.ones((n, 1))  # one stencil per matrix row
    mass = np.array([1.0, 4.0, 1.0]) * (h / 6.0) * rows
    chol, info = _lapack().dpbtrf(mass[:, 1:].T, lower=1)
    if info != 0:
        raise InvalidArgumentError(f"mass matrix Cholesky factorization failed (info {info})")
    return Fem1D(
        n_cells=n_cells,
        h=h,
        n_interior=n,
        mass=mass,
        stiffness=np.array([-1.0, 2.0, -1.0]) / h * rows,
        transfer=np.array([-0.5, 0.0, 0.5]) * rows,
        mass_chol=chol,
    )


def tridiagonal_images(rows, y) -> np.ndarray:
    """``X y_i`` for each n x k column group ``y_i`` of ``y`` (n x gk) and tridiagonal
    ``X`` with rows (as in :class:`Fem1D`) in ``rows[:, i]`` (n x g x nb x 3): an
    n x g x nb x k array from one batched product."""
    windows = np.zeros((len(y), 3, y.shape[1]))  # row i: rows i-1, i, i+1 of y
    windows[1:, 0], windows[:, 1], windows[:-1, 2] = y[:-1], y, y[1:]
    return rows @ windows.reshape(len(y), 3, rows.shape[1], -1).transpose(0, 2, 1, 3)


def chol_matmul(chol, y, trans: str) -> np.ndarray:
    """``L @ y`` (``trans="N"``) or ``L^T @ y`` (``"T"``) for the bidiagonal ``L``."""
    out = chol[0, :, None] * y
    if trans == "N":
        out[1:] += chol[1, :-1, None] * y[:-1]
    else:
        out[:-1] += chol[1, :-1, None] * y[1:]
    return out


def chol_solve(chol, y, trans: str) -> np.ndarray:
    """``L^-1 y`` (``trans="N"``) or ``L^-T y`` (``"T"``): one bidiagonal solve."""
    x, info = _lapack().dtbtrs(chol, y, uplo="L", trans=trans)
    if info != 0:
        raise InvalidArgumentError(f"banded triangular solve failed (info {info})")
    return x


@dataclass(frozen=True, eq=False)
class ModeFactor:
    """Operator factor ``L^-1 X L^-T`` of one mode: ``rows`` are the rows of the
    tridiagonal ``X`` (as in :class:`Fem1D`), ``fem`` the mode's elements with
    the shared factor ``L``.  ``@`` applies it to an n x k block in O(n k), by
    two bidiagonal solves around a :func:`tridiagonal_images` product.  The
    n x n ``dense`` matrix (for the splitting sweep and desk-size oracles) is
    built once, when first read."""

    rows: np.ndarray
    fem: Fem1D

    def __matmul__(self, y) -> np.ndarray:
        w, chol = np.asarray(y, dtype=float), self.fem.mass_chol
        z = chol_solve(chol, w.reshape(len(w), -1), "T")
        z = tridiagonal_images(self.rows[:, None, None], z)[:, 0, 0]
        return chol_solve(chol, z, "N").reshape(w.shape)

    @functools.cached_property
    def dense(self) -> np.ndarray:
        return self @ np.eye(self.fem.n_interior)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(12)


def profile_values(profile, x: np.ndarray) -> np.ndarray:
    """``profile`` called once on the array of points ``x``.  A scalar result
    broadcasts; any other must have the shape of ``x``, and all must be finite
    (``InvalidArgumentError``, naming the profile, otherwise)."""
    name = getattr(profile, "__qualname__", repr(profile))
    with np.errstate(all="ignore"):  # non-finite values are reported below
        fx = np.asarray(profile(x), dtype=float)
    if fx.shape not in ((), x.shape):
        raise InvalidArgumentError(f"profile {name} gives shape {fx.shape} on points {x.shape}")
    if not np.isfinite(fx).all():
        raise InvalidArgumentError(f"profile {name} has non-finite values")
    return fx if fx.shape else np.full(x.shape, fx)


def load_vector(fem: Fem1D, profile) -> np.ndarray:
    """Interior load ``Int profile(x) phi_i(x) dx`` by composite Gauss quadrature.

    The profile is called once, on the (cells x 12) array of quadrature points.
    Twelve points per cell push the quadrature error for smooth profiles far
    below 1e-10 of the load norm.
    """
    h = fem.h
    a = np.arange(fem.n_cells)[:, None] * h  # left cell edges
    x = a + (_GAUSS_NODES + 1.0) * (h / 2.0)  # one row of quadrature points per cell
    w = _GAUSS_WEIGHTS * (h / 2.0)
    fx = profile_values(profile, x)
    # interior node i is the right edge of cell i and the left edge of cell i + 1
    to_right = np.sum(w * fx * ((x - a) / h), axis=1)
    to_left = np.sum(w * fx * (1.0 - (x - a) / h), axis=1)
    return to_right[:-1] + to_left[1:]


class Discretization:
    """Per-dimension elements with their banded mass-orthonormal congruences.

    ``stiffness[m]`` and ``transfer[m]`` are the :class:`ModeFactor` s
    ``L^-1 K L^-T`` and ``L^-1 T L^-T``; the transformed mass is the identity.
    """

    def __init__(self, fems):
        self.fems = tuple(fems)
        self.stiffness = [ModeFactor(fem.stiffness, fem) for fem in self.fems]
        self.transfer = [ModeFactor(fem.transfer, fem) for fem in self.fems]

    @property
    def ndim(self) -> int:
        return len(self.fems)

    @property
    def dims(self) -> tuple:
        return tuple(f.n_interior for f in self.fems)

    def to_orthonormal_1d(self, vec, mode: int) -> np.ndarray:
        """Map a nodal vector into orthonormal coordinates (apply ``L^T``)."""
        return chol_matmul(self.fems[mode].mass_chol, np.asarray(vec, float)[:, None], "T")[:, 0]

    def load_orthonormal_1d(self, vec, mode: int) -> np.ndarray:
        """Map a raw load vector into orthonormal coordinates (apply ``L^-1``)."""
        return chol_solve(self.fems[mode].mass_chol, np.asarray(vec, float)[:, None], "N")[:, 0]


def mass_orthonormalize(fems) -> Discretization:
    """Build the cached coordinate transform for a list of 1D elements."""
    return Discretization(fems)


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Symmetric positive definite diffusion matrix ``B(t) = B0 + t B1``.

    Affine dependence makes the bilinear form exactly Lipschitz in time.  The
    eigenvalue floor over ``[0, horizon]`` is attained at an endpoint because
    the smallest eigenvalue of an affine family is concave.
    """

    b0: np.ndarray
    b1: np.ndarray
    horizon: float

    def __post_init__(self):
        b0 = np.asarray(self.b0, dtype=float)
        b1 = np.asarray(self.b1, dtype=float)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "b1", b1)
        if b0.shape != b1.shape or b0.ndim != 2 or b0.shape[0] != b0.shape[1]:
            raise InvalidArgumentError("diffusion matrices must be square, equal size")
        for name, value in (("b0", b0), ("b1", b1), ("horizon", self.horizon)):
            _check_finite(value, f"diffusion {name}")
        if not (np.allclose(b0, b0.T, atol=1e-12) and np.allclose(b1, b1.T, atol=1e-12)):
            raise InvalidArgumentError("diffusion matrices must be symmetric")
        if self.spd_margin <= 0:
            raise InvalidArgumentError(
                "diffusion matrix is not uniformly positive definite on the horizon"
            )

    @property
    def d(self) -> int:
        return self.b0.shape[0]

    def at(self, t: float) -> np.ndarray:
        return self.b0 + float(t) * self.b1

    @property
    def spd_margin(self) -> float:
        lo = np.linalg.eigvalsh(self.at(0.0))[0]
        hi = np.linalg.eigvalsh(self.at(self.horizon))[0]
        return float(min(lo, hi))


@dataclass(frozen=True)
class OperatorTerm:
    coeff: float
    factors: tuple  # ((mode, ModeFactor), ...) sorted by mode; other modes identity


@dataclass(frozen=True)
class TTOperator:
    """Sum of elementary tensor-product operators on coefficient tensors.

    Every term is a scalar times a Kronecker product with a banded mode
    factor on one or two modes and the identity elsewhere, the natural
    matrix-product operator structure of the discretized diffusion form.
    ``apply`` is the dense-ambient oracle.
    """

    dims: tuple
    terms: tuple

    def apply(self, x: DenseTensor) -> DenseTensor:
        arr = x.to_array()
        if arr.shape != self.dims:
            raise InvalidArgumentError("operand does not match the operator sizes")
        acc = np.zeros(self.dims)
        for term in self.terms:
            y = arr
            for mode, factor in term.factors:  # the factor on the mode's fibres
                y = _moveaxis(factor @ _moveaxis(y, mode, 0), 0, mode)
            acc += term.coeff * y
        return DenseTensor.from_array(acc)

    def restrict(self, n_modes: int) -> "TTOperator":
        """The terms that act on ``n_modes`` modes."""
        return TTOperator(self.dims, tuple(t for t in self.terms if len(t.factors) == n_modes))

    @property
    def diagonal_part(self) -> "TTOperator":
        return self.restrict(1)

    @property
    def cross_part(self) -> "TTOperator":
        return self.restrict(2)


def laplacian_operator(disc: Discretization) -> TTOperator:
    """Unit-diffusion diagonal operator; its quadratic form is the discrete
    squared H1 seminorm in orthonormal coordinates."""
    terms = [OperatorTerm(1.0, ((m, disc.stiffness[m]),)) for m in range(disc.ndim)]
    return TTOperator(disc.dims, tuple(terms))


def assemble_operator(coeff: DiffusionCoefficient, disc: Discretization, t: float) -> TTOperator:
    """Galerkin operator of the diffusion form at time ``t``.

    The diagonal part collects ``b_mm(t)`` times one transformed stiffness
    factor per mode.  The cross part has one term per unordered pair
    ``m < n``: the transfer factor is exactly antisymmetric, ``T^T = -T``, so
    the ordered pairs ``b_mn T_m (x) T_n^T + b_nm T_n (x) T_m^T`` merge into
    ``-(b_mn + b_nm) T_m (x) T_n``, d(d+1)/2 terms in all.
    """
    d = disc.ndim
    if coeff.d != d:
        raise InvalidArgumentError("diffusion matrix order does not match the grid")
    slack = 1e-12 * max(1.0, coeff.horizon)
    if not (-slack <= t <= coeff.horizon + slack):
        raise InvalidArgumentError(f"time {t} outside [0, {coeff.horizon}]")
    t = min(max(t, 0.0), coeff.horizon)
    b = coeff.at(t)
    if _eigh(b, vectors=False)[0] <= 0:
        raise InvalidArgumentError("diffusion matrix is not positive definite")
    terms = []
    for m in range(d):
        terms.append(OperatorTerm(float(b[m, m]), ((m, disc.stiffness[m]),)))
    for m in range(d):
        for n in range(m + 1, d):
            c = -(b[m, n] + b[n, m])
            if c != 0.0:
                pair = ((m, disc.transfer[m]), (n, disc.transfer[n]))
                terms.append(OperatorTerm(float(c), pair))
    return TTOperator(disc.dims, tuple(terms))


@dataclass(frozen=True)
class SourceTerm:
    """One separable source term ``c(t) * prod_m g_m(x_m)``.

    ``time_coeff`` is a callable of ``t`` (or a constant); ``profiles`` holds
    one callable per mode, called on an array of points (a scalar result
    broadcasts).
    """

    time_coeff: object
    profiles: tuple

    def coefficient(self, t: float) -> float:
        if callable(self.time_coeff):
            return float(self.time_coeff(t))
        return float(self.time_coeff)


def source_loads(terms, disc: Discretization) -> tuple:
    """Mode loads of a separable source in orthonormal coordinates: per mode m
    an n_m x s matrix whose column j is the load of term j's profile on mode
    m, so the source at time t is ``sum_j c_j(t) (x)_m G_m[:, j]``.  Each
    profile is evaluated once, term by term; no terms give n_m x 0 matrices."""
    for term in terms:
        if len(term.profiles) != disc.ndim:
            raise InvalidArgumentError("source term has the wrong number of profiles")
    loads = tuple(np.zeros((n, len(terms))) for n in disc.dims)
    for j, term in enumerate(terms):
        for m, (fem, profile) in enumerate(zip(disc.fems, term.profiles)):
            loads[m][:, j] = disc.load_orthonormal_1d(load_vector(fem, profile), m)
    return loads


def operator_quadratic_form(point, op) -> float:
    """``<A u, u>`` for a manifold point (or the point of a
    :class:`~ttdlra.tangent.TangentBasis`), contracted on the core through
    the factor-compressed matrices ``U_m^T (L^-1 X L^-T) U_m``, each taken as
    ``Ut^T X Ut`` with ``Ut = L^-T U_m``: one bidiagonal solve per mode that
    a term acts on, and a tridiagonal product per factor."""
    if isinstance(point, TangentBasis):
        point = point.point
    core, us = point.tucker()
    nodal = {}  # mode -> L^-T U_m
    total = 0.0
    for term in op.terms:
        mats = []
        for m, mat in term.factors:
            if m not in nodal:
                nodal[m] = chol_solve(mat.fem.mass_chol, us[m], "T")
            xu = tridiagonal_images(mat.rows[:, None, None], nodal[m])[:, 0, 0]
            mats.append((m, nodal[m].T @ xu))
        w = _multiply_modes(core, mats)
        total += term.coeff * float(_contract(w, core, core.ndim))
    return total


def lipschitz_constant(disc: Discretization, coeff: DiffusionCoefficient) -> float:
    """Discrete time-Lipschitz constant of the operator family.

    Bounds ``|(A(t) - A(s)) y|`` by ``L |t - s|`` times the discrete V-norm of
    ``y``; built from the drift matrix entries and the largest transformed
    stiffness eigenvalue (the transfer Gramians are dominated by the
    stiffness, since projecting a derivative cannot increase its norm).
    """
    lam = max(_eigh(s.dense, vectors=False)[-1] for s in disc.stiffness)
    return float(np.sqrt(lam) * np.abs(coeff.b1).sum())


def check_a1_tangency(
    p: ManifoldPoint, op: TTOperator, rng, n_samples: int = 10
) -> float:
    """Largest normalized pairing of the diagonal-part image with normal directions.

    Returns ``max_v |<A1 u, (I - P_u) v>| / (|A1 u| |v|)`` over random ``v``.
    In orthonormal coordinates the diagonal part maps a manifold point into
    its own tangent space, so the residual vanishes to round-off; substituting
    the cross part is the negative control and gives an order-one value.
    """
    u = point_to_dense(p)
    a1u = op.apply(u)
    scale = a1u.norm()
    if scale == 0.0:
        return 0.0
    basis = TangentBasis(p)
    worst = 0.0
    for _ in range(n_samples):
        v = DenseTensor.from_array(rng.standard_normal(p.dims))
        nperp = v - tangent_to_ambient(TangentVector(basis, basis.project_coords(v)))
        worst = max(worst, abs(inner(a1u, nperp)) / (scale * v.norm()))
    return float(worst)


@dataclass(frozen=True)
class MixedDerivativeReport:
    """Mixed second derivative norms against the gap-weighted H1 bound."""

    pairs: tuple  # ((m, n, lhs, bound), ...)
    sigma: float
    h1_seminorm_sq: float
    passed: bool


def mixed_derivative_check(p: ManifoldPoint, disc: Discretization) -> MixedDerivativeReport:
    """Check ``|d_m d_n u| <= |u|_{H1}^2 / (2 sigma)`` for all mode pairs.

    ``sigma`` is the boundary gap of the point, a lower bound for every
    singular value of every separation of ``u``, which is what drives the
    estimate.  The H1 form and the mixed forms ``<K_m K_n u, u>`` are
    :func:`operator_quadratic_form` s on the core.
    """
    sigma = point_boundary_gap(p)
    h1 = operator_quadratic_form(p, laplacian_operator(disc))
    pairs = []
    ok = True
    bound = h1 / (2.0 * sigma)
    k = disc.stiffness
    for m in range(p.ndim):
        for n in range(m + 1, p.ndim):
            mixed = TTOperator(disc.dims, (OperatorTerm(1.0, ((m, k[m]), (n, k[n]))),))
            lhs = float(np.sqrt(max(operator_quadratic_form(p, mixed), 0.0)))
            pairs.append((m, n, lhs, bound))
            if lhs > bound * (1.0 + 1e-9) + 1e-13:
                ok = False
    return MixedDerivativeReport(
        pairs=tuple(pairs), sigma=sigma, h1_seminorm_sq=h1, passed=ok
    )
