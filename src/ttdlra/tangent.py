"""Tangent spaces of constrained Tucker manifolds: projectors and diagnostics.

A tangent vector at ``X = C x_0 U^0 ... x_{d-1} U^{d-1}`` is parametrized as

    V = Cdot x_0 U^0 ... x_{d-1} U^{d-1}
        + sum_m  C x_0 U^0 ... x_m Udot^m ... x_{d-1} U^{d-1}

with ``Cdot`` in the tangent space of the core constraint set and the gauge
conditions ``(U^m)^T Udot^m = 0``.  The d+1 summands live in mutually
orthogonal subspaces, so the orthogonal projector onto the tangent space
splits into d+1 independent pieces: one core piece acting on the compressed
coefficients and one per mode acting on the corresponding matricization.

:class:`TangentBasis` holds coordinates for these pieces and is the one
implementation of the projector: orthonormal ones for the core piece and,
per mode, a gauge-form block ``theta_m`` with ``(U^m)^T theta_m = 0``, so
projecting applies ``I - U U^T`` and no complement of ``U^m`` is built; it
maps ``theta_m`` to ``Udot^m`` by the SVD of the point's core unfolding.  A
:class:`TangentVector` is its coordinates in a basis;
:meth:`TangentBasis.tucker` builds their Tucker form (factors
``[U^m, Udot^m]``, a ``(2r)^d`` block core), the only map from coordinates to
a tensor.  For a tensor-train core the core piece uses gauge-conditioned
single-core replacements, orthonormal as built (:func:`core_tangent_basis`).

The module also houses an independent brute-force oracle (span, orthonormalize,
project), polar alignment of subspace bases, and curvature reports comparing
observed projector differences and normal defects against the theoretical
bounds ``2d(3*sqrt(2)+1)/sigma`` and ``sqrt(2d-1)/sigma`` for the outer
manifold and ``4d/sigma`` and ``sqrt(d-1)/sigma`` for the fixed-rank train
manifold, where ``sigma`` is the distance to the relative boundary.  The
reports take both quantities exactly from the two points' orthonormal ambient
tangent bases: the projector difference is the sine of the largest principal
angle between the tangent spaces, with no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor, _check_ambient, _multiply_modes, _tensordot_modes, matricize
from .errors import DegeneratePointError, InvalidArgumentError
from .manifold import ManifoldPoint, point_boundary_gap, point_to_dense
from .tt import TTTensor, tt_to_dense

__all__ = [
    "TangentVector",
    "TangentBasis",
    "CurvatureReport",
    "AlignedBasisReport",
    "tangent_project",
    "core_tangent_project",
    "core_tangent_basis",
    "tangent_to_ambient",
    "brute_force_projector",
    "apply_tangent_projector",
    "polar_align",
    "aligned_basis_report",
    "curvature_report",
]


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector as its coordinates in ``basis``; the gauge-normalized
    components are read off :meth:`TangentBasis.tucker`.  Any coordinate vector
    is one: its mode blocks are read through the gauge projection."""

    basis: TangentBasis
    coords: np.ndarray

    @property
    def base(self) -> ManifoldPoint:
        return self.basis.point

    @property
    def core_velocity(self) -> np.ndarray:
        core, _ = self.basis.tucker(self.coords)
        return core[tuple(slice(r) for r in self.base.outer_ranks)]

    @property
    def factor_velocities(self) -> tuple:
        _, factors = self.basis.tucker(self.coords)
        return tuple(f[:, r:] for f, r in zip(factors, self.base.outer_ranks))

    def norm(self) -> float:
        # the coordinate map is an isometry on the gauge-projected coordinates
        c, thetas = self.basis.gauge_blocks(self.coords)
        return float(np.sqrt(c @ c + sum(np.sum(t * t) for t in thetas)))


# ---------------------------------------------------------------------------
# core tangent space (tensor-train constraint)
# ---------------------------------------------------------------------------


def core_tangent_project(core, z: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a core-sized array onto the core tangent space.

    For an array (plain Tucker) core the set is open and the projector is the
    identity; for a train core it is ``B B^T z`` with ``B`` from
    :func:`core_tangent_basis`.
    """
    if isinstance(core, np.ndarray):
        return z
    if not isinstance(core, TTTensor):
        raise InvalidArgumentError("core must be a TTTensor or ndarray")
    if z.shape != core.dims:
        raise InvalidArgumentError("argument does not match the core sizes")
    b = core_tangent_basis(core)
    return (b @ (b.T @ z.ravel(order="F"))).reshape(z.shape, order="F")


def core_tangent_basis(core) -> np.ndarray:
    """Orthonormal basis of the core tangent space, one column per direction.

    Columns are column-major vectorizations.  For an array core the basis is
    the identity.  For a train core block m holds the gauge-conditioned
    replacements of core m (Holtz, Rohwedder and Schneider 2012): a
    left-orthogonal prefix of cores 0..m-1, the complement of the
    left-orthogonal core m in its left unfolding (the identity for the last
    core) and a right-orthogonal suffix of cores m+1..d-1.  The blocks are
    orthonormal and mutually orthogonal as built, so their
    ``sum |G_m| - sum k_m^2`` columns take no rank test.
    """
    if isinstance(core, np.ndarray):
        return np.eye(core.size)
    if core.ndim == 1:
        return np.eye(int(np.prod(core.dims)))
    if any(kl > n * kr or kr > kl * n for kl, n, kr in (g.shape for g in core.cores)):
        raise InvalidArgumentError("a train rank exceeds the size of its unfolding")
    # prefixes and suffixes have one row per index of the modes before (after)
    # m, the last mode slowest, and one orthonormal column per interface index
    cores, suffixes = list(core.cores), [np.ones((1, 1))]
    for m in range(core.ndim - 1, 0, -1):  # right sweep: reduced QR, R carried left
        kl, n, kr = cores[m].shape
        q, r = np.linalg.qr(cores[m].transpose(2, 1, 0).reshape(kr * n, kl))
        suffixes.insert(0, (suffixes[0] @ q.reshape(kr, n * kl)).reshape(-1, kl))
        cores[m - 1] = cores[m - 1] @ r.T
    prefix, carry, blocks = np.ones((1, 1)), np.ones((1, 1)), []
    for m, (g, suffix) in enumerate(zip(core.cores, suffixes)):  # left sweep: complete QR
        kl, n, kr = g.shape
        if m == core.ndim - 1:
            q, kr = np.eye(n * kl), 0
        else:
            g = (carry @ g.transpose(1, 0, 2)).reshape(n * kl, kr)
            q, r = np.linalg.qr(g, mode="complete")
            carry = r[:kr]
        lq = (prefix @ q.reshape(n, kl, n * kl)).reshape(-1, n * kl)  # rows: mode m slowest
        prefix, gauge = lq[:, :kr], lq[:, kr:]
        outer = np.multiply.outer(suffix, gauge)  # (after m, k_m, up to m, gauge)
        blocks.append(outer.swapaxes(1, 2).reshape(len(suffix) * len(gauge), -1))
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# full tangent projector
# ---------------------------------------------------------------------------


def tangent_project(p: ManifoldPoint, z: DenseTensor) -> TangentVector:
    """Orthogonal projection of ``z`` onto the tangent space at ``p``.

    Requires orthonormal factors.  The components are those of the projection's
    coordinates in :class:`TangentBasis`, so they satisfy the gauge conditions.
    """
    if z.dims != p.dims:
        raise InvalidArgumentError("argument does not match the point sizes")
    basis = TangentBasis(p)
    return TangentVector(basis, basis.project_coords(z))


def tangent_to_ambient(v: TangentVector) -> DenseTensor:
    """Embed the tangent vector into the ambient space: the expansion of its
    :meth:`TangentBasis.tucker` form.

    The d+1 summands are mutually orthogonal, so the squared norm of the
    embedding is the sum of the squared summand norms.
    """
    core, factors = v.basis.tucker(v.coords)
    return DenseTensor.from_array(_multiply_modes(core, list(enumerate(factors))))


def apply_tangent_projector(p: ManifoldPoint, z: DenseTensor) -> DenseTensor:
    """Ambient-to-ambient action of the tangent projector at ``p``."""
    return tangent_to_ambient(tangent_project(p, z))


def brute_force_projector(p: ManifoldPoint, z: DenseTensor) -> DenseTensor:
    """Independent oracle: orthonormalize an explicit tangent spanning set.

    Assembles ambient vectors from all admissible parameter perturbations
    (single-core replacements of the train core, unit factor perturbations),
    orthonormalizes them by SVD, and projects ``z`` onto their span.  Only
    available at dense-ambient desk scale.
    """
    size = _check_ambient(p.dims)
    if z.dims != p.dims:
        raise InvalidArgumentError("argument does not match the point sizes")
    core, factors = p.expanded, list(enumerate(p.factors))
    if p.tt_core and p.core.ndim > 1:
        directions = []
        for m, g in enumerate(p.core.cores):
            for idx in np.ndindex(g.shape):
                unit = np.zeros(g.shape)
                unit[idx] = 1.0
                cores = p.core.cores[:m] + (unit,) + p.core.cores[m + 1 :]
                directions.append(tt_to_dense(TTTensor(cores)))
    else:
        directions = [e.reshape(core.shape, order="F") for e in np.eye(core.size)]
    cols = [_tensordot_modes(vec, factors) for vec in directions]
    for m, u in factors:
        for idx in np.ndindex(u.shape):
            e = np.zeros(u.shape)
            e[idx] = 1.0
            cols.append(_tensordot_modes(core, factors[:m] + [(m, e)] + factors[m + 1 :]))
    span = np.array([c.ravel(order="F") for c in cols]).T
    gauges = sum(k * k for k in p.core.ranks) if p.tt_core else 0  # k^2 per train interface
    dim = len(directions) - gauges + sum((n - r) * r for n, r in zip(p.dims, p.outer_ranks))
    u, s, _ = np.linalg.svd(span, full_matrices=False)
    if s[dim - 1] <= 1e-10 * s[0]:
        raise DegeneratePointError("tangent spanning set is rank deficient")
    basis = u[:, :dim]
    return DenseTensor(p.dims, basis @ (basis.T @ z.data))


# ---------------------------------------------------------------------------
# orthonormal tangent coordinates
# ---------------------------------------------------------------------------


class TangentBasis:
    """Coordinates on the tangent space at a fixed point: the core block, then
    per mode the column-major ``theta_m`` (N_m x r_m, ``(U^m)^T theta_m = 0``,
    ``Udot^m = theta_m rmap_m^T``).  ``dim`` is the tangent dimension;
    coordinate vectors have ``sum(block_sizes)`` entries, ``r_m^2`` per mode
    more, and are read through :meth:`gauge_blocks`, on whose gauge vectors the
    coordinate map is an isometry.  The expanded core and the mode-unfolding
    SVDs are the point's own (kept by :func:`~ttdlra.manifold.make_point`)."""

    def __init__(self, p: ManifoldPoint):
        if p.ndim == 1:
            raise InvalidArgumentError("a single-mode point has no mode unfoldings to parametrize")
        self.point = p
        self.core_basis = core_tangent_basis(p.core)
        self.core = p.expanded
        self.rmap = [s.left_vectors / s.singular_values for s in p.mode_svds]  # P diag(1/sigma)
        self.qright = [s.right_vectors for s in p.mode_svds]  # Q, of C_(m) = P diag(sigma) Q^T
        self.block_sizes = [self.core_basis.shape[1]] + [u.size for u in p.factors]
        self.dim = self.block_sizes[0] + sum((n - r) * r for n, r in zip(p.dims, p.outer_ranks))
        ends = np.cumsum(self.block_sizes).tolist()
        self._slices = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]

    def _blocks(self, coords):
        return [coords[s] for s in self._slices]

    def gauge_blocks(self, coords) -> tuple:
        """The core block and the mode blocks ``theta_m`` (n x r), projected by
        ``I - U U^T`` onto the gauge space (gauge vectors stay as they are)."""
        blocks = self._blocks(np.asarray(coords, dtype=float))
        thetas = [b.reshape(u.shape, order="F") for b, u in zip(blocks[1:], self.point.factors)]
        return blocks[0], [t - u @ (u.T @ t) for t, u in zip(thetas, self.point.factors)]

    def tucker(self, coords) -> tuple:
        """Tucker form ``(core, factors)`` of the tangent vector with these
        coordinates: factors ``[U^m, Udot^m]`` with ``Udot^m = theta_m
        rmap_m^T`` (``theta_m`` from :meth:`gauge_blocks`), and a ``(2r)^d``
        core holding ``Cdot`` in block ``(0, ..., 0)`` and the point's core
        ``C`` in each block with a single 1.  The coordinates of ``u + v`` give
        the update, since ``u`` lies in its own tangent space."""
        c, thetas = self.gauge_blocks(coords)
        ranks = self.core.shape
        core = np.zeros(tuple(2 * r for r in ranks))
        low = tuple(slice(r) for r in ranks)
        core[low] = (self.core_basis @ c).reshape(ranks, order="F")
        factors = []
        for m, (u, r, theta) in enumerate(zip(self.point.factors, ranks, thetas)):
            core[low[:m] + (slice(r, 2 * r),) + low[m + 1 :]] = self.core
            factors.append(np.hstack([u, theta @ self.rmap[m].T]))
        return core, factors

    def coords_of_tucker(self, core: np.ndarray, factors) -> np.ndarray:
        """Coordinates of the tangent projection of ``core x_0 W^0 ... x_{d-1} W^{d-1}``.

        Only thin products of the n x k factors ``W^m`` enter: mode block m is
        ``(I - U U^T) W^m [core x_{k != m} U^T W^k]_(m) Q_m``, the core block
        the core basis applied to ``core x_k U^T W^k``.  The cost is set by the
        factor sizes and the core, not the ambient size.
        """
        g = core
        small = [u.T @ w for u, w in zip(self.point.factors, factors)]
        modes = []
        for m, (w, u) in enumerate(zip(factors, self.point.factors)):
            # g already carries U^T W^k on the modes k < m
            h = _multiply_modes(g, [(k, s) for k, s in enumerate(small) if k > m])
            # rows mode m, columns the other modes with the first fastest
            block = w @ (np.moveaxis(h, m, 0).reshape(h.shape[m], -1, order="F") @ self.qright[m])
            modes.append((block - u @ (u.T @ block)).ravel(order="F"))
            g = _multiply_modes(g, [(m, small[m])])
        return np.concatenate([self.core_basis.T @ g.ravel(order="F")] + modes)

    def project_coords(self, z: DenseTensor) -> np.ndarray:
        """Coordinates of the tangent projection of an ambient tensor."""
        return self.coords_of_tucker(z.to_array(), [np.eye(n) for n in z.dims])

    def ambient_matrix(self) -> np.ndarray:
        """Dense orthonormal basis of the tangent space, ``dim`` columns.

        Each block is one batched product.  Mode block m completes ``U^m`` to
        ``[U^m, Qperp]`` by a complete QR (desk size only); its column
        ``(i, a)``, the embedding of ``theta_m = Qperp[:, i] e_a^T``, has mode-m
        vector ``Qperp[:, i]`` and the other modes from slice ``a`` of
        ``D = C x_m rmap^T x_{k != m} U^k``.
        """
        size = _check_ambient(self.point.dims)
        factors = self.point.factors
        d = len(factors)
        core_cols = self.core_basis.reshape(self.core.shape + (-1,), order="F")
        blocks = [_multiply_modes(core_cols, list(enumerate(factors)))]
        for m, rmap in enumerate(self.rmap):
            q = np.linalg.qr(factors[m], mode="complete")[0][:, rmap.shape[0] :]
            dm = _multiply_modes(
                self.core,
                [(m, rmap.T)] + [(k, u) for k, u in enumerate(factors) if k != m],
            )
            # axes (others..., a, x, i) -> (modes with x at m, i, a)
            outer = np.multiply.outer(np.moveaxis(dm, m, -1), q)
            blocks.append(np.moveaxis(outer, (d, d + 1, d - 1), (m, d, d + 1)))
        return np.hstack([b.reshape(size, -1, order="F") for b in blocks])


# ---------------------------------------------------------------------------
# alignment and curvature diagnostics
# ---------------------------------------------------------------------------


def polar_align(u, u_tilde) -> np.ndarray:
    """Rotate the basis ``u`` so that ``u^T u_tilde`` is symmetric PSD.

    The rotation is the orthogonal polar factor of ``u^T u_tilde``; zero
    singular values are mapped through the SVD factors, which keeps the
    returned basis orthonormal and the spanned subspace unchanged.
    """
    u = np.asarray(u, dtype=float)
    u_tilde = np.asarray(u_tilde, dtype=float)
    if u.shape != u_tilde.shape:
        raise InvalidArgumentError("bases must have equal shapes")
    w, _, zt = np.linalg.svd(u.T @ u_tilde)
    return u @ (w @ zt)


@dataclass(frozen=True)
class AlignedBasisReport:
    """Both sides of the sqrt(2) comparison inequalities for aligned bases."""

    basis_diff: float
    projector_diff: float
    coeff_diff: float
    embedded_diff: float
    basis_bound_ok: bool
    coeff_bound_ok: bool


def aligned_basis_report(u, v, x, y, tol=1e-10) -> AlignedBasisReport:
    """Check ``|U-V| <= sqrt(2) |P_U - P_V|`` and ``|x-y| <= sqrt(2) |Ux - Vy|``.

    Requires orthonormal ``u``, ``v`` with ``u^T v`` symmetric positive
    semidefinite (use :func:`polar_align` first).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    r = u.shape[1]
    for name, b in (("u", u), ("v", v)):
        if not np.allclose(b.T @ b, np.eye(r), atol=1e-10):
            raise InvalidArgumentError(f"basis {name} is not orthonormal")
    m = u.T @ v
    if not np.allclose(m, m.T, atol=1e-8):
        raise InvalidArgumentError("bases are not aligned: u^T v is not symmetric")
    if np.linalg.eigvalsh(0.5 * (m + m.T))[0] < -1e-10:
        raise InvalidArgumentError("bases are not aligned: u^T v is not PSD")
    basis_diff = float(np.linalg.norm(u - v, 2))
    projector_diff = float(np.linalg.norm(u @ u.T - v @ v.T, 2))
    coeff_diff = float(np.linalg.norm(x - y))
    embedded_diff = float(np.linalg.norm(u @ x - v @ y))
    return AlignedBasisReport(
        basis_diff=basis_diff,
        projector_diff=projector_diff,
        coeff_diff=coeff_diff,
        embedded_diff=embedded_diff,
        basis_bound_ok=basis_diff <= np.sqrt(2) * projector_diff + tol,
        coeff_bound_ok=coeff_diff <= np.sqrt(2) * embedded_diff + tol,
    )


@dataclass(frozen=True)
class CurvatureReport:
    """Observed projector difference and normal defect with theoretical bounds.

    ``sigma_kind`` is ``"exact-matrix-distance"`` for matrices, where the
    smallest positive singular value is the true distance to the relative
    boundary, and ``"interface-gap-heuristic"`` otherwise, where the
    interface gap only bounds that distance from above and the bound columns
    are diagnostics rather than theorems.
    """

    ndim: int
    distance: float
    projector_difference_norm: float
    normal_defect: float
    projector_bound_outer: float
    normal_bound_outer: float
    projector_bound_tt: float
    normal_bound_tt: float
    sigma_used: float
    sigma_kind: str


def curvature_report(x: ManifoldPoint, y: ManifoldPoint) -> CurvatureReport:
    """Compare two points' tangent projectors against the curvature bounds.

    Both quantities come exactly from the orthonormal ambient tangent bases
    ``B_X`` and ``B_Y`` (desk scale only).  For orthogonal projectors
    ``|P_X - P_Y|_2 = max(|(I - P_X) B_Y|_2, |(I - P_Y) B_X|_2)``, the sine of
    the largest principal angle, so two thin SVDs give the norm; the normal
    defect is ``|(I - P_X)(X - Y)|``.
    """
    if x.dims != y.dims or x.outer_ranks != y.outer_ranks:
        raise InvalidArgumentError("points live on different manifolds")
    xd = point_to_dense(x)
    diff = xd - point_to_dense(y)
    dist = diff.norm()

    bx = TangentBasis(x).ambient_matrix()
    by = TangentBasis(y).ambient_matrix()
    proj_norm = float(
        max(np.linalg.norm(by - bx @ (bx.T @ by), 2), np.linalg.norm(bx - by @ (by.T @ bx), 2))
    )
    defect = float(np.linalg.norm(diff.data - bx @ (bx.T @ diff.data)))

    d = x.ndim
    if d == 2:
        # for matrices the smallest positive singular value is the exact distance
        s = np.linalg.svd(matricize(xd, {0}), compute_uv=False)
        sigma = float(s[x.outer_ranks[0] - 1])
        kind = "exact-matrix-distance"
    else:
        sigma = point_boundary_gap(x)
        kind = "interface-gap-heuristic"
    return CurvatureReport(
        ndim=d,
        distance=dist,
        projector_difference_norm=proj_norm,
        normal_defect=defect,
        projector_bound_outer=2 * d * (3 * np.sqrt(2) + 1) / sigma * dist,
        normal_bound_outer=np.sqrt(2 * d - 1) / sigma * dist**2,
        projector_bound_tt=4 * d / sigma * dist,
        normal_bound_tt=np.sqrt(d - 1) / sigma * dist**2,
        sigma_used=sigma,
        sigma_kind=kind,
    )
