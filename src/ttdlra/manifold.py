"""Constrained Tucker points: a small core carried by tall factor matrices.

A point is ``X = C x_0 U^0 x_1 ... x_{d-1} U^{d-1}`` (``d >= 2``) with factors
``U^m`` of shape ``(N_m, r_m)`` whose Gramians are invertible.  The core ``C``
either is a :class:`~ttdlra.tt.TTTensor` over the small sizes
``(r_0, ..., r_{d-1})`` with exact interface ranks ``k`` (the inner train
constraint), or an ndarray of full multilinear rank (the plain Tucker case,
where the core set is open and carries no extra constraint).

Because the core constraint set is invariant under invertible basis changes,
a point with merely independent factor columns can always be re-expressed
with orthonormal factors by absorbing the triangular QR factors into the
core.  :func:`make_point` does this, so every point carries orthonormal
factors: its norm is its core's, and the tangent coordinates rely on it.
It also keeps what its validation measured, the expanded core (a column-major
ndarray) and the SVD of each mode unfolding; the gap, norm and tangent basis
read them from the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import DenseTensor, _check_ambient, _check_finite, _multiply_modes, _norm, svd
from .dense import _eigh, _moveaxis, _qr, _tensordot_modes
from .errors import InvalidArgumentError, NotOnManifoldError
from .tt import TTTensor, interface_spectrum, tt_to_dense, tt_scale

__all__ = [
    "ManifoldPoint",
    "make_point",
    "point_to_dense",
    "point_boundary_gap",
    "scale_point",
    "GAP_REJECT_REL",
]

# points whose relative boundary gap is below this are rejected as
# numerically off-manifold (the evolution theory breaks at the boundary)
GAP_REJECT_REL = 1e-10

# factor Gramians with smaller relative eigenvalue floor count as singular
_GRAM_REJECT_REL = 1e-12


@dataclass(frozen=True)
class ManifoldPoint:
    """Validated constrained Tucker point; construct via :func:`make_point`.
    Beside core and factors it keeps the core's measurement: gap, norm, expansion
    (a plain Tucker core is its own) and the ``SvdResult`` of each mode unfolding."""

    core: object  # TTTensor or ndarray
    factors: tuple  # orthonormal columns
    gap: float  # the core's boundary gap, measured once by validation
    core_norm: float = field(compare=False, repr=False)  # the norm validation measured
    expanded: np.ndarray = field(compare=False, repr=False)  # column-major
    mode_svds: tuple = field(compare=False, repr=False)

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple:
        return tuple(u.shape[0] for u in self.factors)

    @property
    def outer_ranks(self) -> tuple:
        return tuple(u.shape[1] for u in self.factors)

    @property
    def tt_core(self) -> bool:
        return isinstance(self.core, TTTensor)

    def tucker(self) -> tuple:
        """The Tucker form ``(core array, factors)``."""
        return self.expanded, self.factors

    def norm(self) -> float:
        return self.core_norm


def _checked_factors(cdims, factors) -> tuple:
    """The factors as float arrays, checked against the core sizes and for
    invertible Gramians, and whether they are orthonormal."""
    if len(cdims) < 2 or 0 in cdims:
        raise InvalidArgumentError(f"invalid core sizes {cdims} (a point has at least two modes)")
    factors = tuple(np.asarray(u, dtype=float) for u in factors)
    if len(factors) != len(cdims):
        raise InvalidArgumentError(f"{len(factors)} factors for a core of order {len(cdims)}")
    for m, u in enumerate(factors):
        _check_finite(u, f"factor {m}")
        if u.ndim != 2:
            raise InvalidArgumentError("factors must be matrices")
        if u.shape[1] != cdims[m]:
            raise InvalidArgumentError(
                f"factor {m} has {u.shape[1]} columns, core size is {cdims[m]}"
            )
        if u.shape[0] < u.shape[1]:
            raise NotOnManifoldError(f"factor {m} has more columns than rows")

    ortho = True
    for m, u in enumerate(factors):
        g = u.T @ u
        eye = np.eye(len(g))  # np.allclose(g, eye, atol=1e-12), written out
        if np.all(np.abs(g - eye) <= 1e-12 + 1e-5 * eye):
            continue  # by Gershgorin its eigenvalues are within 1e-5 + r 1e-12 of 1
        ortho, ev = False, _eigh(g, vectors=False)
        if ev[0] <= _GRAM_REJECT_REL * max(ev[-1], np.finfo(float).tiny):
            raise NotOnManifoldError(f"factor {m} has a numerically singular Gramian")
    return factors, ortho


def make_point(core, factors) -> ManifoldPoint:
    """Validate a (core, factors) pair and return a manifold point.

    Factors that are not orthonormal are replaced by their QR factors ``Q``,
    and the core absorbs the triangular ``R`` (the represented tensor is
    unchanged); orthonormal factors are kept as given.  The point keeps the
    measurement of its core: the expansion, the SVDs of its mode unfoldings,
    and the gap, the smallest of their singular values and, for a train of
    order d > 3, of its interior interface spectra (:func:`_measured`).

    Parameters
    ----------
    core : TTTensor or ndarray
        Core over the small sizes; a train core must carry exact interface
        ranks, an array core full multilinear rank.
    factors : sequence of ndarray
        One ``(N_m, r_m)`` matrix per mode with independent columns.

    Raises
    ------
    InvalidArgumentError
        If the core has fewer than two modes, or the core or a factor has a
        non-finite entry.
    NotOnManifoldError
        If a factor Gramian is numerically singular, the core is rank
        deficient, or the boundary gap falls below ``GAP_REJECT_REL``
        relative to the norm.
    """
    if not isinstance(core, (TTTensor, np.ndarray)):
        raise InvalidArgumentError("core must be a TTTensor or ndarray")
    train = isinstance(core, TTTensor)
    for a in core.cores if train else (core,):
        _check_finite(a, "core")
    factors, ortho = _checked_factors(core.dims if train else core.shape, factors)
    if not ortho:
        factors, rs = zip(*(_qr(u) for u in factors))
        if train:
            core = TTTensor(tuple(np.einsum("ij,ajb->aib", r, c) for r, c in zip(rs, core.cores)))
        else:
            core = _multiply_modes(core, list(enumerate(rs)))
    if not train:  # the point's own column-major copy
        core = np.array(core, dtype=float, order="F")
    return ManifoldPoint(core, factors, *_measured(core)[0])


def _measured(core) -> tuple:
    """The core's :func:`point_boundary_gap`, norm, expansion and the SVD of
    each mode unfolding, measured once, and apart from them a train's smallest
    interface singular value; raises ``NotOnManifoldError`` for a core off the
    manifold.  The end interfaces 0 and d-2 of a train are its mode-0 and
    mode-(d-1) unfoldings, so of its interface spectra only the interior ones,
    1 ... d-3, are taken, by :func:`~ttdlra.tt.interface_spectrum`."""
    cdense = tt_to_dense(core) if isinstance(core, TTTensor) else core
    norm = _norm(cdense)  # at any scale: a tiny core is measured against its own norm
    # a mode unfolding with fewer columns than rows cannot have full row rank
    if any(r * r > cdense.size for r in cdense.shape):
        raise NotOnManifoldError("core does not have full multilinear rank", gap=0.0)
    svds = tuple(  # of the mode unfoldings, columns in matricize's order
        svd(_moveaxis(cdense, m, 0).reshape(r, -1, order="F")) for m, r in enumerate(cdense.shape)
    )
    vals = [float(s.singular_values[-1]) for s in svds]
    if isinstance(core, TTTensor) and core.ndim > 3:
        vals.extend(float(v[-1]) for v in interface_spectrum(core).values[1:-1])
    gap = min(vals)
    scale = max(norm, np.finfo(float).tiny)
    if gap <= GAP_REJECT_REL * scale:
        raise NotOnManifoldError(
            f"core boundary gap {gap:.3e} is below the rejection threshold "
            f"{GAP_REJECT_REL * scale:.3e}",
            gap=gap,
        )
    return (gap, norm, cdense, svds), min(vals[:1] + vals[len(svds) - 1 :])


def point_to_dense(p: ManifoldPoint) -> DenseTensor:
    """Expand the point by mode products; above ``AMBIENT_LIMIT``, ``OversizeError`` first."""
    _check_ambient(p.dims)
    return DenseTensor.from_array(_tensordot_modes(p.expanded, enumerate(p.factors)))


def point_boundary_gap(p: ManifoldPoint) -> float:
    """Smallest singular value over the core's interface and mode unfoldings.

    With orthonormal factors these spectra coincide with the corresponding
    spectra of the expanded tensor, so the value bounds the distance of the
    point to the relative boundary of the manifold from above.  For matrices
    the bound is the exact distance.
    """
    return p.gap


def scale_point(p: ManifoldPoint, s: float) -> ManifoldPoint:
    """Scale the represented tensor by ``s > 0`` (the manifold is a cone)."""
    if s <= 0:
        raise InvalidArgumentError("cone scaling requires s > 0")
    return make_point(tt_scale(p.core, s) if p.tt_core else p.core * s, p.factors)
