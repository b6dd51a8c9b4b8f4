"""Retraction onto the constrained Tucker manifold.

The map truncates mode by mode to the outer ranks (sequentially truncated
higher-order SVD, ST-HOSVD) and then rounds the resulting core to the inner
train ranks.  Each stage is an orthogonal projection, so the retraction never
increases the norm, and it reproduces points that already have the target
ranks exactly.

Three entries compute it, each building, validating and measuring the new
point with one :func:`make_point`.  :func:`retract` takes an ambient tensor
and is the reference.  :func:`retract_tucker` takes the projected step's
``core x_0 W^0 ... x_{d-1} W^{d-1}`` with tall factors that need not be
orthonormal: :func:`orthonormal_tucker` QR-factors ``W^m = Q^m R^m`` and
absorbs the ``R^m`` into a small core, which the reference's truncation
truncates; the new factors are ``Q^m V^m``.  :func:`retract_train` takes a
train (the initial data, the splitting sweep's result) and runs the ST-HOSVD
on its cores, one ``n_m x k_{m-1} k_m`` site matrix per mode, so no array
larger than a site core is formed; ranks left to it are read in that sweep.
:func:`retract_tucker` also measures the point's distance to the step's
starting state, which lies in the same frame, so the energy report reads it.
The difference of two Tucker tensors, :func:`tucker_distance`, is measured on
a small core too.  Tucker pairs ``(core, factors)`` carry their core as a
plain array.  Non-finite input to :func:`retract` and :func:`retract_train` is
refused where it enters (``InvalidArgumentError``).
"""

from __future__ import annotations

import math

import numpy as np

from .dense import DenseTensor, _check_finite, _multiply_modes, _norm
from .errors import InvalidArgumentError, NotOnManifoldError
from .manifold import ManifoldPoint, make_point
from .tt import TTTensor, _checked_caps, generic_outer_ranks, orthogonalize
from .tt import tt_from_dense, tt_to_dense

__all__ = ["retract", "retract_tucker", "retract_train", "orthonormal_tucker", "tucker_distance"]


def retract(x: DenseTensor, outer_ranks, tt_ranks=None) -> ManifoldPoint:
    """Quasi-optimal projection of ``x`` onto the points of the given ranks.

    Parameters
    ----------
    x : DenseTensor
    outer_ranks : tuple of int
        Target mode ranks ``(r_0, ..., r_{d-1})``.
    tt_ranks : tuple of int, optional
        Target interface ranks of the core; ``None`` keeps a dense core
        (plain Tucker retraction).

    Raises
    ------
    NotOnManifoldError
        If the truncated tensor is rank deficient at the target ranks
        (rank collapse).
    InvalidArgumentError
        If ``x`` has a non-finite entry.
    """
    _check_finite(x.data, "retract input")
    return _retract_array(x.to_array(), outer_ranks, tt_ranks)


def _retract_array(arr: np.ndarray, outer_ranks, tt_ranks) -> ManifoldPoint:
    outer_ranks = tuple(int(r) for r in outer_ranks)
    if arr.ndim == 1:
        # single mode: the only manifold is the full space
        if outer_ranks != arr.shape:
            raise InvalidArgumentError("single-mode points must have full rank")
        core = arr if tt_ranks is None else tt_from_dense(arr)
        return make_point(core, (np.eye(arr.size),))
    return make_point(*_truncate(arr, outer_ranks, tt_ranks))


def _truncate(arr: np.ndarray, outer_ranks, tt_ranks) -> tuple:
    """``(core, [V^m])``: the sequentially truncated HOSVD of the array, each
    ``V^m`` leading left singular vectors of the mode-m unfolding (columns in
    :func:`~ttdlra.dense.matricize`'s order) of what earlier modes left, and
    the core rounded to the train ranks (kept an array for ``tt_ranks=None``)."""
    factors = []
    for m, r in enumerate(outer_ranks):
        unfolding = np.moveaxis(arr, m, 0).reshape(arr.shape[m], -1, order="F")
        v = np.linalg.svd(unfolding, full_matrices=False)[0][:, :r]
        factors.append(v)
        arr = _multiply_modes(arr, [(m, v.T)])
    return (arr if tt_ranks is None else tt_from_dense(arr, ranks=tuple(tt_ranks))), factors


def retract_train(t: TTTensor, outer_ranks, tt_ranks=None) -> ManifoldPoint:
    """:func:`retract` of the train ``t``, computed on its cores; a train with
    ``ortho_center == 0`` is already right-orthogonal and is used as it is.
    ``outer_ranks=None`` keeps each mode's numerical rank, read in the sweep
    (the adaptive ST-HOSVD): the count of the site's singular values above
    1e-10 of the largest, at most the generic rank of ``tt_ranks``.  A
    non-finite core entry is an ``InvalidArgumentError``."""
    for core in t.cores:
        _check_finite(core, "retract_train input")
    if t.ndim == 1:
        ranks = t.dims if outer_ranks is None else outer_ranks
        return _retract_array(tt_to_dense(t), ranks, tt_ranks)
    cores = (t if t.ortho_center == 0 else orthogonalize(t, 0)).cores
    if outer_ranks is None:
        caps = t.dims if tt_ranks is None else generic_outer_ranks(t.dims, tt_ranks)
        rank = lambda m, s: max(1, min(caps[m], int(np.sum(s > 1e-10 * s[0]))))  # noqa: E731
    else:
        ranks = [int(r) for r in outer_ranks]
        rank = lambda m, s: ranks[m]  # noqa: E731
    cores, factors = _site_sweep(cores, rank)
    if tt_ranks is None:
        return make_point(tt_to_dense(TTTensor(cores)), factors)
    widths = [v.shape[1] for v in factors]
    # right-orthogonalize, then round left to right as tt_from_dense does
    cores = list(orthogonalize(TTTensor(cores), 0).cores)
    for m, cap in enumerate(_checked_caps(widths, tt_ranks)):
        kl, r, kr = cores[m].shape
        u, s, vh = np.linalg.svd(cores[m].reshape(kl * r, kr), full_matrices=False)
        tol = max(kl * r, math.prod(widths[m + 1 :])) * np.finfo(float).eps * s[0]
        k = min(cap, max(1, int(np.sum(s > tol))))
        cores[m] = u[:, :k].reshape(kl, r, k)
        cores[m + 1] = np.tensordot(s[:k, None] * vh[:k], cores[m + 1], axes=(1, 0))
    return make_point(TTTensor(tuple(cores), ortho_center=len(cores) - 1), factors)


def _site_sweep(cores, rank) -> tuple:
    """ST-HOSVD of the train ``cores`` (center 0) in mode order: with the center
    at site m, the left singular vectors of the site matrix are those of the
    mode-m unfolding of what earlier modes left, and ``V^m`` keeps the leading
    ``rank(m, s)`` of them (``s`` the site's singular values).  The site core
    becomes ``V^m^T G_m`` and one QR moves the center on.  Returns the cores
    (center ``d - 1``) and the ``V^m``."""
    cores, factors = list(cores), []
    for m in range(len(cores)):
        kl, n, kr = cores[m].shape
        u, s, wh = np.linalg.svd(cores[m].transpose(1, 0, 2).reshape(n, -1), full_matrices=False)
        r = rank(m, s)
        if r > s.size:  # the dense reference keeps a zero singular value here and rejects
            raise NotOnManifoldError(f"mode {m} has rank at most {s.size}, below {r}")
        factors.append(np.ascontiguousarray(u[:, :r]))  # the step reads it many times
        core = (s[:r, None] * wh[:r]).reshape(r, kl, kr).transpose(1, 0, 2)
        if m + 1 < len(cores):
            q, rf = np.linalg.qr(core.reshape(kl * r, kr))
            core = q.reshape(kl, r, q.shape[1])
            cores[m + 1] = np.tensordot(rf, cores[m + 1], axes=(1, 0))
        cores[m] = core
    return tuple(cores), factors


def orthonormal_tucker(core, factors) -> tuple:
    """Equal tensor ``(core', [Q^m], [R^m])`` with orthonormal factors: each
    ``W^m = Q^m R^m`` (thin QR) and the core array absorbs the ``R^m``."""
    qs, rs = zip(*(np.linalg.qr(w) for w in factors))
    return _multiply_modes(core, list(enumerate(rs))), list(qs), list(rs)


def tucker_distance(a, b) -> float:
    """Frobenius distance of two Tucker tensors given as ``(core array,
    factors)`` pairs, neither of them formed: the difference has the factors
    ``[W_a, W_b]`` and the block-diagonal core ``(C_a, -C_b)``, and
    :func:`orthonormal_tucker` turns it into a small core of the same norm.
    Equal inputs give exactly 0."""
    (ca, wa), (cb, wb) = a, b
    if np.array_equal(ca, cb) and all(np.array_equal(x, y) for x, y in zip(wa, wb)):
        return 0.0
    core = np.zeros(tuple(p + q for p, q in zip(ca.shape, cb.shape)))
    core[tuple(slice(p) for p in ca.shape)] = ca
    core[tuple(slice(p, None) for p in ca.shape)] = -cb
    factors = [np.hstack(ws) for ws in zip(wa, wb)]
    return float(np.linalg.norm(orthonormal_tucker(core, factors)[0]))


def retract_tucker(core, factors, origin, outer_ranks, tt_ranks=None) -> tuple:
    """:func:`retract` of ``core x_0 W^0 ... x_{d-1} W^{d-1}`` (``core`` an
    array), computed on the small core.  ``origin`` is a core array ``C``
    whose tensor ``C x_m W^m[:, :r_m]`` lives in the leading columns of the
    factors (a step's starting state).  Returns ``(point,
    defect, distance)``: the point's distance to the input and to the origin's
    tensor.  Raises what :func:`retract` raises."""
    if len(factors) == 1:
        raise InvalidArgumentError("a single mode has only the full space; use retract")
    small, qs, rs = orthonormal_tucker(core, factors)
    new_core, vs = _truncate(small, tuple(int(r) for r in outer_ranks), tt_ranks)
    point = make_point(new_core, [q @ v for q, v in zip(qs, vs)])
    # the point's core is in the coordinates of the V^m, as is the small core
    approx = _multiply_modes(point.expanded, list(enumerate(vs)))
    defect = _norm(approx - small)
    # W^m[:, :r_m] = Q^m R^m[:, :r_m]: the origin in the same coordinates.
    # Last mode first: _multiply_modes batches over the modes before m, and
    # those stay at the origin's small sizes (at d = 7, 0.3 ms against 2.5 ms)
    ops = [(m, r[:, :k]) for m, (r, k) in enumerate(zip(rs, origin.shape))]
    start = _multiply_modes(origin, ops[::-1])
    return point, defect, _norm(approx - start)
