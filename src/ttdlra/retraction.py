"""Retraction onto the constrained Tucker manifold.

The map truncates mode by mode to the outer ranks (sequentially truncated
higher-order SVD) and then rounds the resulting core to the inner train
ranks.  Each stage is an orthogonal projection, so the retraction never
increases the norm, and it reproduces points that already have the target
ranks exactly.

Both entries share one truncation on plain arrays.  :func:`retract` takes an
ambient tensor and is the reference.  :func:`retract_tucker` takes
``core x_0 W^0 ... x_{d-1} W^{d-1}`` with tall factors that need not be
orthonormal: :func:`orthonormal_tucker` QR-factors ``W^m = Q^m R^m`` and
absorbs the ``R^m`` into a small core with the mode spectra of the represented
tensor.  The truncation runs on that core, and one :func:`make_point` on the
final factors ``Q^m V^m`` builds, validates and measures the new point: no
intermediate point and no ambient ``n^d`` tensor is formed.  The difference of
two Tucker tensors, :func:`tucker_distance`, is measured on a small core too.
"""

from __future__ import annotations

import numpy as np

from .dense import DenseTensor, _multiply_modes
from .errors import InvalidArgumentError
from .manifold import ManifoldPoint, make_point, point_to_dense
from .tt import TTTensor, tt_from_dense, tt_to_dense

__all__ = ["retract", "retract_tucker", "orthonormal_tucker", "tucker_distance", "train_as_tucker"]


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
    """
    outer_ranks = tuple(int(r) for r in outer_ranks)
    if x.ndim == 1:
        # single mode: the only manifold is the full space
        if outer_ranks != (x.dims[0],):
            raise InvalidArgumentError("single-mode points must have full rank")
        core = x if tt_ranks is None else tt_from_dense(x)
        return make_point(core, (np.eye(x.dims[0]),))
    return make_point(*_truncate(x.to_array(), outer_ranks, tt_ranks))


def _truncate(arr: np.ndarray, outer_ranks, tt_ranks) -> tuple:
    """``(core, [V^m])``: the sequentially truncated HOSVD of the array, each
    ``V^m`` leading left singular vectors of the mode-m unfolding (columns in
    :func:`~ttdlra.dense.matricize`'s order) of what earlier modes left, and
    the core rounded to the train ranks (kept dense for ``tt_ranks=None``)."""
    factors = []
    for m, r in enumerate(outer_ranks):
        unfolding = np.moveaxis(arr, m, 0).reshape(arr.shape[m], -1, order="F")
        v = np.linalg.svd(unfolding, full_matrices=False)[0][:, :r]
        factors.append(v)
        arr = _multiply_modes(arr, [(m, v.T)])
    core = DenseTensor.from_array(arr)
    if tt_ranks is not None:
        core = tt_from_dense(core, ranks=tuple(tt_ranks))
    return core, factors


def train_as_tucker(t: TTTensor) -> tuple:
    """Tucker form ``(core, factors)`` of a train: factor ``m`` is the mode
    unfolding of core ``m`` (column ``a k_m + b`` holds ``G_m[a, :, b]``), and
    the core is the train of 0/1 cores wiring each column to its interfaces."""
    factors, wires = [], []
    for g in t.cores:
        kl, n, kr = g.shape
        factors.append(np.moveaxis(g, 1, 0).reshape(n, kl * kr))
        wires.append(np.eye(kl * kr).reshape(kl, kr, kl * kr).transpose(0, 2, 1))
    return tt_to_dense(TTTensor(tuple(wires))), factors


def orthonormal_tucker(core, factors) -> tuple:
    """Equal tensor ``(core', [Q^m])`` with orthonormal factors: each
    ``W^m = Q^m R^m`` (thin QR) and the core absorbs the ``R^m``.  ``core`` is
    a ``DenseTensor`` or an array; ``core'`` is an array."""
    if isinstance(core, DenseTensor):
        core = core.to_array()
    qs, rs = zip(*(np.linalg.qr(w) for w in factors))
    return _multiply_modes(core, list(enumerate(rs))), list(qs)


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


def retract_tucker(core, factors, outer_ranks, tt_ranks=None) -> tuple:
    """:func:`retract` of ``core x_0 W^0 ... x_{d-1} W^{d-1}`` (``core`` a
    ``DenseTensor`` or an array), computed on the small core.  Returns
    ``(point, defect)``, ``defect`` being the distance of the point to the
    input.  Raises what :func:`retract` raises."""
    small, qs = orthonormal_tucker(core, factors)
    if len(factors) == 1:
        # single mode: the full space, where the tensor is only a vector
        x = DenseTensor.from_array(qs[0] @ small)
        point = retract(x, outer_ranks, tt_ranks)
        return point, (point_to_dense(point) - x).norm()
    new_core, vs = _truncate(small, tuple(int(r) for r in outer_ranks), tt_ranks)
    point = make_point(new_core, [q @ v for q, v in zip(qs, vs)])
    # the point's core is in the coordinates of the V^m, as is the small core
    approx = _multiply_modes(point.expanded.to_array(), list(enumerate(vs)))
    return point, float(np.linalg.norm(approx - small))
