"""Seeded random instances for test suites and diagnostic sweeps.

All generators draw from a caller-supplied ``numpy.random.Generator`` so the
randomized suites are exactly reproducible from a single seed.
"""

from __future__ import annotations

import math

import numpy as np

from .dense import DenseTensor, _check_ambient
from .errors import InvalidArgumentError
from .manifold import ManifoldPoint, make_point, point_boundary_gap, point_to_dense
from .retraction import retract
from .tt import TTTensor, boundary_gap, generic_outer_ranks, max_feasible_ranks, tt_round
from .tt import tt_to_dense

__all__ = [
    "random_orthonormal",
    "random_tt",
    "random_point",
    "random_dense",
    "perturbed_point",
]

# draws per call before a generator gives up
_MAX_TRIES = 50


def random_orthonormal(rng, n: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def random_dense(rng, dims) -> DenseTensor:
    """Standard normal ambient tensor; its size is checked before the draw."""
    _check_ambient(dims)
    return DenseTensor.from_array(rng.standard_normal(tuple(dims)))


def random_tt(rng, dims, ranks, min_gap_rel=1e-3) -> TTTensor:
    """Random train with exact interface ranks and a healthy boundary gap.

    Draws i.i.d. cores, rounds to the requested ranks, and retries until the
    smallest interface singular value exceeds ``min_gap_rel`` times the norm;
    after ``_MAX_TRIES`` draws ``InvalidArgumentError`` names the best reached.
    """
    t, best = _draw_tt(rng, dims, ranks, min_gap_rel)
    if t is None:
        raise InvalidArgumentError(
            f"no train reached relative gap {min_gap_rel:g} (best {best:.3g})"
        )
    return t


def _draw_tt(rng, dims, ranks, min_gap_rel) -> tuple:
    """:func:`random_tt`'s draws: the train (None if none passed), the best gap."""
    dims, best = tuple(dims), 0.0
    bounds = (1,) + tuple(ranks) + (1,)
    for _ in range(_MAX_TRIES):
        cores = tuple(
            rng.standard_normal((bounds[m], dims[m], bounds[m + 1]))
            for m in range(len(dims))
        )
        t = tt_round(TTTensor(cores), ranks=tuple(ranks))
        if t.ranks != tuple(ranks):
            continue
        try:
            gap = boundary_gap(t)
        except Exception:
            continue
        norm = float(np.linalg.norm(tt_to_dense(t)))
        if gap >= min_gap_rel * norm:
            return t, best
        best = max(best, gap / norm)
    return None, best


def feasible_point_ranks(outer_ranks, tt_ranks) -> bool:
    """Whether a core of full multilinear rank with these train ranks exists.

    No outer rank can exceed the product of the others (the columns of its
    mode unfolding).  With train ranks, every outer rank must be reachable
    from its adjacent train ranks (the generic outer ranks), and every train
    rank must be exact on a core of sizes ``outer_ranks``; together these force
    the edge outer ranks to equal the edge train ranks.
    """
    r = tuple(outer_ranks)
    if len(r) >= 2 and any(rm * rm > math.prod(r) for rm in r):
        return False
    if tt_ranks is None:
        return True
    k = tuple(tt_ranks)
    return (
        len(k) == len(r) - 1
        and generic_outer_ranks(r, k) == r
        and all(km <= fm for km, fm in zip(k, max_feasible_ranks(r)))
    )


def random_point(rng, dims, outer_ranks, tt_ranks=None, min_gap_rel=1e-3) -> ManifoldPoint:
    """Random manifold point with orthonormal factors and exact ranks.

    ``tt_ranks=None`` gives a plain Tucker point with an array core.  Fails
    as :func:`random_tt` does, naming the best relative gap a draw reached.
    """
    dims = tuple(dims)
    outer_ranks = tuple(outer_ranks)
    if not feasible_point_ranks(outer_ranks, tt_ranks):
        raise InvalidArgumentError(
            f"outer ranks {outer_ranks} incompatible with train ranks {tt_ranks}"
        )
    best = 0.0
    for _ in range(_MAX_TRIES):
        factors = tuple(
            random_orthonormal(rng, n, r) for n, r in zip(dims, outer_ranks)
        )
        if tt_ranks is None:
            core = rng.standard_normal(outer_ranks)
        else:
            core, reached = _draw_tt(rng, outer_ranks, tt_ranks, min_gap_rel)
            best = max(best, reached)
            if core is None:
                continue
        try:
            p = make_point(core, factors)
        except Exception:
            continue
        if point_boundary_gap(p) >= min_gap_rel * p.norm():
            return p
        best = max(best, point_boundary_gap(p) / p.norm())
    raise InvalidArgumentError(f"no point reached relative gap {min_gap_rel:g} (best {best:.3g})")


def perturbed_point(rng, p: ManifoldPoint, eps: float, direction=None):
    """Retract an ambient perturbation of size ``eps`` back to the manifold.

    Returns the retracted point and the perturbation direction used, so a
    sweep over ``eps`` can reuse one direction.
    """
    x = point_to_dense(p)
    if direction is None:
        direction = random_dense(rng, p.dims)
        direction = direction * (1.0 / direction.norm())
    y = x + eps * direction
    tt_ranks = p.core.ranks if p.tt_core else None
    q = retract(y, p.outer_ranks, tt_ranks)
    return q, direction
