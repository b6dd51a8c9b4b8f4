from dataclasses import asdict

import numpy as np
import pytest

from helpers import ambient_matrix_by_columns

from ttdlra.manifold import make_point, point_to_dense
from ttdlra.sampling import perturbed_point, random_orthonormal, random_point
from ttdlra.tangent import (
    TangentBasis,
    brute_force_projector,
    curvature_report,
)


def dense_projector(p):
    b = ambient_matrix_by_columns(TangentBasis(p))
    return b @ b.T


def matrix_pair(rng, n=5, k=2):
    x = random_point(rng, (n, n), (k, k), tt_ranks=(k,))
    y = random_point(rng, (n, n), (k, k), tt_ranks=(k,))
    return x, y


def test_identical_points_report_zero(rng):
    x, _ = matrix_pair(rng)
    rep = curvature_report(x, x)
    assert rep.distance <= 1e-14
    assert rep.projector_difference_norm <= 1e-13
    assert rep.normal_defect <= 1e-14


def _oracle_pairs(rng):
    for _ in range(3):
        yield matrix_pair(rng)
    x = random_point(rng, (4, 4, 4), (2, 3, 2), tt_ranks=(2, 2), min_gap_rel=0.05)
    # the dense oracle rounds at about 1e-15 absolute, so the pairs keep
    # projector differences well above 1e-3 for a 1e-12 relative comparison
    for eps in (1e-1, 1e-2):
        yield x, perturbed_point(rng, x, eps)[0]
    x = random_point(rng, (3, 4, 3), (2, 3, 2))
    yield x, perturbed_point(rng, x, 1e-2)[0]


def test_projector_difference_matches_dense_projectors(rng):
    for x, y in _oracle_pairs(rng):
        rep = curvature_report(x, y)
        exact = np.linalg.norm(dense_projector(x) - dense_projector(y), 2)
        np.testing.assert_allclose(rep.projector_difference_norm, exact, rtol=1e-12)


def test_normal_defect_matches_brute_force_projector(rng):
    for x, y in _oracle_pairs(rng):
        rep = curvature_report(x, y)
        diff = point_to_dense(x) - point_to_dense(y)
        oracle = (diff - brute_force_projector(x, diff)).norm()
        np.testing.assert_allclose(rep.normal_defect, oracle, rtol=0, atol=1e-12)


def test_matrix_pair_with_known_smallest_singular_value(rng):
    # rank-one 2x2 pair: sigma equals the single singular value, bounds hold
    u1, v1 = random_orthonormal(rng, 2, 1), random_orthonormal(rng, 2, 1)
    u2, v2 = random_orthonormal(rng, 2, 1), random_orthonormal(rng, 2, 1)
    c1 = np.array([[1.3]])
    c2 = np.array([[0.8]])
    x = make_point(c1, (u1, v1))
    y = make_point(c2, (u2, v2))
    rep = curvature_report(x, y)
    assert rep.sigma_kind == "exact-matrix-distance"
    np.testing.assert_allclose(rep.sigma_used, 1.3, atol=1e-12)
    # dense oracle for the projector difference
    d = dense_projector(x) - dense_projector(y)
    np.testing.assert_allclose(
        rep.projector_difference_norm, np.linalg.norm(d, 2), rtol=1e-5
    )
    assert rep.projector_difference_norm <= rep.projector_bound_tt + 1e-10
    assert rep.normal_defect <= rep.normal_bound_tt + 1e-10


def test_matrix_case_bounds_hold_on_seeded_pairs(rng):
    for _ in range(25):
        x, y = matrix_pair(rng)
        rep = curvature_report(x, y)
        assert rep.ndim == 2
        # train-manifold bounds specialize to 8/sigma and 1/sigma for matrices
        np.testing.assert_allclose(
            rep.projector_bound_tt, 8.0 / rep.sigma_used * rep.distance, rtol=1e-12
        )
        np.testing.assert_allclose(
            rep.normal_bound_tt, rep.distance**2 / rep.sigma_used, rtol=1e-12
        )
        assert rep.projector_difference_norm <= rep.projector_bound_tt + 1e-10
        assert rep.normal_defect <= rep.normal_bound_tt + 1e-10
        # the outer-manifold bounds are looser, so they hold as well
        assert rep.projector_difference_norm <= rep.projector_bound_outer + 1e-10
        assert rep.normal_defect <= rep.normal_bound_outer + 1e-10


def test_second_order_normal_defect_under_retracted_perturbations(rng):
    x = random_point(rng, (4, 4, 4), (2, 3, 2), tt_ranks=(2, 2), min_gap_rel=0.05)
    direction = None
    ratios = {}
    for eps in (1e-1, 1e-2, 1e-3):
        y, direction = perturbed_point(rng, x, eps, direction)
        rep = curvature_report(x, y)
        assert rep.sigma_kind == "interface-gap-heuristic"
        ratios[eps] = rep.normal_defect / eps**2
    # quadratic smallness: defect/eps^2 stays within a constant factor
    assert ratios[1e-2] <= 4 * max(ratios[1e-1], 1e-12) + 1e-9
    assert ratios[1e-3] <= 4 * max(ratios[1e-2], 1e-12) + 1e-9


def test_report_serializes_flat(rng):
    x, y = matrix_pair(rng)
    rep = curvature_report(x, y)
    rec = asdict(rep)
    assert set(rec) == {
        "ndim",
        "distance",
        "projector_difference_norm",
        "normal_defect",
        "projector_bound_outer",
        "normal_bound_outer",
        "projector_bound_tt",
        "normal_bound_tt",
        "sigma_used",
        "sigma_kind",
    }
    assert all(np.isfinite(v) for k, v in rec.items() if k != "sigma_kind")
