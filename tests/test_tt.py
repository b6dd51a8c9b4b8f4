import warnings

import numpy as np
import pytest

from ttdlra.dense import DenseTensor, matricize, svd
from ttdlra.errors import DegeneratePointError, InvalidArgumentError, NotOnManifoldError
from ttdlra.retraction import retract
from ttdlra.tt import (
    TTTensor,
    boundary_gap,
    interface_spectrum,
    max_feasible_ranks,
    orthogonalize,
    truncate_interface,
    tt_add,
    tt_from_dense,
    tt_round,
    tt_scale,
    tt_to_dense,
)


def random_tt(rng, dims, ranks):
    bounds = (1,) + tuple(ranks) + (1,)
    cores = [
        rng.standard_normal((bounds[m], dims[m], bounds[m + 1]))
        for m in range(len(dims))
    ]
    return TTTensor(tuple(cores))


def test_constructor_validates_interfaces(rng):
    with pytest.raises(InvalidArgumentError):
        TTTensor((rng.standard_normal((1, 3, 2)), rng.standard_normal((3, 4, 1))))
    with pytest.raises(InvalidArgumentError):
        TTTensor((rng.standard_normal((2, 3, 1)),))


def test_matrix_rank_two_recovers_tt_rank_two(rng):
    # for two modes the train rank equals the matrix rank
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
    t = tt_from_dense(a)
    assert t.ranks == (2,)
    np.testing.assert_allclose(tt_to_dense(t), a, atol=1e-12)


def test_rank_one_tensor(rng):
    a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
    x = np.einsum("i,j,k->ijk", a, b, c)
    t = tt_from_dense(x)
    assert t.ranks == (1, 1)
    assert np.linalg.norm(tt_to_dense(t) - x) <= 1e-13 * np.linalg.norm(x)


def test_construct_then_decompose_recovers_ranks(rng):
    t = random_tt(rng, (4, 4, 4), (2, 3))
    x = tt_to_dense(t)
    t2, err = tt_from_dense(x, ranks=(2, 3), return_error=True)
    assert t2.ranks == (2, 3)
    assert err <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(tt_to_dense(t2) - x) <= 1e-12 * np.linalg.norm(x)


def test_infeasible_ranks_rejected(rng):
    x = rng.standard_normal((2, 3, 2))
    assert max_feasible_ranks((2, 3, 2)) == (2, 2)
    with pytest.raises(InvalidArgumentError):
        tt_from_dense(x, ranks=(3, 2))


def test_to_dense_constant_rank_one():
    cores = (np.ones((1, 3, 1)), np.ones((1, 2, 1)))
    t = TTTensor(cores)
    np.testing.assert_allclose(tt_to_dense(t), np.ones((3, 2)))


def test_to_dense_elementwise_matrix_product_oracle(rng):
    t = random_tt(rng, (3, 4, 2), (2, 3))
    x = tt_to_dense(t)
    g0, g1, g2 = t.cores
    for i in range(3):
        for j in range(4):
            for k in range(2):
                val = (g0[:, i, :] @ g1[:, j, :] @ g2[:, k, :])[0, 0]
                assert abs(x[i, j, k] - val) <= 1e-12


def test_round_trip_dense(rng):
    x = rng.standard_normal((3, 4, 2, 3))
    t = tt_from_dense(x)
    assert np.linalg.norm(tt_to_dense(t) - x) <= 1e-12 * np.linalg.norm(x)


def test_orthogonalize_preserves_value_and_sets_gramians(rng):
    t = random_tt(rng, (3, 4, 2, 3), (2, 3, 2))
    x = tt_to_dense(t)
    for site in range(t.ndim):
        t2 = orthogonalize(t, site)
        assert t2.ortho_center == site
        assert np.linalg.norm(tt_to_dense(t2) - x) <= 1e-12 * np.linalg.norm(x)
        for m in range(site):
            c = t2.cores[m]
            mat = c.reshape(-1, c.shape[2])
            np.testing.assert_allclose(mat.T @ mat, np.eye(c.shape[2]), atol=1e-12)
        for m in range(t.ndim - 1, site, -1):
            c = t2.cores[m]
            mat = c.reshape(c.shape[0], -1)
            np.testing.assert_allclose(mat @ mat.T, np.eye(c.shape[0]), atol=1e-12)


def test_orthogonalize_idempotent_on_orthogonal_input(rng):
    t = orthogonalize(random_tt(rng, (3, 4, 3), (2, 2)), 2)
    t2 = orthogonalize(t, 2)
    x = tt_to_dense(t)
    assert np.linalg.norm(tt_to_dense(t2) - x) <= 1e-13 * np.linalg.norm(x)


def test_interface_spectrum_rank_one_unit_norm(rng):
    vecs = [rng.standard_normal(n) for n in (3, 4, 2)]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    cores = tuple(v.reshape(1, -1, 1) for v in vecs)
    spec = interface_spectrum(TTTensor(cores))
    for vals in spec.values:
        np.testing.assert_allclose(vals, [1.0], atol=1e-13)


def test_interface_spectrum_two_modes_equals_matrix_svd(rng):
    t = random_tt(rng, (5, 6), (3,))
    spec = interface_spectrum(t)
    sv = svd(matricize(DenseTensor.from_array(tt_to_dense(t)), {0})).singular_values
    np.testing.assert_allclose(spec.values[0], sv[:3], rtol=1e-12, atol=1e-12)


def test_interface_spectrum_against_dense_unfolding_oracle(rng):
    t = random_tt(rng, (3, 2, 4, 3), (2, 3, 2))
    spec = interface_spectrum(t)
    x = DenseTensor.from_array(tt_to_dense(t))
    for m, vals in enumerate(spec.values):
        sv = svd(matricize(x, set(range(m + 1)))).singular_values
        np.testing.assert_allclose(vals, sv[: vals.size], rtol=1e-10, atol=1e-10)


def test_boundary_gap_matrix_case_is_sigma_min(rng):
    a = rng.standard_normal((5, 4))
    t = tt_from_dense(a)
    sv = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(boundary_gap(t), sv[-1], rtol=1e-12)


def test_boundary_gap_rank_one_cone_scaling(rng):
    vecs = [rng.standard_normal(n) for n in (3, 4)]
    cores = tuple(v.reshape(1, -1, 1) for v in vecs)
    t = TTTensor(cores)
    c = np.linalg.norm(tt_to_dense(t))
    np.testing.assert_allclose(boundary_gap(t), c, rtol=1e-12)
    for s in (0.5, 3.0):
        np.testing.assert_allclose(boundary_gap(tt_scale(t, s)), s * c, rtol=1e-12)


def test_boundary_gap_rejects_rank_deficient(rng):
    # duplicated slice makes interface 0 rank deficient
    g0 = np.zeros((1, 3, 2))
    g0[0, :, 0] = rng.standard_normal(3)
    g0[0, :, 1] = g0[0, :, 0]
    g1 = rng.standard_normal((2, 4, 1))
    with pytest.raises(DegeneratePointError):
        boundary_gap(TTTensor((g0, g1)))


def test_truncate_interface_rank_one_gives_zero(rng):
    vecs = [rng.standard_normal(n) for n in (3, 4, 2)]
    cores = tuple(v.reshape(1, -1, 1) for v in vecs)
    t = TTTensor(cores)
    for m in range(2):
        z = truncate_interface(t, m)
        assert np.linalg.norm(tt_to_dense(z)) == 0.0
        np.testing.assert_allclose(
            np.linalg.norm(tt_to_dense(t) - tt_to_dense(z)), np.linalg.norm(tt_to_dense(t))
        )


def test_truncate_interface_matrix_eckart_young(rng):
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
    t = tt_from_dense(a)
    sv = np.linalg.svd(a, compute_uv=False)
    t1 = truncate_interface(t, 0)
    err = np.linalg.norm(tt_to_dense(t) - tt_to_dense(t1))
    np.testing.assert_allclose(err, sv[1], rtol=1e-10)
    # result is the best rank-one approximation
    u, s, vh = np.linalg.svd(a)
    best = s[0] * np.outer(u[:, 0], vh[0])
    np.testing.assert_allclose(tt_to_dense(t1), best, atol=1e-10)


def test_truncate_interface_distance_and_spectrum(rng):
    t = random_tt(rng, (3, 4, 3), (2, 3))
    spec = interface_spectrum(t)
    for m in range(2):
        out = truncate_interface(t, m)
        dist = np.linalg.norm(tt_to_dense(t) - tt_to_dense(out))
        np.testing.assert_allclose(dist, spec.values[m][-1], rtol=1e-10)
        out_spec = interface_spectrum(out)
        assert out_spec.values[m].size == t.ranks[m] - 1
    # the boundary gap certifies the distance at the minimizing interface
    m_star = int(np.argmin([v[-1] for v in spec.values]))
    out = truncate_interface(t, m_star)
    np.testing.assert_allclose(
        np.linalg.norm(tt_to_dense(t) - tt_to_dense(out)), boundary_gap(t), rtol=1e-10
    )


def test_tt_round_reports_error(rng):
    t = random_tt(rng, (4, 4, 4), (3, 3))
    x = tt_to_dense(t)
    out, err = tt_round(t, ranks=(2, 2), return_error=True)
    actual = np.linalg.norm(x - tt_to_dense(out))
    assert out.ranks == (2, 2)
    # quasi-optimal sweep: actual error within the reported budget
    assert actual <= err * (1 + 1e-10) + 1e-14
    # exact-rank input rounds exactly
    same, err0 = tt_round(t, ranks=(3, 3), return_error=True)
    assert err0 <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(x - tt_to_dense(same)) <= 1e-12 * np.linalg.norm(x)


def test_discarded_error_is_taken_at_scale():
    # the singular values a sweep discards are squared at scale: at x1e300
    # their plain squares overflowed with numpy's RuntimeWarning, at x1e-300
    # they underflowed to an error of 0; the errors scale with the input, and
    # the retraction of the huge tensor ends as that of the unit one
    x = np.random.default_rng(0).standard_normal((4, 4, 4))
    errors, outcomes = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e-300, 1e300):
            t, e_dense = tt_from_dense(scale * x, ranks=(2, 2), return_error=True)
            _, e_round = tt_round(tt_from_dense(scale * x), ranks=(2, 1), return_error=True)
            errors[scale] = np.array([e_dense, e_round])
            try:
                outcomes[scale] = retract(DenseTensor.from_array(scale * x), (3, 3, 3), (2, 2))
            except NotOnManifoldError as exc:
                outcomes[scale] = type(exc)
    residual = np.linalg.norm(tt_to_dense(tt_from_dense(x, ranks=(2, 2))) - x)
    np.testing.assert_allclose(errors[1.0][0], residual, rtol=1e-12)
    for scale in (1e-300, 1e300):
        np.testing.assert_allclose(errors[scale], scale * errors[1.0], rtol=1e-13)
        assert outcomes[scale] == outcomes[1.0] == NotOnManifoldError


def test_tt_add_and_scale(rng):
    a = random_tt(rng, (3, 4, 2), (2, 2))
    b = random_tt(rng, (3, 4, 2), (1, 2))
    s = tt_add(a, b)
    assert s.ranks == (3, 4)
    np.testing.assert_allclose(
        tt_to_dense(s),
        tt_to_dense(a) + tt_to_dense(b),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        tt_to_dense(tt_scale(a, -2.5)),
        -2.5 * tt_to_dense(a),
        atol=1e-12,
    )
