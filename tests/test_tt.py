import numpy as np
import pytest

from ttdlra.dense import DenseTensor, matricize, svd
from ttdlra.errors import DegeneratePointError, InvalidArgumentError
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
    t = tt_from_dense(DenseTensor.from_array(a))
    assert t.ranks == (2,)
    np.testing.assert_allclose(tt_to_dense(t).to_array(), a, atol=1e-12)


def test_rank_one_tensor(rng):
    a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
    x = DenseTensor.from_array(np.einsum("i,j,k->ijk", a, b, c))
    t = tt_from_dense(x)
    assert t.ranks == (1, 1)
    assert (tt_to_dense(t) - x).norm() <= 1e-13 * x.norm()


def test_construct_then_decompose_recovers_ranks(rng):
    t = random_tt(rng, (4, 4, 4), (2, 3))
    x = tt_to_dense(t)
    t2, err = tt_from_dense(x, ranks=(2, 3), return_error=True)
    assert t2.ranks == (2, 3)
    assert err <= 1e-12 * x.norm()
    assert (tt_to_dense(t2) - x).norm() <= 1e-12 * x.norm()


def test_infeasible_ranks_rejected(rng):
    x = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
    assert max_feasible_ranks((2, 3, 2)) == (2, 2)
    with pytest.raises(InvalidArgumentError):
        tt_from_dense(x, ranks=(3, 2))


def test_to_dense_constant_rank_one():
    cores = (np.ones((1, 3, 1)), np.ones((1, 2, 1)))
    t = TTTensor(cores)
    np.testing.assert_allclose(tt_to_dense(t).to_array(), np.ones((3, 2)))


def test_to_dense_elementwise_matrix_product_oracle(rng):
    t = random_tt(rng, (3, 4, 2), (2, 3))
    x = tt_to_dense(t).to_array()
    g0, g1, g2 = t.cores
    for i in range(3):
        for j in range(4):
            for k in range(2):
                val = (g0[:, i, :] @ g1[:, j, :] @ g2[:, k, :])[0, 0]
                assert abs(x[i, j, k] - val) <= 1e-12


def test_round_trip_dense(rng):
    x = DenseTensor.from_array(rng.standard_normal((3, 4, 2, 3)))
    t = tt_from_dense(x)
    assert (tt_to_dense(t) - x).norm() <= 1e-12 * x.norm()


def test_orthogonalize_preserves_value_and_sets_gramians(rng):
    t = random_tt(rng, (3, 4, 2, 3), (2, 3, 2))
    x = tt_to_dense(t)
    for site in range(t.ndim):
        t2 = orthogonalize(t, site)
        assert t2.ortho_center == site
        assert (tt_to_dense(t2) - x).norm() <= 1e-12 * x.norm()
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
    assert (tt_to_dense(t2) - tt_to_dense(t)).norm() <= 1e-13 * tt_to_dense(t).norm()


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
    sv = svd(matricize(tt_to_dense(t), {0})).singular_values
    np.testing.assert_allclose(spec.values[0], sv[:3], rtol=1e-12, atol=1e-12)


def test_interface_spectrum_against_dense_unfolding_oracle(rng):
    t = random_tt(rng, (3, 2, 4, 3), (2, 3, 2))
    spec = interface_spectrum(t)
    x = tt_to_dense(t)
    for m, vals in enumerate(spec.values):
        sv = svd(matricize(x, set(range(m + 1)))).singular_values
        np.testing.assert_allclose(vals, sv[: vals.size], rtol=1e-10, atol=1e-10)


def test_boundary_gap_matrix_case_is_sigma_min(rng):
    a = rng.standard_normal((5, 4))
    t = tt_from_dense(DenseTensor.from_array(a))
    sv = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(boundary_gap(t), sv[-1], rtol=1e-12)


def test_boundary_gap_rank_one_cone_scaling(rng):
    vecs = [rng.standard_normal(n) for n in (3, 4)]
    cores = tuple(v.reshape(1, -1, 1) for v in vecs)
    t = TTTensor(cores)
    c = tt_to_dense(t).norm()
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
        assert tt_to_dense(z).norm() == 0.0
        np.testing.assert_allclose(
            (tt_to_dense(t) - tt_to_dense(z)).norm(), tt_to_dense(t).norm()
        )


def test_truncate_interface_matrix_eckart_young(rng):
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
    t = tt_from_dense(DenseTensor.from_array(a))
    sv = np.linalg.svd(a, compute_uv=False)
    t1 = truncate_interface(t, 0)
    err = (tt_to_dense(t) - tt_to_dense(t1)).norm()
    np.testing.assert_allclose(err, sv[1], rtol=1e-10)
    # result is the best rank-one approximation
    u, s, vh = np.linalg.svd(a)
    best = s[0] * np.outer(u[:, 0], vh[0])
    np.testing.assert_allclose(tt_to_dense(t1).to_array(), best, atol=1e-10)


def test_truncate_interface_distance_and_spectrum(rng):
    t = random_tt(rng, (3, 4, 3), (2, 3))
    spec = interface_spectrum(t)
    for m in range(2):
        out = truncate_interface(t, m)
        dist = (tt_to_dense(t) - tt_to_dense(out)).norm()
        np.testing.assert_allclose(dist, spec.values[m][-1], rtol=1e-10)
        out_spec = interface_spectrum(out)
        assert out_spec.values[m].size == t.ranks[m] - 1
    # the boundary gap certifies the distance at the minimizing interface
    m_star = int(np.argmin([v[-1] for v in spec.values]))
    out = truncate_interface(t, m_star)
    np.testing.assert_allclose(
        (tt_to_dense(t) - tt_to_dense(out)).norm(), boundary_gap(t), rtol=1e-10
    )


def test_tt_round_reports_error(rng):
    t = random_tt(rng, (4, 4, 4), (3, 3))
    x = tt_to_dense(t)
    out, err = tt_round(t, ranks=(2, 2), return_error=True)
    actual = (x - tt_to_dense(out)).norm()
    assert out.ranks == (2, 2)
    # quasi-optimal sweep: actual error within the reported budget
    assert actual <= err * (1 + 1e-10) + 1e-14
    # exact-rank input rounds exactly
    same, err0 = tt_round(t, ranks=(3, 3), return_error=True)
    assert err0 <= 1e-12 * x.norm()
    assert (x - tt_to_dense(same)).norm() <= 1e-12 * x.norm()


def test_tt_add_and_scale(rng):
    a = random_tt(rng, (3, 4, 2), (2, 2))
    b = random_tt(rng, (3, 4, 2), (1, 2))
    s = tt_add(a, b)
    assert s.ranks == (3, 4)
    np.testing.assert_allclose(
        tt_to_dense(s).to_array(),
        tt_to_dense(a).to_array() + tt_to_dense(b).to_array(),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        tt_to_dense(tt_scale(a, -2.5)).to_array(),
        -2.5 * tt_to_dense(a).to_array(),
        atol=1e-12,
    )
