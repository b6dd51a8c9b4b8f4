import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from helpers import (
    dense_mode_factors,
    from_orthonormal,
    kron_matrix,
    p1_matrices,
    source_dense,
    to_orthonormal,
)

from ttdlra.dense import DenseTensor, inner
from ttdlra.errors import InvalidArgumentError
from ttdlra.fem import (
    DiffusionCoefficient,
    ModeFactor,
    OperatorTerm,
    SourceTerm,
    TTOperator,
    assemble_operator,
    build_fem1d,
    check_a1_tangency,
    laplacian_operator,
    lipschitz_constant,
    load_vector,
    mass_orthonormalize,
    mixed_derivative_check,
    profile_values,
    source_loads,
)
from ttdlra.manifold import make_point, point_to_dense, scale_point
from ttdlra.problems import heat_problem
from ttdlra.sampling import random_dense, random_orthonormal, random_point, random_tt
from ttdlra.tt import tt_to_dense


def small_disc(n_cells, d):
    return mass_orthonormalize([build_fem1d(n_cells) for _ in range(d)])


# ---------------------------------------------------------------------------
# 1D elements
# ---------------------------------------------------------------------------


def test_p1_stencils_exact():
    fem = build_fem1d(8)
    h = 1.0 / 8
    assert fem.n_interior == 7
    # row i holds (X[i, i-1], X[i, i], X[i, i+1])
    np.testing.assert_allclose(fem.stiffness[:, 1], 2.0 / h)
    np.testing.assert_allclose(fem.stiffness[1:, 0], -1.0 / h)
    np.testing.assert_allclose(fem.stiffness[:-1, 2], -1.0 / h)
    np.testing.assert_allclose(fem.mass[:, 1], 4 * h / 6)
    np.testing.assert_allclose(fem.mass[:-1, 2], h / 6)
    np.testing.assert_allclose(fem.transfer[:-1, 2], 0.5)
    np.testing.assert_allclose(fem.transfer[1:, 0], -0.5)
    np.testing.assert_allclose(fem.transfer[:, 1], 0.0)
    # exact antisymmetry: boundary terms vanish for interior hat functions
    np.testing.assert_array_equal(fem.transfer[:-1, 2] + fem.transfer[1:, 0], np.zeros(6))
    # the bidiagonal mass Cholesky factor, lower band storage
    l = np.diag(fem.mass_chol[0]) + np.diag(fem.mass_chol[1, :-1], -1)
    np.testing.assert_allclose(l, np.linalg.cholesky(p1_matrices(8)[0]), rtol=1e-14)


@pytest.mark.parametrize("n_cells", [2, 8, 65])
def test_banded_mode_factors_match_dense_congruence(rng, n_cells):
    # each L^-1 X L^-T against the dense congruence built from the stencils,
    # on one vector and on a block
    disc = small_disc(n_cells, 1)
    oracle = dense_mode_factors(n_cells)
    factors = {"stiffness": disc.stiffness[0], "transfer": disc.transfer[0]}
    n = n_cells - 1
    for name, factor in factors.items():
        dense = oracle[name]
        for y in (rng.standard_normal(n), rng.standard_normal((n, 5))):
            want = dense @ y
            assert np.linalg.norm(factor @ y - want) <= 1e-12 * np.linalg.norm(want)
        got = factor @ np.eye(n)
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


def test_build_fem1d_rejects_tiny():
    with pytest.raises(InvalidArgumentError):
        build_fem1d(1)


def test_smallest_generalized_eigenvalue_near_pi_squared():
    mass, stiffness, _ = p1_matrices(64)
    evals = scipy.linalg.eigh(stiffness, mass, eigvals_only=True)
    assert abs(evals[0] - np.pi**2) <= 0.02 * np.pi**2


def test_load_vector_constant_profile():
    fem = build_fem1d(10)
    load = load_vector(fem, lambda x: 1.0)
    np.testing.assert_allclose(load, fem.h * np.ones(fem.n_interior), rtol=1e-13)


def test_load_vector_sine_against_quadrature_oracle():
    fem = build_fem1d(9)
    load = load_vector(fem, lambda x: np.sin(np.pi * x))
    h = fem.h
    for i in range(fem.n_interior):
        xi = (i + 1) * h

        def hat(x):
            return max(0.0, 1.0 - abs(x - xi) / h) * np.sin(np.pi * x)

        ref, _ = scipy.integrate.quad(hat, max(0.0, xi - h), min(1.0, xi + h), limit=200)
        assert abs(load[i] - ref) <= 1e-12


def test_profile_is_called_once_on_the_point_array():
    fem = build_fem1d(10)
    shapes = []

    def profile(x):
        shapes.append(np.shape(x))
        return np.sin(np.pi * x)

    load = load_vector(fem, profile)
    assert shapes == [(10, 12)]
    # the same load as one call per point
    per_point = load_vector(fem, np.vectorize(lambda x: np.sin(np.pi * x)))
    np.testing.assert_allclose(load, per_point, rtol=1e-14, atol=0)


def test_scalar_profile_broadcasts():
    fem = build_fem1d(10)
    x = np.linspace(0.1, 0.9, 7)
    np.testing.assert_array_equal(profile_values(lambda x: 2.5, x), np.full(7, 2.5))
    np.testing.assert_allclose(
        load_vector(fem, lambda x: 2.5), 2.5 * load_vector(fem, lambda x: 1.0), rtol=1e-15
    )


def test_wrong_shape_profile_is_invalid_argument():
    def mean_only(x):
        return np.array([np.mean(x)] * 3)

    with pytest.raises(InvalidArgumentError, match="mean_only gives shape"):
        load_vector(build_fem1d(10), mean_only)
    with pytest.raises(InvalidArgumentError, match="mean_only gives shape"):
        profile_values(mean_only, np.linspace(0.1, 0.9, 7))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_profile_is_invalid_argument(value):
    def spiky(x):
        return np.where(x > 0.5, value, x)

    with pytest.raises(InvalidArgumentError, match="profile .*spiky has non-finite values"):
        load_vector(build_fem1d(10), spiky)


# ---------------------------------------------------------------------------
# mass-orthonormal coordinates
# ---------------------------------------------------------------------------


def test_transformed_mass_is_identity():
    disc = small_disc(12, 1)
    fem = disc.fems[0]
    transformed = ModeFactor(fem.mass, fem) @ np.eye(fem.n_interior)
    np.testing.assert_allclose(transformed, np.eye(fem.n_interior), atol=1e-12)


def test_transformed_stiffness_spectrum_matches_generalized():
    disc = small_disc(16, 1)
    mass, stiffness, _ = p1_matrices(16)
    gen = scipy.linalg.eigh(stiffness, mass, eigvals_only=True)
    own = np.linalg.eigvalsh(disc.stiffness[0] @ np.eye(15))
    np.testing.assert_allclose(own, gen, rtol=1e-10)


def test_coordinate_round_trip(rng):
    disc = small_disc(8, 3)
    x = random_dense(rng, disc.dims)
    back = from_orthonormal(disc, to_orthonormal(disc, x))
    assert (back - x).norm() <= 1e-12 * x.norm()


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def test_identity_diffusion_has_empty_cross_part(rng):
    disc = small_disc(8, 3)
    coeff = DiffusionCoefficient(np.eye(3), np.zeros((3, 3)), horizon=1.0)
    op = assemble_operator(coeff, disc, 0.0)
    assert len(op.cross_part.terms) == 0
    x = random_dense(rng, disc.dims)
    lap = laplacian_operator(disc)
    assert (op.apply(x) - lap.apply(x)).norm() <= 1e-12 * lap.apply(x).norm()


def test_operator_matches_kronecker_oracle(rng):
    disc = small_disc(8, 3)
    b0 = np.array([[1.0, 0.25, 0.1], [0.25, 1.2, 0.2], [0.1, 0.2, 0.9]])
    b1 = 0.1 * np.array([[0.5, -0.2, 0.0], [-0.2, 0.3, 0.1], [0.0, 0.1, 0.4]])
    coeff = DiffusionCoefficient(b0, b1, horizon=1.0)
    for t in (0.0, 0.37, 1.0):
        op = assemble_operator(coeff, disc, t)
        for part in (op, op.diagonal_part, op.cross_part):
            dense = kron_matrix(part)
            x = random_dense(rng, disc.dims)
            lhs = part.apply(x).data
            rhs = dense @ x.data
            scale = max(np.linalg.norm(rhs), 1e-30)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cross_terms_merge_the_ordered_pairs(d):
    # T^T = -T, so one term -(b_mn + b_nm) T_m (x) T_n per pair m < n is the
    # sum over the ordered pairs m != n of b_mn T_m (x) T_n^T
    disc = small_disc(5, d)
    b4 = np.array(
        [
            [1.0, 0.3, -0.2, 0.1],
            [0.3, 1.5, 0.25, -0.15],
            [-0.2, 0.25, 0.8, 0.05],
            [0.1, -0.15, 0.05, 1.2],
        ]
    )
    b0 = b4[:d, :d]
    op = assemble_operator(DiffusionCoefficient(b0, np.zeros((d, d)), horizon=1.0), disc, 0.0)
    assert len(op.terms) == d * (d + 1) // 2
    k, t = [f.dense for f in disc.stiffness], [f.dense for f in disc.transfer]
    ordered = [OperatorTerm(b0[m, m], ((m, k[m]),)) for m in range(d)] + [
        OperatorTerm(b0[m, n], ((m, t[m]), (n, t[n].T)))
        for m in range(d)
        for n in range(d)
        if m != n
    ]
    want = kron_matrix(TTOperator(disc.dims, tuple(ordered)))
    assert np.max(np.abs(kron_matrix(op) - want)) <= 1e-14 * np.abs(want).max()


def test_operator_symmetric_and_coercive(rng):
    disc = small_disc(8, 3)
    b0 = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.1]])
    coeff = DiffusionCoefficient(b0, np.zeros((3, 3)), horizon=1.0)
    op = assemble_operator(coeff, disc, 0.5)
    lap = laplacian_operator(disc)
    margin = coeff.spd_margin
    assert margin > 0
    for _ in range(50):
        x = random_dense(rng, disc.dims)
        y = random_dense(rng, disc.dims)
        sym = abs(inner(op.apply(x), y) - inner(x, op.apply(y)))
        assert sym <= 1e-10 * x.norm() * y.norm() * 100
        vsq = inner(lap.apply(x), x)
        assert inner(op.apply(x), x) >= margin * vsq * (1 - 1e-10)


def test_two_mode_coercivity_margin(rng):
    disc = small_disc(10, 2)
    c = 0.6
    coeff = DiffusionCoefficient(
        np.array([[1.0, c], [c, 1.0]]), np.zeros((2, 2)), horizon=1.0
    )
    op = assemble_operator(coeff, disc, 0.0)
    lap = laplacian_operator(disc)
    np.testing.assert_allclose(coeff.spd_margin, 1 - c, rtol=1e-12)
    for _ in range(20):
        x = random_dense(rng, disc.dims)
        quad = inner(op.apply(x), x)
        vsq = inner(lap.apply(x), x)
        assert quad >= (1 - c) * vsq * (1 - 1e-10)
        assert quad > 0


def test_splitting_consistency(rng):
    disc = small_disc(6, 3)
    b0 = np.array([[1.0, 0.2, 0.1], [0.2, 0.8, 0.15], [0.1, 0.15, 1.3]])
    coeff = DiffusionCoefficient(b0, 0.05 * np.eye(3), horizon=2.0)
    op = assemble_operator(coeff, disc, 1.2)
    t = random_tt(rng, disc.dims, (2, 2))
    x = tt_to_dense(t)
    full = op.apply(x)
    split = op.diagonal_part.apply(x) + op.cross_part.apply(x)
    assert (full - split).norm() <= 1e-12 * full.norm()


def test_time_lipschitz_bound(rng):
    disc = small_disc(8, 2)
    b0 = np.array([[1.0, 0.2], [0.2, 1.0]])
    b1 = np.array([[0.3, -0.1], [-0.1, 0.2]])
    coeff = DiffusionCoefficient(b0, b1, horizon=1.0)
    lbar = lipschitz_constant(disc, coeff)
    lap = laplacian_operator(disc)
    for s, t in ((0.0, 1.0), (0.2, 0.7), (0.4, 0.45)):
        op_t = assemble_operator(coeff, disc, t)
        op_s = assemble_operator(coeff, disc, s)
        for _ in range(10):
            x = random_dense(rng, disc.dims)
            vnorm = np.sqrt(inner(lap.apply(x), x))
            diff = (op_t.apply(x) - op_s.apply(x)).norm()
            assert diff <= lbar * abs(t - s) * vnorm * (1 + 1e-10)


def test_rejects_non_spd_diffusion():
    with pytest.raises(InvalidArgumentError):
        DiffusionCoefficient(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)), 1.0)
    # drift can destroy definiteness at the end of the horizon
    with pytest.raises(InvalidArgumentError):
        DiffusionCoefficient(np.eye(2), np.array([[-2.0, 0.0], [0.0, 0.0]]), 1.0)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


def test_rhs_empty_is_zero():
    disc = small_disc(6, 2)
    loads = source_loads([], disc)
    assert [g.shape for g in loads] == [(n, 0) for n in disc.dims]
    problem = heat_problem(2, 6, (2,))
    assert source_dense(problem.source_factors(0.0)).norm() == 0.0
    assert problem.rhs_norm_sq(0.0) == 0.0


def test_rhs_constant_source():
    disc = small_disc(10, 2)
    term = SourceTerm(time_coeff=1.0, profiles=(lambda x: 1.0, lambda x: 1.0))
    loads = source_loads([term], disc)
    assert [g.shape for g in loads] == [(n, 1) for n in disc.dims]
    # the analytic loads h of a constant profile, in orthonormal coordinates
    h = disc.fems[0].h
    per_mode = [disc.load_orthonormal_1d(np.full(n, h), m) for m, n in enumerate(disc.dims)]
    want = np.outer(per_mode[0], per_mode[1])
    np.testing.assert_allclose(source_dense(loads).to_array(), want, atol=1e-12)


def test_rhs_sine_product_matches_dense_quadrature():
    prof = lambda x: np.sin(np.pi * x)
    term = SourceTerm(time_coeff=2.0, profiles=(prof, prof, prof))
    problem = heat_problem(3, 7, (2, 2), sources=(term,))
    disc = problem.disc
    f = source_dense(problem.source_factors(0.0))
    loads = [load_vector(disc.fems[m], prof) for m in range(3)]
    loads = [disc.load_orthonormal_1d(v, m) for m, v in enumerate(loads)]
    expected = 2.0 * np.einsum("i,j,k->ijk", *loads)
    np.testing.assert_allclose(f.to_array(), expected, atol=1e-12)


def test_rhs_time_coefficient():
    term = SourceTerm(time_coeff=lambda t: 1.0 + 2.0 * t, profiles=(lambda x: 1.0,) * 2)
    problem = heat_problem(2, 6, (2,), sources=(term,))
    f0 = source_dense(problem.source_factors(0.0))
    f1 = source_dense(problem.source_factors(1.0))
    np.testing.assert_allclose(f1.to_array(), 3.0 * f0.to_array(), rtol=1e-12)


def test_problem_rhs_reuses_loads_bit_identically(monkeypatch):
    import ttdlra.fem

    sine = lambda x: np.sin(np.pi * x)
    terms = (
        SourceTerm(time_coeff=lambda t: 1.0 + 2.0 * t, profiles=(sine, lambda x: 1.0, sine)),
        SourceTerm(time_coeff=0.5, profiles=(lambda x: x * (1.0 - x),) * 3),
    )
    problem = heat_problem(3, 7, (2, 2), sources=terms)
    loads = source_loads(terms, problem.disc)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("load vectors recomputed")

    monkeypatch.setattr(ttdlra.fem, "load_vector", no_quadrature)
    for t in (0.0, 0.3):
        weights = np.array([1.0 + 2.0 * t, 0.5])
        got = problem.source_factors(t)
        assert np.array_equal(got[0], loads[0] * weights)
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], loads[1:]))


# ---------------------------------------------------------------------------
# tangency of the diagonal part and mixed-derivative bound
# ---------------------------------------------------------------------------


def test_diagonal_part_maps_into_tangent_space(rng):
    disc = small_disc(8, 3)
    coeff = DiffusionCoefficient(np.diag([1.0, 1.5, 0.7]), np.zeros((3, 3)), 1.0)
    op = assemble_operator(coeff, disc, 0.0)
    p = random_point(rng, disc.dims, (1, 1, 1), tt_ranks=(1, 1))
    res = check_a1_tangency(p, op.diagonal_part, rng)
    assert res <= 1e-10
    # scale invariance of the normalized residual
    res5 = check_a1_tangency(scale_point(p, 5.0), op.diagonal_part, rng)
    assert res5 <= 1e-10


def test_a1_tangency_builds_one_basis(rng, monkeypatch):
    from ttdlra import fem
    from ttdlra.tangent import TangentBasis, apply_tangent_projector

    disc = small_disc(8, 3)
    coeff = DiffusionCoefficient(np.diag([1.0, 1.5, 0.7]), np.zeros((3, 3)), 1.0)
    op = assemble_operator(coeff, disc, 0.0).diagonal_part
    p = random_point(rng, disc.dims, (2, 3, 2), tt_ranks=(2, 2))
    built = []

    class Counted(TangentBasis):
        def __init__(self, point):
            built.append(point)
            super().__init__(point)

    monkeypatch.setattr(fem, "TangentBasis", Counted)
    res = check_a1_tangency(p, op, np.random.default_rng(5), n_samples=4)
    assert len(built) == 1
    # the same value as projecting each sample with its own basis
    draws = np.random.default_rng(5)
    a1u = op.apply(point_to_dense(p))
    worst = 0.0
    for _ in range(4):
        v = DenseTensor.from_array(draws.standard_normal(p.dims))
        pairing = abs(inner(a1u, v - apply_tangent_projector(p, v)))
        worst = max(worst, pairing / (a1u.norm() * v.norm()))
    assert res == worst


def test_cross_part_negative_control(rng):
    disc = small_disc(8, 3)
    b0 = np.array([[1.0, 0.4, 0.3], [0.4, 1.0, 0.35], [0.3, 0.35, 1.0]])
    coeff = DiffusionCoefficient(b0, np.zeros((3, 3)), 1.0)
    op = assemble_operator(coeff, disc, 0.0)
    p = random_point(rng, disc.dims, (2, 3, 2), tt_ranks=(2, 2))
    res_diag = check_a1_tangency(p, op.diagonal_part, rng)
    res_cross = check_a1_tangency(p, op.cross_part, rng)
    assert res_diag <= 1e-10
    assert res_cross >= 1e-2


def test_mixed_derivative_am_gm_equality(rng):
    disc = small_disc(12, 2)
    # symmetric rank-one point: both separated factors share the same profile
    vec = rng.standard_normal(disc.dims[0])
    vec /= np.linalg.norm(vec)
    core = DenseTensor.from_array(np.array([[1.0]]))
    p = make_point(core, (vec.reshape(-1, 1), vec.reshape(-1, 1)))
    rep = mixed_derivative_check(p, disc)
    assert rep.passed
    (m, n, lhs, bound) = rep.pairs[0]
    np.testing.assert_allclose(lhs, bound, rtol=1e-10)


def test_mixed_derivative_random_points(rng):
    disc = small_disc(8, 3)
    for _ in range(5):
        p = random_point(rng, disc.dims, (2, 3, 2), tt_ranks=(2, 2))
        rep = mixed_derivative_check(p, disc)
        assert rep.passed


def test_mixed_derivative_forms_match_dense_oracle(rng):
    # the H1 form and the mixed forms <K_m K_n u, u>, contracted on the core,
    # against the Kronecker matrices of the stencil oracle on the expanded point
    disc = small_disc(7, 3)
    k = disc.stiffness
    for tt_ranks in ((2, 2), None):
        p = random_point(rng, disc.dims, (2, 3, 2), tt_ranks=tt_ranks)
        y = point_to_dense(p).data
        rep = mixed_derivative_check(p, disc)
        h1 = y @ kron_matrix(laplacian_operator(disc)) @ y
        assert abs(rep.h1_seminorm_sq - h1) <= 1e-12 * h1
        for m, n, lhs, _ in rep.pairs:
            op = TTOperator(disc.dims, (OperatorTerm(1.0, ((m, k[m]), (n, k[n]))),))
            mixed = np.sqrt(y @ kron_matrix(op) @ y)
            assert abs(lhs - mixed) <= 1e-12 * mixed


def test_mixed_derivative_near_boundary(rng):
    disc = small_disc(10, 2)
    u = random_orthonormal(rng, disc.dims[0], 2)
    v = random_orthonormal(rng, disc.dims[1], 2)
    core = DenseTensor.from_array(np.diag([1.0, 1e-3]))
    p = make_point(core, (u, v))
    rep = mixed_derivative_check(p, disc)
    assert rep.passed
    np.testing.assert_allclose(rep.sigma, 1e-3, rtol=1e-8)
