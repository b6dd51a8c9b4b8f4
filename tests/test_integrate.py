import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from helpers import count_calls, gauge_frame, interface_gauge, kron_matrix, p1_matrices
from helpers import source_dense

from ttdlra import dense, fem, integrate, retraction, tangent, tt
from ttdlra.dense import DenseTensor, _multiply_modes, inner
from ttdlra.errors import BreakdownError, InvalidArgumentError, OversizeError
from ttdlra.fem import ModeFactor, OperatorTerm, TTOperator, chol_matmul, laplacian_operator
from ttdlra.integrate import (
    BREAKDOWN_REL,
    BreakdownRecord,
    Trajectory,
    dense_implicit_euler,
    energy_report,
    _pcg,
    _preconditioner,
    _source_coords,
    operator_quadratic_form,
    solve,
    state_from_point,
    step_projected_implicit_euler,
    step_projector_splitting,
    tangent_operator,
)
from ttdlra.manifold import make_point, point_to_dense, scale_point
from ttdlra.problems import heat_problem, problem_from_config, rank_collapse_problem
from ttdlra.retraction import tucker_distance
from ttdlra.sampling import random_orthonormal, random_point
from ttdlra.tangent import TangentBasis
from ttdlra.tt import TTTensor


def anisotropic_problem(d=3, n=6, tt_ranks=(2, 2), outer=None, t_end=0.1, sources=0, b0=None):
    # ``sources`` separable source terms with distinct time weights and
    # profiles; the first is (1 + t) sin(pi x) on every mode; ``n`` is one
    # cell count or one per mode
    if b0 is None:
        b0 = np.eye(d) + 0.25 * (np.ones((d, d)) - np.eye(d))
    b1 = 0.1 * np.eye(d)
    from ttdlra.fem import SourceTerm

    shapes = (lambda x: np.sin(np.pi * x), lambda x: x * (1.0 - x), lambda x: np.cos(np.pi * x))
    weights = (lambda t: 1.0 + t, lambda t: 0.5 - 2.0 * t, lambda t: -0.3 + t * t)
    srcs = tuple(
        SourceTerm(time_coeff=weights[j], profiles=tuple(shapes[j * m % 3] for m in range(d)))
        for j in range(sources)
    )
    terms = [
        (1.0, [lambda x: np.sin(np.pi * x)] * d),
        (0.4, [lambda x: np.sin(2 * np.pi * x)] * d),
    ]
    return heat_problem(
        d,
        n,
        tt_ranks,
        b0=b0,
        b1=b1,
        sources=srcs,
        initial_terms=terms,
        outer_ranks=outer,
        t_end=t_end,
    )


# ---------------------------------------------------------------------------
# matrix-free Galerkin operator, source projection and CG against the
# dense-basis oracle
# ---------------------------------------------------------------------------

# (d, cells, outer ranks, train ranks or None for a plain Tucker core); with
# 5 cells the modes have 4 entries, so rank 4 leaves an empty Qperp block and
# rank 3 has 2r > n; the d = 4 cases take the operator's couplings beyond
# three modes.  The matvec batches runs of modes with one mesh, outer rank
# and count of distinct factors: the last three cases are one run of three
# modes, three runs broken at the mesh, and runs [0] and [1, 2] broken at
# the factor count, as no two-mode term reaches mode 0 (``ORACLE_B0``)
ORACLE_CASES = [
    (3, 6, (2, 3, 2), (2, 2)),
    (2, 8, (2, 2), (2,)),
    (3, 5, (2, 4, 2), (2, 2)),
    (3, 5, (4, 3, 2), None),
    (3, 5, (2, 3, 3), None),
    (2, 5, (3, 3), None),
    (4, 5, (2, 3, 3, 2), (2, 2, 2)),
    (4, 5, (2, 4, 2, 3), None),
    (3, 6, (2, 2, 2), (2, 2)),
    (3, (5, 6, 5), (2, 2, 2), (2, 2)),
    (3, 7, (2, 2, 2), (2, 2)),
]

# b0 of the cases that do not use anisotropic_problem's
ORACLE_B0 = {(3, 7, (2, 2, 2), (2, 2)): [[1.0, 0.0, 0.0], [0.0, 1.0, 0.25], [0.0, 0.25, 1.0]]}


def oracle_problem(d, cells, outer, tt_ranks, sources=0):
    """The ``anisotropic_problem`` of an ``ORACLE_CASES`` entry."""
    b0 = ORACLE_B0.get((d, cells, outer, tt_ranks))
    return anisotropic_problem(d=d, n=cells, tt_ranks=(2,) * (d - 1), sources=sources, b0=b0)


# CG iterations to CG_RTOL at tau = 1e-3, 1e-2 and 10 per ORACLE_CASES entry
CG_TAUS = (1e-3, 1e-2, 10.0)
CG_ITERATIONS = dict(
    zip(
        ORACLE_CASES,
        [
            (11, 16, 18),
            (11, 13, 14),
            (8, 12, 14),
            (9, 13, 15),
            (9, 14, 16),
            (9, 13, 13),
            (9, 12, 13),
            (9, 12, 14),
            (10, 14, 15),
            (9, 13, 16),
            (11, 14, 15),
        ],
    )
)


def term_by_term(basis, op, x):
    """Test-local ``V^T A V x``: each term's images of the factors of
    ``basis.tucker(x)``, projected by ``coords_of_tucker`` and summed."""
    core, factors = basis.tucker(x)
    total = 0.0
    for term in op.terms:
        mats = dict(term.factors)
        images = [mats[m] @ w if m in mats else w for m, w in enumerate(factors)]
        total = total + term.coeff * basis.coords_of_tucker(core, images)
    return total


def assert_term_by_term(basis, op, x):
    want = term_by_term(basis, op, x)
    assert np.max(np.abs(tangent_operator(basis, op)(x) - want)) <= 1e-13 * np.abs(want).max()


def oracle_system(basis, op):
    """Desk-size ``V^T A V`` built column by column from the matvec, the
    dense oracle, and the point image from both.  ``V^T A V`` is taken in the
    orthonormal coordinates of ``ambient_matrix``: the matvec acts on their
    gauge vectors, the columns of ``gauge_frame``; the point image is in gauge
    coordinates."""
    vmat = basis.ambient_matrix()
    frame = gauge_frame(basis)
    amat = kron_matrix(op)
    matvec = tangent_operator(basis, op)
    h = frame.T @ np.column_stack([matvec(e) for e in frame.T])
    u = point_to_dense(basis.point)
    # u lies in its own tangent space, so the image of A u is the matvec at u
    au = matvec(basis.project_coords(u))
    return h, vmat.T @ amat @ vmat, au, frame @ (vmat.T @ (amat @ u.data))


def assert_oracle_system(basis, op):
    h, h_oracle, au, au_oracle = oracle_system(basis, op)
    assert np.max(np.abs(h - h_oracle)) <= 1e-10 * max(1.0, np.abs(h_oracle).max())
    np.testing.assert_allclose(au, au_oracle, atol=1e-10 * max(1.0, np.abs(au_oracle).max()))


def test_reduced_system_matches_dense_basis_oracle(rng):
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2))
    op = problem.operator(0.05)
    for _ in range(3):
        p = random_point(rng, problem.dims, (2, 3, 2), tt_ranks=(2, 2))
        basis = TangentBasis(p)
        assert_oracle_system(basis, op)
        quad = operator_quadratic_form(basis, op)
        x = point_to_dense(p).data
        np.testing.assert_allclose(quad, x @ kron_matrix(op) @ x, rtol=1e-10)


@pytest.mark.parametrize("d, cells, outer, tt_ranks", ORACLE_CASES)
def test_matvec_and_source_match_dense_basis_oracle(rng, d, cells, outer, tt_ranks):
    problem = oracle_problem(d, cells, outer, tt_ranks)
    p = random_point(rng, problem.dims, outer, tt_ranks=tt_ranks)
    basis = TangentBasis(p)
    assert_oracle_system(basis, problem.operator(0.05))
    for n_terms in (1, 3):
        problem = oracle_problem(d, cells, outer, tt_ranks, sources=n_terms)
        f = problem.source_factors(0.05)
        oracle = gauge_frame(basis) @ (basis.ambient_matrix().T @ source_dense(f).data)
        np.testing.assert_allclose(_source_coords(basis, f), oracle, atol=1e-12)


def test_reduced_rhs_matches_dense_basis_oracle(rng):
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2), sources=1)
    f = problem.source_factors(0.3)
    p = random_point(rng, problem.dims, (2, 3, 2), tt_ranks=(2, 2))
    basis = TangentBasis(p)
    vmat = basis.ambient_matrix()
    z = source_dense(f)
    oracle = gauge_frame(basis) @ (vmat.T @ z.data)
    np.testing.assert_allclose(_source_coords(basis, f), oracle, atol=1e-12)
    np.testing.assert_allclose(basis.project_coords(z), oracle, atol=1e-12)


def test_two_mode_reduced_system_oracle(rng):
    problem = anisotropic_problem(d=2, n=8, tt_ranks=(2,))
    op = problem.operator(0.0)
    p = random_point(rng, problem.dims, (2, 2), tt_ranks=(2,))
    assert_oracle_system(TangentBasis(p), op)


@pytest.mark.parametrize("d, cells, outer, tt_ranks", ORACLE_CASES)
def test_cg_matches_dense_solve(rng, d, cells, outer, tt_ranks):
    # one source term and three: the operator is the same, the right-hand side not
    problem = oracle_problem(d, cells, outer, tt_ranks)
    op = problem.operator(0.05)
    p = random_point(rng, problem.dims, outer, tt_ranks=tt_ranks)
    basis = TangentBasis(p)
    _, h_oracle, au, _ = oracle_system(basis, op)
    matvec = tangent_operator(basis, op)
    frame = gauge_frame(basis)
    for n_terms in (1, 3):
        problem = oracle_problem(d, cells, outer, tt_ranks, sources=n_terms)
        b = _source_coords(basis, problem.source_factors(0.05)) - au
        for tau, pinned in zip(CG_TAUS, CG_ITERATIONS[d, cells, outer, tt_ranks]):
            precond = _preconditioner(basis, op, tau, matvec)
            x, iterations = _pcg(lambda y: y / tau + matvec(y), precond, b)
            dense = frame @ np.linalg.solve(np.eye(basis.dim) / tau + h_oracle, frame.T @ b)
            assert iterations == pinned, n_terms
            assert np.linalg.norm(x - dense) <= 1e-10 * np.linalg.norm(dense)


def test_pcg_scales_its_right_hand_side_exactly(rng):
    a = rng.standard_normal((12, 12))
    a = a @ a.T + 12.0 * np.eye(12)
    apply, precond = (lambda y: a @ y), (lambda y: y / np.diag(a))
    b = rng.standard_normal(12)
    x, iterations = _pcg(apply, precond, b)
    assert np.linalg.norm(a @ x - b) <= 1e-11 * np.linalg.norm(b)
    # a power of two scales every CG quantity exactly
    for k in (-900, -40, 40, 900):
        xk, ik = _pcg(apply, precond, np.ldexp(b, k))
        assert ik == iterations and np.array_equal(xk, np.ldexp(x, k))
    # entries near 1e-300 square to zero: unscaled, CG read |b| = 0 and
    # returned x = 0 without an iteration
    tiny, iterations = _pcg(apply, precond, 1e-300 * b)
    assert iterations > 0
    assert np.linalg.norm(1e300 * tiny - x) <= 1e-12 * np.linalg.norm(x)


def test_matvec_with_repeated_and_equal_term_matrices(rng):
    # terms that share one factor object, terms with equal but distinct
    # factors, and a mode no term acts on: the matvec groups each mode's
    # distinct factors, and every grouping must give the same operator
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2))
    disc = problem.disc
    k0, t1 = disc.stiffness[0], disc.transfer[1]
    p = random_point(rng, problem.dims, (2, 3, 2), tt_ranks=(2, 2))
    basis = TangentBasis(p)
    shared = TTOperator(
        problem.dims,
        (
            OperatorTerm(1.0, ((0, k0),)),
            OperatorTerm(0.5, ((0, k0),)),
            OperatorTerm(0.3, ((0, k0), (1, t1))),
            OperatorTerm(-0.2, ((1, t1),)),
        ),
    )
    copies = TTOperator(
        problem.dims,
        tuple(
            OperatorTerm(
                t.coeff, tuple((m, ModeFactor(f.rows.copy(), f.fem)) for m, f in t.factors)
            )
            for t in shared.terms
        ),
    )
    assert_oracle_system(basis, shared)
    assert_oracle_system(basis, copies)
    x = gauge_frame(basis) @ rng.standard_normal(basis.dim)
    a, b = tangent_operator(basis, shared)(x), tangent_operator(basis, copies)(x)
    assert np.max(np.abs(a - b)) <= 1e-13 * np.abs(a).max()
    assert_term_by_term(basis, shared, x)
    assert_term_by_term(basis, copies, x)


@pytest.mark.parametrize("d, cells, outer, tt_ranks", ORACLE_CASES)
def test_matvec_matches_term_by_term_projection(rng, d, cells, outer, tt_ranks):
    # at a random gauge vector and at the point's own coordinates
    problem = oracle_problem(d, cells, outer, tt_ranks)
    p = random_point(rng, problem.dims, outer, tt_ranks=tt_ranks)
    basis = TangentBasis(p)
    op = problem.operator(0.05)
    assert_term_by_term(basis, op, gauge_frame(basis) @ rng.standard_normal(basis.dim))
    assert_term_by_term(basis, op, basis.project_coords(point_to_dense(p)))


def test_term_on_three_modes_is_rejected():
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2))
    op = TTOperator(
        problem.dims, (OperatorTerm(1.0, tuple(enumerate(problem.disc.stiffness))),)
    )
    with pytest.raises(InvalidArgumentError, match="at most two modes"):
        tangent_operator(TangentBasis(problem.u0), op)


@pytest.mark.parametrize("outer, tt_ranks", [((2, 3, 2), (2, 2)), ((2, 3, 2), None)])
def test_matvec_builds_no_dense_tensor(rng, monkeypatch, outer, tt_ranks):
    # the matvec contracts no core: no DenseTensor, no re-expansion of the
    # train core, no Tucker form of the tangent vector and no mode product
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2))
    p = random_point(rng, problem.dims, outer, tt_ranks=tt_ranks)
    basis = TangentBasis(p)
    matvec = tangent_operator(basis, problem.operator(0.05))
    x = rng.standard_normal(sum(basis.block_sizes))
    constructed = []
    post_init = DenseTensor.__post_init__

    def counted_post_init(self):
        constructed.append(self)
        post_init(self)

    monkeypatch.setattr(DenseTensor, "__post_init__", counted_post_init)
    tuckers = []
    tucker = TangentBasis.tucker
    monkeypatch.setattr(TangentBasis, "tucker", lambda b, c: tuckers.append(c) or tucker(b, c))
    calls = count_calls(monkeypatch, tt, "tt_to_dense")
    products = count_calls(monkeypatch, tangent, "_multiply_modes")
    matvec(x)
    assert not constructed and calls == {"tt_to_dense": 0}
    assert products == {"_multiply_modes": 0} and not tuckers


@pytest.mark.parametrize(
    "case, runs", zip(ORACLE_CASES[-3:], ([[0, 1, 2]], [[0], [1], [2]], [[0], [1, 2]]))
)
def test_matvec_takes_two_banded_solves_per_run(rng, monkeypatch, case, runs):
    # one run of three equal modes, three runs broken at the mesh, and two
    # broken at the factor count: two dtbtrs calls per run, not per mode
    d, cells, outer, tt_ranks = case
    problem = oracle_problem(*case)
    basis = TangentBasis(random_point(rng, problem.dims, outer, tt_ranks=tt_ranks))
    matvec = tangent_operator(basis, problem.operator(0.05))
    assert [run.modes for run in matvec.runs] == runs
    x = gauge_frame(basis) @ rng.standard_normal(basis.dim)
    calls, dtbtrs = [], fem._lapack().dtbtrs
    counted = lambda *args, **kwargs: calls.append(args) or dtbtrs(*args, **kwargs)  # noqa: E731
    monkeypatch.setattr(fem._lapack(), "dtbtrs", counted)
    matvec(x)
    assert len(calls) == 2 * len(runs)


def oracle_preconditioner(basis, op, tau):
    """The dense block inverse, in gauge coordinates: in the orthonormal
    coordinates of ambient_matrix, on the core block the inverse of the dense
    Galerkin core block of I/tau + A; on mode block m the inverse of the dense
    Galerkin block of I/tau plus the terms that do not couple m with another
    mode; gauge_frame maps both to gauge coordinates."""
    p = basis.point
    vmat = basis.ambient_matrix()
    sizes = [basis.block_sizes[0]] + [(n - r) * r for n, r in zip(p.dims, p.outer_ranks)]
    cols = np.split(vmat, np.cumsum(sizes)[:-1], axis=1)
    def off_pairs(m):  # the terms that do not couple m with another mode
        return tuple(t for t in op.terms if len(t.factors) == 1 or m not in dict(t.factors))

    kept = [op] + [TTOperator(op.dims, off_pairs(m)) for m in range(p.ndim)]
    blocks = [
        np.linalg.inv(np.eye(size) / tau + c.T @ kron_matrix(part) @ c)
        for size, c, part in zip(sizes, cols, kept)
    ]
    frame = gauge_frame(basis)
    return frame @ scipy.linalg.block_diag(*blocks) @ frame.T


def congruence_matrix(basis, problem):
    """Dense ``T = diag(I, I_r (x) L_0^T, ...)`` of the gauge coordinates, from
    the dense Cholesky factor ``L_m`` of each mode's P1 mass matrix: the map
    from nodal coefficients to gauge coordinates."""
    blocks = [np.eye(basis.block_sizes[0])]
    for fem1d, r in zip(problem.disc.fems, basis.point.outer_ranks):
        mass, _, _ = p1_matrices(fem1d.n_cells)
        blocks.append(np.kron(np.eye(r), np.linalg.cholesky(mass).T))
    return scipy.linalg.block_diag(*blocks)


@pytest.mark.parametrize(
    "d, cells, outer, tt_ranks",
    [(3, 6, (2, 3, 2), (2, 2)), (3, 5, (2, 4, 2), (2, 2)), (2, 5, (3, 3), None)] + ORACLE_CASES[-3:],
)
def test_preconditioner_is_explicit_block_inverse(rng, d, cells, outer, tt_ranks):
    # a rank-4 mode of a 5-cell grid has an empty block
    problem = oracle_problem(d, cells, outer, tt_ranks)
    op = problem.operator(0.05)
    p = random_point(rng, problem.dims, outer, tt_ranks=tt_ranks)
    basis = TangentBasis(p)
    tau = 1e-2
    oracle = oracle_preconditioner(basis, op, tau)
    apply = _preconditioner(basis, op, tau, tangent_operator(basis, op))
    got = np.column_stack([apply(e) for e in np.eye(sum(basis.block_sizes))])
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("d, cells, outer, tt_ranks", ORACLE_CASES)
def test_nodal_apply_and_preconditioner_are_the_congruences(rng, d, cells, outer, tt_ranks):
    # on the nodal gauge vectors T^-1 frame the nodal apply is
    # T^T (I/tau + H) T, with H = frame h frame^T from oracle_system's dense
    # h, and the nodal preconditioner is T^-1 P T^-T, with P the dense block
    # inverse; T is built from dense Cholesky factors
    problem = oracle_problem(d, cells, outer, tt_ranks)
    op = problem.operator(0.05)
    basis = TangentBasis(random_point(rng, problem.dims, outer, tt_ranks=tt_ranks))
    _, h_oracle, _, _ = oracle_system(basis, op)
    frame, tmat = gauge_frame(basis), congruence_matrix(basis, problem)
    tinv = np.linalg.inv(tmat)
    matvec = tangent_operator(basis, op)
    for tau in CG_TAUS:
        # T (T^-1 frame) = frame, and I/tau + H maps frame to frame (I/tau + h)
        want = tmat.T @ frame @ (np.eye(basis.dim) / tau + h_oracle)
        got = np.column_stack([matvec.nodal(f, 1.0 / tau) for f in (tinv @ frame).T])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max(), tau
        want = tinv @ oracle_preconditioner(basis, op, tau) @ tinv.T
        precond = _preconditioner(basis, op, tau, matvec).nodal
        got = np.column_stack([precond(e) for e in np.eye(len(tmat))])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max(), tau


@pytest.mark.parametrize("case", ORACLE_CASES[-3:])
def test_nodal_apply_and_preconditioner_take_no_banded_solve(rng, monkeypatch, case):
    d, cells, outer, tt_ranks = case
    problem = oracle_problem(*case)
    op = problem.operator(0.05)
    basis = TangentBasis(random_point(rng, problem.dims, outer, tt_ranks=tt_ranks))
    matvec = tangent_operator(basis, op)
    precond = _preconditioner(basis, op, 1e-2, matvec).nodal
    gauge = gauge_frame(basis) @ rng.standard_normal(basis.dim)
    x = np.linalg.solve(congruence_matrix(basis, problem), gauge)  # a nodal gauge vector
    calls, dtbtrs = [], fem._lapack().dtbtrs
    counted = lambda *args, **kwargs: calls.append(args) or dtbtrs(*args, **kwargs)  # noqa: E731
    monkeypatch.setattr(fem._lapack(), "dtbtrs", counted)
    matvec.nodal(x)
    matvec.nodal(x, 1e2)
    precond(matvec.nodal(x, 1e2))
    assert calls == []


@pytest.mark.parametrize("d, cells, outer, tt_ranks", ORACLE_CASES)
def test_nodal_cg_takes_the_gauge_coordinate_iterations(rng, d, cells, outer, tt_ranks):
    # the step's CG on T^T b, stopping on |T^-T r|, against CG in gauge
    # coordinates on the systems of test_cg_matches_dense_solve: the pinned
    # iteration counts, and T phi is its solution
    problem = oracle_problem(d, cells, outer, tt_ranks)
    op = problem.operator(0.05)
    p = random_point(rng, problem.dims, outer, tt_ranks=tt_ranks)
    basis = TangentBasis(p)
    matvec = tangent_operator(basis, op)
    au = matvec(basis.project_coords(point_to_dense(p)))
    for n_terms in (1, 3):
        problem = oracle_problem(d, cells, outer, tt_ranks, sources=n_terms)
        b = _source_coords(basis, problem.source_factors(0.05)) - au
        for tau, pinned in zip(CG_TAUS, CG_ITERATIONS[d, cells, outer, tt_ranks]):
            precond = _preconditioner(basis, op, tau, matvec)
            x, iterations = _pcg(lambda y: y / tau + matvec(y), precond, b)
            phi, nodal_iterations = _pcg(
                lambda y: matvec.nodal(y, 1.0 / tau),
                precond.nodal,
                matvec.congruence(b, chol_matmul, "N"),
                *matvec.dual_norms,
            )
            assert nodal_iterations == iterations == pinned, (n_terms, tau)
            theta = matvec.congruence(phi, chol_matmul, "T")
            assert np.linalg.norm(theta - x) <= 1e-12 * np.linalg.norm(x)


# the pe3d_n128 benchmark workload's problem
PE3D_N128 = {
    "dims": 3,
    "cells": 128,
    "b0": [[1.0 if i == j else 0.25 for j in range(3)] for i in range(3)],
    "t_end": 0.003,
    "tau": 0.001,
    "tt_ranks": [3, 3],
    "initial": [
        {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * 3}
        for c, k in ((1.0, 1), (0.5, 2), (0.25, 3))
    ],
    "sources": [{"time_poly": [1.0], "profiles": ["constant"] * 3}],
}


def test_step_takes_at_most_seven_banded_solves(monkeypatch):
    # one for the nodal factors L^-T U, one for |T^-T b|, one per exact
    # residual norm of CG (one, as the weighted bound is close), one for the
    # tangent residual and one per mode for the energy a(u, u)
    problem, _ = problem_from_config(PE3D_N128)
    state = state_from_point(problem.u0, 0.0, problem.disc)
    calls, dtbtrs = [], fem._lapack().dtbtrs
    counted = lambda *args, **kwargs: calls.append(args) or dtbtrs(*args, **kwargs)  # noqa: E731
    monkeypatch.setattr(fem._lapack(), "dtbtrs", counted)
    for _ in range(3):
        del calls[:]
        state = step_projected_implicit_euler(state, 0.001, problem)
        assert len(calls) <= 7
        assert state.tangent_residual <= 1e-12


def test_non_finite_galerkin_solution_is_a_breakdown(monkeypatch):
    # a NaN solution of the step's CG ends the run as a breakdown at the
    # first step, with the initial state's gap
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2))
    monkeypatch.setattr(integrate, "_pcg", lambda apply, precond, b, *norms: (np.nan * b, 1))
    state = state_from_point(problem.u0, 0.0, problem.disc)
    with pytest.raises(BreakdownError, match="Galerkin solve") as caught:
        step_projected_implicit_euler(state, 0.01, problem)
    assert caught.value.gap == state.gap
    tr = solve(problem, "projected_euler", tau=0.01, t_end=0.1)
    assert len(tr.states) == 1 and tr.breakdown == BreakdownRecord(time=0.01, gap=state.gap)


def test_step_times_are_exact_multiples_of_tau():
    # accumulating t + tau gives 0.9999999999999999 after ten steps of 0.1
    problem = heat_problem(2, 8, (2,), t_end=1.0)
    for scheme in ("projected_euler", "projector_splitting"):
        tr = solve(problem, scheme, tau=0.1, t_end=1.0)
        assert tr.states[-1].time == 1.0
        assert list(tr.times) == [k * 0.1 for k in range(11)]


def test_step_takes_each_core_spectrum_once(monkeypatch):
    # the step measures its new point once: one expansion of the new core,
    # d mode-unfolding SVDs, one frame of the train core (its two QR sweeps)
    # and, read off that frame, the spectra of the interior interfaces only
    # (the end interfaces are the mode-0 and mode-(d-1) unfoldings): none at
    # d = 3, one at d = 4.  The state's gap, norm and energies and the next
    # step's basis read that measurement
    from ttdlra import manifold

    for d, interior in ((3, []), (4, [(2, 2)])):
        problem = anisotropic_problem(d=d, n=6, tt_ranks=(2,) * (d - 1), sources=1)
        state = state_from_point(problem.u0, 0.0, problem.disc)
        read = []
        with monkeypatch.context() as patch:
            tt_calls = count_calls(patch, tt, "_frame", "tt_to_dense")
            svd_calls = count_calls(patch, dense, "svd")
            svds = manifold._svd
            patch.setattr(manifold, "_svd", lambda k, mode: read.append(k.shape) or svds(k, mode))
            new = step_projected_implicit_euler(state, 1e-3, problem)
            TangentBasis(new.point)
        assert tt_calls == {"_frame": 1, "tt_to_dense": 1}
        assert svd_calls == {"svd": d}
        assert read == interior


def test_projected_step_takes_each_train_qr_once(monkeypatch):
    # one frame of the new core is the step's only QR sweep of a train, which
    # the next basis reads; the other QRs are the retraction's, one per
    # factor.  With the spectra and the basis taking sweeps of their own, a
    # step took 7, 21 and 36 QRs at d = 3, 5 and 8
    for d, qrs in ((3, 7), (5, 13), (8, 22)):
        problem, _ = problem_from_config(
            {
                "dims": d,
                "cells": 16,
                "b0": [[1.0 if i == j else 0.25 for j in range(d)] for i in range(d)],
                "t_end": 1e-3,
                "tt_ranks": [3] * (d - 1),
                "initial": [
                    {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * d}
                    for c, k in ((1.0, 1), (0.5, 2), (0.25, 3))
                ],
                "sources": [{"time_poly": [1.0], "profiles": ["constant"] * d}],
            }
        )
        state = state_from_point(problem.u0, 0.0, problem.disc)
        with monkeypatch.context() as patch:
            calls = count_calls(patch, dense, "_qr")
            TangentBasis(step_projected_implicit_euler(state, 1e-3, problem).point)
        assert calls == {"_qr": qrs}, d


def test_step_residuals_and_memory_below_dense_system():
    # a 127^3 grid, outer ranks (3, 3, 3): 1143 tangent coordinates
    problem, _ = problem_from_config(
        {
            "dims": 3,
            "cells": 128,
            "t_end": 0.002,
            "tt_ranks": [3, 3],
            "initial": [
                {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * 3}
                for c, k in ((1.0, 1), (0.5, 2), (0.25, 3))
            ],
            "sources": [{"time_poly": [1.0], "profiles": ["constant"] * 3}],
        }
    )
    dim = TangentBasis(problem.u0).dim
    assert dim == 1143
    state = state_from_point(problem.u0, 0.0, problem.disc)
    tracemalloc.start()
    try:
        state = step_projected_implicit_euler(state, 0.001, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense Galerkin matrix alone would take dim^2 doubles
    assert peak < dim * dim * 8
    state = step_projected_implicit_euler(state, 0.001, problem)
    assert state.tangent_residual <= 1e-12


def test_setup_and_step_memory_below_one_mode_matrix():
    # 1023 nodes per mode: the banded operators, gauge-form blocks and banded
    # preconditioner keep the set-up and a step below one n x n double array
    cfg = {
        "dims": 3,
        "cells": 1024,
        "t_end": 0.001,
        "tau": 0.001,
        "tt_ranks": [3, 3],
        "initial": [
            {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * 3}
            for c, k in ((1.0, 1), (0.5, 2), (0.25, 3))
        ],
        "sources": [{"time_poly": [1.0], "profiles": ["constant"] * 3}],
    }
    tracemalloc.start()
    try:
        problem, _ = problem_from_config(cfg)
        state = state_from_point(problem.u0, 0.0, problem.disc)
        state = step_projected_implicit_euler(state, 0.001, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1023 * 1023 * 8
    assert state.tangent_residual <= 1e-12


# ---------------------------------------------------------------------------
# projected implicit Euler
# ---------------------------------------------------------------------------


def test_dissipation_zero_source(rng):
    problem = anisotropic_problem(d=2, n=8, tt_ranks=(2,), t_end=0.2)
    tr = solve(problem, "projected_euler", tau=0.01, t_end=0.2)
    assert tr.breakdown is None
    norms = [np.sqrt(s.energy_l2) for s in tr.states]
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a * (1 + 1e-12)
    assert all(s.tangent_residual <= 1e-8 for s in tr.states)
    rep = energy_report(tr, problem)
    assert rep.dissipation_ok is True
    assert not rep.growth_suspected


def test_small_step_consistency(rng):
    problem = anisotropic_problem(d=2, n=8, tt_ranks=(2,))
    state = state_from_point(problem.u0, 0.0, problem.disc)
    tau = 1e-6
    new = step_projected_implicit_euler(state, tau, problem)
    delta = (point_to_dense(new.point) - point_to_dense(state.point)).norm()
    op = problem.operator(0.0)
    scale = op.apply(point_to_dense(state.point)).norm()
    assert delta <= 10 * tau * scale


def test_full_rank_matches_dense_reference(rng):
    # with maximal ranks the tangent space is the whole space
    n = 8
    d = 2
    freqs = range(1, 8)
    terms = [
        (0.6**j, [(lambda k: (lambda x: np.sin(k * np.pi * x)))(j)] * d)
        for j in freqs
    ]
    problem = heat_problem(
        d,
        n,
        tt_ranks=(7,),
        b0=np.array([[1.0, 0.3], [0.3, 1.0]]),
        initial_terms=terms,
        outer_ranks=(7, 7),
        t_end=0.05,
    )
    tau = 0.005
    tr = solve(problem, "projected_euler", tau=tau, t_end=0.05)
    times, dense_states = dense_implicit_euler(problem, tau, 0.05)
    assert tr.breakdown is None
    terminal = point_to_dense(tr.states[-1].point)
    ref = dense_states[-1]
    assert (terminal - ref).norm() <= 1e-8 * ref.norm()


def test_linearity_at_full_rank(rng):
    n = 6
    freqs = range(1, 6)
    terms = [
        (0.5**j, [(lambda k: (lambda x: np.sin(k * np.pi * x)))(j)] * 2)
        for j in freqs
    ]
    from ttdlra.fem import SourceTerm

    src = SourceTerm(time_coeff=1.0, profiles=(lambda x: 1.0, lambda x: 1.0))
    base = dict(
        tt_ranks=(5,),
        b0=np.array([[1.0, 0.2], [0.2, 1.0]]),
        outer_ranks=(5, 5),
        t_end=0.04,
    )
    p1 = heat_problem(2, n, sources=(src,), initial_terms=terms, **base)
    terms2 = [(2 * c, fs) for c, fs in terms]
    src2 = SourceTerm(time_coeff=2.0, profiles=(lambda x: 1.0, lambda x: 1.0))
    p2 = heat_problem(2, n, sources=(src2,), initial_terms=terms2, **base)
    t1 = solve(p1, "projected_euler", tau=0.004, t_end=0.04)
    t2 = solve(p2, "projected_euler", tau=0.004, t_end=0.04)
    for s1, s2 in zip(t1.states, t2.states):
        a = point_to_dense(s1.point)
        b = point_to_dense(s2.point)
        assert (2.0 * a - b).norm() <= 1e-8 * b.norm()


def test_step_size_convergence_first_order(rng):
    problem = anisotropic_problem(d=2, n=8, tt_ranks=(2,), t_end=0.08)
    ref = solve(problem, "projected_euler", tau=0.08 / 128, t_end=0.08)
    ref_term = point_to_dense(ref.states[-1].point)
    errors = []
    for tau in (0.08 / 8, 0.08 / 16):
        tr = solve(problem, "projected_euler", tau=tau, t_end=0.08)
        errors.append((point_to_dense(tr.states[-1].point) - ref_term).norm())
    ratio = errors[0] / errors[1]
    assert 1.7 <= ratio <= 2.3


# ---------------------------------------------------------------------------
# projector splitting sweep
# ---------------------------------------------------------------------------


def test_splitting_close_to_projected_euler(rng):
    # both schemes are consistent with the same projected flow, so one step
    # differs by O(tau^2); halving tau shrinks the gap by about four
    problem = anisotropic_problem(d=2, n=8, tt_ranks=(2,))
    state = state_from_point(problem.u0, 0.0, problem.disc)
    gaps = []
    # step sizes below the stiffness scale so the tau^2 regime is visible
    for tau in (5e-4, 2.5e-4):
        a = step_projected_implicit_euler(state, tau, problem)
        b = step_projector_splitting(state, tau, problem)
        gaps.append((point_to_dense(a.point) - point_to_dense(b.point)).norm())
    ratio = gaps[0] / gaps[1]
    assert 2.5 <= ratio <= 6.0


def test_splitting_zero_source_decay(rng):
    problem = anisotropic_problem(d=2, n=8, tt_ranks=(2,), t_end=0.1)
    tr = solve(problem, "projector_splitting", tau=0.005, t_end=0.1)
    norms = [np.sqrt(s.energy_l2) for s in tr.states]
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a * (1 + 1e-10)


def test_splitting_zero_source_dissipation_not_checked():
    # splitting steps record no dissipation form: the flag reads "not
    # checked", not "violated", while the energy still falls
    config = {
        "dims": 2,
        "cells": 8,
        "tt_ranks": [1],
        "outer_ranks": "auto",
        "scheme": "projector_splitting",
        "initial": [{"profiles": [{"kind": "sine", "frequency": 1}] * 2}],
    }
    problem, opts = problem_from_config(config)
    tr = solve(problem, opts["scheme"], opts["tau"], opts["t_end"])
    assert all(np.isnan(s.dissipation_form) for s in tr.states[1:])
    rep = energy_report(tr, problem)
    assert rep.data_f_integral == 0.0
    assert rep.dissipation_ok is None
    assert rep.l2_terminal < rep.data_l2_initial


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("with_source", [False, True])
def test_splitting_full_rank_three_modes_is_implicit_euler(n, with_source):
    # train ranks (n, n) on n^3: the manifold is open in the whole space
    from ttdlra.fem import SourceTerm

    d = 3
    sine = lambda k: (lambda x: np.sin(k * np.pi * x))  # noqa: E731
    sources = ()
    if with_source:  # two terms: the sweep's source environments are k x 2
        profiles = (sine(1), sine(2), lambda x: 1.0)
        sources = (
            SourceTerm(time_coeff=lambda t: 1.0 + t, profiles=profiles),
            SourceTerm(time_coeff=lambda t: 0.5 - 3.0 * t, profiles=(lambda x: x * (1.0 - x),) * d),
        )
    problem = heat_problem(
        d,
        n + 1,
        tt_ranks=(n, n),
        b0=np.eye(d) + 0.25 * (np.ones((d, d)) - np.eye(d)),
        b1=0.1 * np.eye(d),
        sources=sources,
        initial_terms=[(0.7**k, [sine(k)] * d) for k in range(1, n + 1)],
        t_end=0.02,
    )
    assert problem.u0.outer_ranks == (n, n, n)
    tr = solve(problem, "projector_splitting", tau=0.005, t_end=0.02)
    _, dense_states = dense_implicit_euler(problem, 0.005, 0.02)
    assert tr.breakdown is None and len(tr.states) == len(dense_states)
    for s, ref in zip(tr.states, dense_states):
        assert (point_to_dense(s.point) - ref).norm() <= 1e-12 * ref.norm()


def test_splitting_close_to_projected_euler_three_modes(rng):
    # train ranks (2, 2) with the generic outer ranks (2, 4, 2): the one-step
    # gap between the schemes is O(tau^2)
    problem = anisotropic_problem(d=3, n=8, tt_ranks=(2, 2))
    p = random_point(rng, problem.dims, (2, 4, 2), tt_ranks=(2, 2))
    state = state_from_point(p, 0.0, problem.disc)
    gaps = []
    for tau in (5e-4, 2.5e-4, 1.25e-4):
        a = step_projected_implicit_euler(state, tau, problem)
        b = step_projector_splitting(state, tau, problem)
        gaps.append((point_to_dense(a.point) - point_to_dense(b.point)).norm())
    assert gaps[0] / gaps[1] > 3.0
    assert gaps[1] / gaps[2] > 3.0


def test_splitting_requires_generic_outer_ranks(rng):
    # two diagonal initial terms give mode ranks (2, 2, 2), below the generic (2, 4, 2)
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2))
    state = state_from_point(problem.u0, 0.0, problem.disc)
    with pytest.raises(InvalidArgumentError):
        step_projector_splitting(state, 0.01, problem)


# ---------------------------------------------------------------------------
# monitoring, breakdown, and reports
# ---------------------------------------------------------------------------


def test_zero_horizon_trajectory(rng):
    problem = anisotropic_problem(d=2, n=6, tt_ranks=(2,))
    tr = solve(problem, "projected_euler", tau=0.01, t_end=0.0)
    assert len(tr.states) == 1
    assert tr.states[0].time == 0.0


def test_step_size_must_divide_horizon(monkeypatch):
    problem = heat_problem(2, 8, (2,), t_end=0.02)
    steps = []

    def counted(state, tau, problem):
        steps.append(state.time)
        return step_projected_implicit_euler(state, tau, problem)

    admits = integrate._SCHEMES["projected_euler"][1]
    monkeypatch.setitem(integrate._SCHEMES, "projected_euler", (counted, admits))
    with pytest.raises(InvalidArgumentError, match="does not divide"):
        solve(problem, "projected_euler", tau=0.003, t_end=0.02)
    assert steps == []
    with pytest.raises(InvalidArgumentError, match="does not divide"):
        dense_implicit_euler(problem, 0.003, 0.02)
    # a dividing step size still reaches the horizon exactly
    tr = solve(problem, "projected_euler", tau=0.004, t_end=0.02)
    assert len(steps) == 5 and tr.times[-1] == pytest.approx(0.02, rel=1e-12)


def test_dense_reference_rejects_oversize_grid():
    problem = heat_problem(2, 66, (2,), t_end=0.02)  # 65^2 = 4225 > AMBIENT_LIMIT
    with pytest.raises(OversizeError):
        dense_implicit_euler(problem, 0.01, 0.02)


def test_initial_gap_below_threshold_rejected(rng):
    problem = rank_collapse_problem(weight=1e-9)
    with pytest.raises(InvalidArgumentError):
        solve(problem, "projected_euler", tau=0.01, t_end=0.1)


def test_engineered_rank_collapse_breaks_down(rng):
    problem = rank_collapse_problem(n_cells=12, weight=0.15, t_end=0.4)
    tr = solve(problem, "projected_euler", tau=0.0025, t_end=0.4)
    assert tr.breakdown is not None
    final = tr.states[-1]
    assert tr.breakdown.time < 0.4
    assert final.gap <= BREAKDOWN_REL * np.sqrt(final.energy_l2)
    # every earlier state was accepted above the threshold
    for s in tr.states[:-1]:
        assert s.gap > BREAKDOWN_REL * np.sqrt(s.energy_l2)


def test_tiny_collapsing_state_breaks_down_like_unit_scale():
    # the gap is compared with the point's norm at the state's own scale:
    # where |u|^2 underflows (below about 1e-154) the threshold must not read 0
    import dataclasses

    problem = rank_collapse_problem()
    ref = solve(problem, "projected_euler", tau=0.01, t_end=problem.t_end)
    assert ref.breakdown is not None and ref.breakdown.time < problem.t_end
    for s in (1e-160, 1e-200, 1e-250):
        tiny = dataclasses.replace(problem, u0=scale_point(problem.u0, s))
        assert abs(tiny.u0.norm() / s - problem.u0.norm()) <= 1e-15 * problem.u0.norm(), s
        tr = solve(tiny, "projected_euler", tau=0.01, t_end=problem.t_end)
        assert tr.breakdown is not None and tr.breakdown.time == ref.breakdown.time, s
        assert abs(tr.breakdown.gap / s - ref.breakdown.gap) <= 1e-12 * ref.breakdown.gap, s
    # a gap that leaves the normal range is a breakdown: the basis never
    # divides by a subnormal singular value (which overflowed, then failed an SVD)
    for s in (1e-300, 1e-305):
        tiny = dataclasses.replace(problem, u0=scale_point(problem.u0, s))
        for tau in (0.01, 0.0025):
            tr = solve(tiny, "projected_euler", tau=tau, t_end=problem.t_end)
            assert tr.breakdown is not None and tr.breakdown.time < problem.t_end, (s, tau)


def test_gap_recorded_every_step(rng):
    problem = anisotropic_problem(d=2, n=6, tt_ranks=(2,), t_end=0.05)
    tr = solve(problem, "projected_euler", tau=0.005, t_end=0.05)
    assert len(tr.states) == 11
    assert all(s.gap > 0 for s in tr.states)
    assert np.all(np.diff(tr.times) > 0)


def test_energy_report_with_source(rng):
    problem = anisotropic_problem(d=2, n=6, tt_ranks=(2,), t_end=0.05, sources=1)
    tr = solve(problem, "projected_euler", tau=0.005, t_end=0.05)
    rep = energy_report(tr, problem)
    assert rep.data_f_integral > 0
    assert np.isfinite(rep.v_integral) and np.isfinite(rep.du_integral)
    assert not rep.growth_suspected


def test_zero_data_dense_reference_stays_zero():
    # the manifold excludes the origin, so the zero-data sanity check runs
    # against the unconstrained reference solver
    from ttdlra.dense import DenseTensor

    problem = anisotropic_problem(d=2, n=6, tt_ranks=(2,))
    size = int(np.prod(problem.dims))
    yvec = np.zeros(size)
    for n in range(5):
        op = problem.operator((n + 1) * 0.01)
        amat = np.zeros((size, size))
        for j in range(size):
            e = np.zeros(size)
            e[j] = 1.0
            amat[:, j] = op.apply(DenseTensor(problem.dims, e)).data
        yvec = np.linalg.solve(np.eye(size) + 0.01 * amat, yvec)
    assert np.linalg.norm(yvec) == 0.0


def test_energy_v_matches_dense_laplacian(rng):
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2))
    p = random_point(rng, problem.dims, (2, 3, 2), tt_ranks=(2, 2))
    state = state_from_point(p, 0.0, problem.disc)
    lap = laplacian_operator(problem.disc)
    x = point_to_dense(p)
    np.testing.assert_allclose(state.energy_v, inner(lap.apply(x), x), rtol=1e-10)
    np.testing.assert_allclose(state.energy_l2, x.norm() ** 2, rtol=1e-12)


# ---------------------------------------------------------------------------
# the step's recorded distance, scale equivariance, and the report's inputs
# ---------------------------------------------------------------------------


def assert_step_distance(old, new):
    want = tucker_distance(old.point.tucker(), new.point.tucker())
    assert want > 0 and abs(new.step_distance - want) <= 1e-12 * want


@pytest.mark.parametrize("d, cells, outer, tt_ranks", ORACLE_CASES)
def test_projected_step_distance_matches_tucker_distance(rng, d, cells, outer, tt_ranks):
    problem = oracle_problem(d, cells, outer, tt_ranks, sources=1)
    state = state_from_point(random_point(rng, problem.dims, outer, tt_ranks=tt_ranks), 0.0, problem.disc)
    assert np.isnan(state.step_distance)
    assert_step_distance(state, step_projected_implicit_euler(state, 1e-2, problem))


@pytest.mark.parametrize("d, outer, tt_ranks", [(2, (2, 2), (2,)), (3, (2, 4, 2), (2, 2))])
def test_splitting_step_distance_matches_tucker_distance(rng, d, outer, tt_ranks):
    problem = anisotropic_problem(d=d, n=8, tt_ranks=tt_ranks, sources=1)
    state = state_from_point(random_point(rng, problem.dims, outer, tt_ranks=tt_ranks), 0.0, problem.disc)
    for _ in range(3):
        new = step_projector_splitting(state, 1e-2, problem)
        assert_step_distance(state, new)
        state = new


def gauged_point(p, rng, condition):
    """``p`` with its train interfaces carried through ``interface_gauge`` and
    each factor rotated by a random orthogonal ``Q_m``, which the core absorbs
    on mode m: the same tensor in another gauge."""
    rotations = [random_orthonormal(rng, r, r) for r in p.outer_ranks]
    factors = [u @ q for u, q in zip(p.factors, rotations)]
    if not p.tt_core:
        core = _multiply_modes(p.expanded, [(m, q.T) for m, q in enumerate(rotations)])
        return make_point(core, factors)
    cores = interface_gauge(p.core, rng, condition).cores
    cores = [np.einsum("ij,ajb->aib", q.T, g) for q, g in zip(rotations, cores)]
    return make_point(TTTensor(tuple(cores)), factors)


@pytest.mark.parametrize("condition", [1.0, 2.0**30])
@pytest.mark.parametrize("d, cells, outer, tt_ranks", ORACLE_CASES)
def test_step_does_not_depend_on_the_gauge(rng, d, cells, outer, tt_ranks, condition):
    # interface transforms of condition 1 and 2^30 (about 1.1e9) and factor
    # rotations give the same tensor; each scheme steps it to the same tensor
    problem = oracle_problem(d, cells, outer, tt_ranks, sources=1)
    p = random_point(rng, problem.dims, outer, tt_ranks=tt_ranks)
    q = gauged_point(p, rng, condition)
    assert tucker_distance(p.tucker(), q.tucker()) <= 1e-13 * p.norm()
    for scheme, (step, admits) in integrate._SCHEMES.items():
        try:
            admits(p)
        except InvalidArgumentError:
            continue
        a, b = (step(state_from_point(x, 0.0, problem.disc), 1e-2, problem).point for x in (p, q))
        assert tucker_distance(a.tucker(), b.tucker()) <= 1e-10 * a.norm(), scheme


SCALES = (1e-300, 1e-200, 1e-165, 1e-160, 1e-150, 1e-100, 1.0, 1e100)
SCALES += (1e154, 1e160, 1e200, 1e300)  # energies that are not finite floats


@pytest.mark.parametrize("scheme", ["projected_euler", "projector_splitting"])
def test_zero_source_step_is_scale_equivariant(rng, scheme):
    # the zero-source step is linear: step(s u) = s step(u), also where the
    # squared norm of the state underflows (below about 1e-162), so points are
    # compared, not energies; the recorded distance, defect and residual are
    # norms taken at the data's scale, so they scale with s too; a state whose
    # energy is not a finite float (from about 1e154) is refused instead
    step = integrate._SCHEMES[scheme][0]
    problem = anisotropic_problem(d=3, n=16, tt_ranks=(2, 2))
    p = random_point(rng, problem.dims, (2, 4, 2), tt_ranks=(2, 2))
    ref = step(state_from_point(p, 0.0, problem.disc), 1e-3, problem)
    assert tucker_distance(ref.point.tucker(), p.tucker()) > 1e-3 * p.norm()
    for s in SCALES:
        try:
            new = step(state_from_point(scale_point(p, s), 0.0, problem.disc), 1e-3, problem)
        except InvalidArgumentError as exc:
            assert s >= 1e154 and "not finite" in str(exc), s
            continue
        back = scale_point(new.point, 1.0 / s)
        assert tucker_distance(back.tucker(), ref.point.tucker()) <= 1e-12 * ref.point.norm(), s
        assert abs(new.step_distance / s - ref.step_distance) <= 1e-12 * ref.step_distance, s
        if scheme == "projected_euler":
            defect = new.retraction_defect / s
            assert abs(defect - ref.retraction_defect) <= 1e-12 * ref.retraction_defect, s
            assert 0.0 < new.tangent_residual <= 1e-10, s


def test_energy_report_of_a_huge_state_is_finite():
    # every state's energy is a finite float (up to 1.34e308), but the plain
    # sum of ten of them overflows before the step size scales it: each
    # quadrature is taken at scale where its plain sum is not finite
    import dataclasses

    problem = heat_problem(3, 16, (2, 2))
    s = 5e153
    huge = dataclasses.replace(problem, u0=scale_point(problem.u0, s))
    tr = solve(huge, "projected_euler", tau=1e-3, t_end=1e-2)
    assert len(tr.states) == 11 and tr.breakdown is None
    assert all(np.isfinite(st.energy_v) for st in tr.states)
    rep = energy_report(tr, huge)
    assert np.isfinite([rep.v_integral, rep.du_integral, rep.data_f_integral]).all()
    ref = energy_report(solve(problem, "projected_euler", tau=1e-3, t_end=1e-2), problem)
    assert abs(rep.v_integral / s / s - ref.v_integral) <= 1e-12 * ref.v_integral
    assert abs(rep.du_integral / s / s - ref.du_integral) <= 1e-12 * ref.du_integral


def test_rescaled_sum_is_finite_where_the_plain_sum_overflows():
    big = [1.5e308] * 4
    assert integrate._rescaled_sum(big, 1, 1e-3) == pytest.approx(6e305, rel=1e-15)
    assert integrate._rescaled_sum([2e154] * 4, 2, 1e-3) == pytest.approx(1.6e306, rel=1e-15)
    assert integrate._rescaled_sum(big, 1, 1.0) == np.inf  # the quadrature itself overflows


def test_energy_report_reads_the_states(monkeypatch):
    problem = anisotropic_problem(d=3, n=6, tt_ranks=(2, 2), t_end=0.03, sources=1)
    tr = solve(problem, "projected_euler", tau=0.01, t_end=0.03)
    distances = count_calls(monkeypatch, retraction, "tucker_distance")
    loads = count_calls(monkeypatch, fem, "load_vector")
    rep = energy_report(tr, problem)
    assert distances == {"tucker_distance": 0} and loads == {"load_vector": 0}
    assert np.isfinite(rep.du_integral) and rep.data_f_integral > 0
    # states that no step made carry no distance, so their report has none
    made = Trajectory(
        tuple(state_from_point(s.point, s.time, problem.disc) for s in tr.states), "hand", 0.01
    )
    assert np.isnan(energy_report(made, problem).du_integral)
