import numpy as np
import pytest

from helpers import ambient_matrix_by_columns, count_calls, gauge_frame, summands

import ttdlra
from ttdlra.dense import DenseTensor, inner, matricize
from ttdlra.errors import InvalidArgumentError, OversizeError
from ttdlra.manifold import make_point, point_to_dense
from ttdlra.sampling import random_dense, random_orthonormal, random_point, random_tt
from ttdlra.tangent import (
    TangentBasis,
    TangentVector,
    aligned_basis_report,
    apply_tangent_projector,
    brute_force_projector,
    core_tangent_basis,
    core_tangent_project,
    polar_align,
    tangent_project,
    tangent_to_ambient,
)
from ttdlra.tt import TTTensor, orthogonalize, tt_to_dense


def instance_grid(rng, count):
    """Seeded instances with d in {2,3,4}, modes <= 4, outer ranks <= 3, train ranks <= 2."""
    out = []
    shapes = [
        ((4, 4), (2, 2), (2,)),
        ((3, 4), (2, 2), (2,)),
        ((4, 3, 4), (2, 2, 2), (2, 2)),
        ((3, 4, 3), (2, 3, 2), (2, 2)),
        ((4, 4, 4), (2, 3, 2), (2, 2)),
        ((3, 3, 3, 3), (2, 2, 2, 2), (2, 2, 2)),
        ((4, 3, 3, 4), (1, 2, 2, 1), (1, 2, 1)),
    ]
    i = 0
    while len(out) < count:
        dims, r, k = shapes[i % len(shapes)]
        i += 1
        p = random_point(rng, dims, r, tt_ranks=k)
        z = random_dense(rng, dims)
        out.append((p, z))
    return out


# ---------------------------------------------------------------------------
# oracle equivalence and projector laws
# ---------------------------------------------------------------------------


def test_projection_matches_brute_force_oracle(rng):
    for p, z in instance_grid(rng, 20):
        lhs = apply_tangent_projector(p, z)
        rhs = brute_force_projector(p, z)
        assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-10


def test_projection_of_point_is_point(rng):
    # the manifold is a cone, so X lies in its own tangent space
    for p, _ in instance_grid(rng, 6):
        x = point_to_dense(p)
        px = apply_tangent_projector(p, x)
        assert (px - x).norm() <= 1e-10 * max(x.norm(), 1.0)


def test_projection_idempotent_and_self_adjoint(rng):
    for p, z in instance_grid(rng, 6):
        pz = apply_tangent_projector(p, z)
        ppz = apply_tangent_projector(p, pz)
        assert (ppz - pz).norm() <= 1e-10 * max(pz.norm(), 1.0)
        w = random_dense(rng, p.dims)
        pw = apply_tangent_projector(p, w)
        assert abs(inner(pz, w) - inner(z, pw)) <= 1e-10 * z.norm() * w.norm()


def test_projection_annihilates_normal_complement(rng):
    for p, z in instance_grid(rng, 4):
        z_perp = z - brute_force_projector(p, z)
        assert apply_tangent_projector(p, z_perp).norm() <= 1e-10 * max(
            z.norm(), 1.0
        )


def test_brute_force_unchanged_on_tangent_input(rng):
    p, z = instance_grid(rng, 1)[0]
    v = tangent_to_ambient(tangent_project(p, z))
    again = brute_force_projector(p, v)
    assert (again - v).norm() <= 1e-10 * max(v.norm(), 1.0)


def test_brute_force_matrix_closed_form(rng):
    # d=2 rank-1 on a 3x3 example: P(Z) = P_u Z + Z P_v - P_u Z P_v
    u = random_orthonormal(rng, 3, 1)
    v = random_orthonormal(rng, 3, 1)
    core = np.array([[1.7]])
    p = make_point(core, (u, v))
    z = random_dense(rng, (3, 3))
    zm = z.to_array()
    pu, pv = u @ u.T, v @ v.T
    closed = pu @ zm + zm @ pv - pu @ zm @ pv
    np.testing.assert_allclose(
        brute_force_projector(p, z).to_array(), closed, atol=1e-10
    )
    np.testing.assert_allclose(
        apply_tangent_projector(p, z).to_array(), closed, atol=1e-10
    )


def test_plain_tucker_core_matches_oracle(rng):
    # dense core: the core constraint set is open, its projector the identity
    p = random_point(rng, (4, 5, 4), (2, 2, 2), tt_ranks=None)
    assert not p.tt_core
    z = random_dense(rng, p.dims)
    lhs = apply_tangent_projector(p, z)
    rhs = brute_force_projector(p, z)
    assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-10
    v = tangent_project(p, z)
    assert np.linalg.norm(core_tangent_project(p.core, v.core_velocity) - v.core_velocity) == 0.0


def test_brute_force_rejects_oversize(rng):
    p = random_point(rng, (8, 8, 8, 8, 2), (1, 1, 1, 1, 1), tt_ranks=(1, 1, 1, 1))
    with pytest.raises(OversizeError):
        brute_force_projector(p, random_dense(rng, p.dims))


# ---------------------------------------------------------------------------
# gauge conditions and the orthogonal summand decomposition
# ---------------------------------------------------------------------------


def test_gauge_conditions(rng):
    for p, z in instance_grid(rng, 6):
        v = tangent_project(p, z)
        for u, udot in zip(p.factors, v.factor_velocities):
            assert np.max(np.abs(u.T @ udot)) <= 1e-12 * max(
                1.0, np.linalg.norm(udot)
            )
        cdot = v.core_velocity
        again = core_tangent_project(p.core, cdot)
        assert np.linalg.norm(again - cdot) <= 1e-12 * max(np.linalg.norm(cdot), 1.0)


def test_summands_mutually_orthogonal(rng):
    for p, z in instance_grid(rng, 6):
        parts = summands(tangent_project(p, z))
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                bound = 1e-10 * max(parts[i].norm() * parts[j].norm(), 1e-30)
                assert abs(inner(parts[i], parts[j])) <= max(bound, 1e-14)


def test_pythagoras_over_summands(rng):
    for p, z in instance_grid(rng, 6):
        v = tangent_project(p, z)
        parts = summands(v)
        total = tangent_to_ambient(v).norm() ** 2
        np.testing.assert_allclose(
            total, sum(s.norm() ** 2 for s in parts), rtol=1e-10, atol=1e-12
        )


def test_zero_components_embed_to_zero(rng):
    p, _ = instance_grid(rng, 1)[0]
    basis = TangentBasis(p)
    v = TangentVector(basis, np.zeros(sum(basis.block_sizes)))
    assert tangent_to_ambient(v).norm() == 0.0


def test_single_factor_velocity_matricization(rng):
    # a lone mode-0 velocity embeds with matricization Udot * V^T
    p, z = instance_grid(rng, 1)[0]
    v = tangent_project(p, z)
    basis = v.basis
    start = np.cumsum(basis.block_sizes)
    coords = np.zeros(start[-1])
    coords[start[0] : start[1]] = v.coords[start[0] : start[1]]
    lone = TangentVector(basis, coords)
    amb = matricize(tangent_to_ambient(lone), {0})
    covectors = matricize(
        point_to_dense(
            make_point(p.core, [np.eye(p.dims[0], p.outer_ranks[0])] + list(p.factors[1:]))
        ),
        {0},
    )
    # covectors rows beyond r are zero; V^T is the nonzero top block
    expected = v.factor_velocities[0] @ covectors[: p.outer_ranks[0]]
    np.testing.assert_allclose(amb, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# core projector
# ---------------------------------------------------------------------------


def test_core_projector_matrix_closed_form(rng):
    c = random_tt(rng, (4, 5), (2,))
    z = rng.standard_normal((4, 5))
    u, s, vt = np.linalg.svd(tt_to_dense(c))
    pu = u[:, :2] @ u[:, :2].T
    pv = vt[:2].T @ vt[:2]
    closed = pu @ z + z @ pv - pu @ z @ pv
    np.testing.assert_allclose(core_tangent_project(c, z), closed, atol=1e-10)


def test_core_projector_cone_idempotent_symmetric(rng):
    c = random_tt(rng, (3, 3, 3), (2, 2))
    x = tt_to_dense(c)
    assert np.linalg.norm(core_tangent_project(c, x) - x) <= 1e-10 * np.linalg.norm(x)
    z = rng.standard_normal((3, 3, 3))
    w = rng.standard_normal((3, 3, 3))
    pz = core_tangent_project(c, z)
    again = core_tangent_project(c, pz)
    assert np.linalg.norm(again - pz) <= 1e-10 * max(np.linalg.norm(pz), 1.0)
    pw = core_tangent_project(c, w)
    bound = 1e-10 * np.linalg.norm(z) * np.linalg.norm(w)
    assert abs(np.sum(pz * w) - np.sum(z * pw)) <= bound


def core_spanning_oracle(c):
    """Orthonormal basis of the span of all single-core replacements of ``c``,
    built independently of :func:`core_tangent_basis`; its size is the train
    manifold's dimension, parameters minus the ``k^2`` interface gauges."""
    cols = []
    for m in range(c.ndim):
        shape = c.cores[m].shape
        for idx in np.ndindex(shape):
            unit = np.zeros(shape)
            unit[idx] = 1.0
            cores = list(c.cores)
            cores[m] = unit
            cols.append(tt_to_dense(TTTensor(tuple(cores))).ravel(order="F"))
    span = np.array(cols).T
    dim = sum(g.size for g in c.cores) - sum(k * k for k in c.ranks)
    u, s, _ = np.linalg.svd(span, full_matrices=False)
    return u[:, :dim]


def test_core_projector_matches_spanning_oracle(rng):
    c = random_tt(rng, (3, 3, 3), (2, 2))
    basis = core_spanning_oracle(c)
    assert basis.shape[1] == core_tangent_basis(c).shape[1]
    z = rng.standard_normal((3, 3, 3))
    oracle = basis @ (basis.T @ z.ravel(order="F"))
    np.testing.assert_allclose(core_tangent_project(c, z).ravel(order="F"), oracle, atol=1e-10)


@pytest.mark.parametrize(
    "dims, ranks",
    [
        ((3, 4, 3), (2, 2)),
        ((4, 5), (3,)),
        ((3, 2, 3, 2), (2, 3, 2)),
        ((2, 3, 2, 3, 2), (2, 2, 3, 2)),
        ((1, 2, 2, 1), (1, 2, 1)),  # square left unfoldings of cores 0 and 1: empty blocks
    ],
    ids=["d3", "d2", "d4", "d5", "square-unfolding"],
)
def test_core_basis_orthonormal_and_spans_projector(rng, dims, ranks):
    c = random_tt(rng, dims, ranks)
    b = core_tangent_basis(c)
    np.testing.assert_allclose(b.T @ b, np.eye(b.shape[1]), atol=1e-12)
    oracle = core_spanning_oracle(c)
    assert b.shape == oracle.shape
    z = rng.standard_normal(dims).ravel(order="F")
    np.testing.assert_allclose(
        b @ (b.T @ z), oracle @ (oracle.T @ z), atol=1e-10
    )


def test_core_basis_rejects_ranks_beyond_the_unfoldings(rng):
    # interface rank 3 on two modes of size 2: no train of that rank exists
    c = TTTensor((rng.standard_normal((1, 2, 3)), rng.standard_normal((3, 2, 1))))
    with pytest.raises(InvalidArgumentError):
        core_tangent_basis(c)


def test_core_basis_does_not_depend_on_the_gauge_scale(rng):
    # a left-orthogonal train carries its whole norm in its last core; a basis
    # built from the spanning set in that gauge failed its rank test from a
    # scale of 1e-9 on, on a healthy point
    c = orthogonalize(random_tt(rng, (3, 3, 3), (3, 3)), 2)
    b = core_tangent_basis(c)
    small = core_tangent_basis(TTTensor(c.cores[:-1] + (1e-9 * c.cores[-1],)))
    np.testing.assert_allclose(small @ small.T, b @ b.T, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# orthonormal tangent coordinates
# ---------------------------------------------------------------------------


def test_tangent_basis_of_a_train_point_takes_no_qr(rng, monkeypatch):
    # the basis reads the frame that make_point kept with the point, and its
    # core block has the bits of a basis built from a fresh frame
    p = random_point(rng, (5, 6, 5, 4), (2, 3, 3, 2), tt_ranks=(2, 3, 2))
    calls = count_calls(monkeypatch, ttdlra.dense, "_qr")
    basis = TangentBasis(p)
    assert calls == {"_qr": 0}
    assert np.array_equal(basis.core_basis, core_tangent_basis(p.core))
    assert calls == {"_qr": 2 * (p.ndim - 1)}  # the fresh frame: one QR per core and sweep


def test_tangent_basis_isometry_and_roundtrip(rng):
    for p, z in instance_grid(rng, 4):
        basis = TangentBasis(p)
        coords = basis.project_coords(z)
        amb = tangent_to_ambient(TangentVector(basis, coords))
        np.testing.assert_allclose(np.linalg.norm(coords), amb.norm(), rtol=1e-10)
        assert (amb - brute_force_projector(p, z)).norm() <= 1e-10 * max(
            amb.norm(), 1.0
        )
        c = gauge_frame(basis) @ rng.standard_normal(basis.dim)
        back = basis.project_coords(tangent_to_ambient(TangentVector(basis, c)))
        np.testing.assert_allclose(back, c, atol=1e-10)


def test_any_coordinate_vector_is_its_gauge_projection(rng):
    # coordinates with components along U^m are read through the gauge
    # projection: same embedding, same Tucker velocities, and the ambient norm
    for p, _ in instance_grid(rng, 3):
        basis = TangentBasis(p)
        c = rng.standard_normal(sum(basis.block_sizes))
        g = gauge_frame(basis)
        projected = g @ (g.T @ c)
        v, w = TangentVector(basis, c), TangentVector(basis, projected)
        amb = tangent_to_ambient(v)
        assert (amb - tangent_to_ambient(w)).norm() <= 1e-12 * amb.norm()
        np.testing.assert_allclose(v.norm(), amb.norm(), rtol=1e-12)
        np.testing.assert_allclose(v.norm(), np.linalg.norm(projected), rtol=1e-12)
        for fv, fw in zip(v.factor_velocities, w.factor_velocities):
            np.testing.assert_allclose(fv, fw, atol=1e-12)


def test_tangent_basis_ambient_matrix_orthonormal(rng):
    p, z = instance_grid(rng, 1)[0]
    basis = TangentBasis(p)
    mat = basis.ambient_matrix()
    np.testing.assert_allclose(mat.T @ mat, np.eye(basis.dim), atol=1e-10)
    np.testing.assert_allclose(
        mat @ (gauge_frame(basis).T @ basis.project_coords(z)),
        brute_force_projector(p, z).data,
        atol=1e-10,
    )


@pytest.mark.parametrize(
    "dims, outer, tt",
    [
        ((5, 6), (2, 2), (2,)),
        ((4, 5, 3), (2, 3, 2), (2, 2)),
        ((4, 5, 3), (2, 3, 2), None),
        ((3, 4, 3, 3), (2, 2, 2, 2), (2, 2, 2)),
        ((3, 4, 3, 2), (2, 2, 2, 2), None),
        ((2, 4, 3), (2, 2, 2), None),  # r = n on mode 0: empty Qperp
    ],
)
def test_ambient_matrix_matches_column_loop(rng, dims, outer, tt):
    basis = TangentBasis(random_point(rng, dims, outer, tt_ranks=tt))
    mat = basis.ambient_matrix()
    assert mat.shape == (int(np.prod(dims)), basis.dim)
    np.testing.assert_allclose(mat, ambient_matrix_by_columns(basis), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# polar alignment and the sqrt(2) inequalities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tt_ranks", [(2, 2), None], ids=["train", "plain"])
def test_basis_reads_the_point_measurement(rng, monkeypatch, tt_ranks):
    # the basis takes the expanded core and the mode SVDs from the point: no
    # expansion or unfolding of its own, and the arrays of a fresh SVD
    p = random_point(rng, (5, 6, 5), (2, 3, 2), tt_ranks=tt_ranks)
    tt_calls = count_calls(monkeypatch, ttdlra.tt, "tt_to_dense")
    dense_calls = count_calls(monkeypatch, ttdlra.dense, "matricize", "svd")
    basis = TangentBasis(p)
    assert tt_calls == {"tt_to_dense": 0}
    assert dense_calls == {"matricize": 0, "svd": 0}
    core = DenseTensor.from_array(tt_to_dense(p.core) if tt_ranks else p.core)
    assert np.array_equal(basis.core, core.to_array())
    for m in range(3):
        pw, sw, qwt = np.linalg.svd(matricize(core, {m}), full_matrices=False)
        assert np.array_equal(basis.rmap[m], pw / sw)
        assert np.array_equal(basis.qright[m], qwt.T)


def test_polar_align_identity_and_sign(rng):
    u = random_orthonormal(rng, 5, 2)
    np.testing.assert_allclose(polar_align(u, u), u, atol=1e-12)
    w = random_orthonormal(rng, 5, 1)
    aligned = polar_align(-w, w)
    np.testing.assert_allclose(aligned, w, atol=1e-12)
    assert aligned.T @ w >= 0


def test_polar_align_random_pairs_pass_hypotheses(rng):
    for _ in range(20):
        u = random_orthonormal(rng, 7, 3)
        v = random_orthonormal(rng, 7, 3)
        ua = polar_align(u, v)
        m = ua.T @ v
        np.testing.assert_allclose(m, m.T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] >= -1e-10
        # span unchanged
        np.testing.assert_allclose(ua @ ua.T, u @ u.T, atol=1e-10)


def test_aligned_report_equal_bases(rng):
    u = random_orthonormal(rng, 6, 2)
    x = rng.standard_normal(2)
    rep = aligned_basis_report(u, u, x, x)
    assert rep.basis_diff == 0.0 and rep.projector_diff == 0.0
    assert rep.basis_bound_ok and rep.coeff_bound_ok


def test_aligned_report_rotation_closed_forms():
    # rank-one family rotated by theta: |u-v| = 2|sin(theta/2)|, |P_u-P_v| = |sin(theta)|
    for theta in np.linspace(0.01, np.pi / 2, 25):
        u = np.array([[1.0], [0.0]])
        v = np.array([[np.cos(theta)], [np.sin(theta)]])
        rep = aligned_basis_report(u, v, np.array([1.0]), np.array([1.0]))
        np.testing.assert_allclose(rep.basis_diff, 2 * abs(np.sin(theta / 2)), atol=1e-10)
        np.testing.assert_allclose(rep.projector_diff, abs(np.sin(theta)), atol=1e-10)
        assert rep.basis_bound_ok


def test_aligned_report_randomized_sweep(rng):
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(4, n + 1)))
        u = random_orthonormal(rng, n, r)
        v = polar_align(random_orthonormal(rng, n, r), u)
        # align u against v so u^T v is symmetric PSD
        u2 = polar_align(u, v)
        x = rng.standard_normal(r)
        y = rng.standard_normal(r)
        rep = aligned_basis_report(u2, v, x, y)
        if not (rep.basis_bound_ok and rep.coeff_bound_ok):
            violations += 1
    assert violations == 0


def test_aligned_report_rejects_unaligned(rng):
    u = random_orthonormal(rng, 6, 2)
    v = random_orthonormal(rng, 6, 2)
    if np.allclose(u.T @ v, (u.T @ v).T, atol=1e-8):
        v = np.roll(v, 1, axis=0)
    with pytest.raises(InvalidArgumentError):
        aligned_basis_report(u, v, np.zeros(2), np.zeros(2))
