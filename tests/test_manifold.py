import numpy as np
import pytest

from ttdlra.dense import DenseTensor, inner, matricize, mode_multiply, svd
from ttdlra.errors import InvalidArgumentError, NotOnManifoldError
from ttdlra.manifold import (
    make_point,
    point_boundary_gap,
    point_to_dense,
    scale_point,
)
from ttdlra.retraction import retract
from ttdlra.sampling import (
    feasible_point_ranks,
    random_dense,
    random_orthonormal,
    random_point,
    random_tt,
)
from ttdlra.tt import (
    TTTensor,
    interface_spectrum,
    orthogonalize,
    tt_scale,
    tt_to_dense,
)


def test_make_point_orthonormal_accepted(rng):
    p = random_point(rng, (5, 6, 4), (2, 3, 2), tt_ranks=(2, 2))
    for u in p.factors:
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)


def test_make_point_rejects_duplicated_columns(rng):
    core = random_tt(rng, (2, 2), (2,))
    u = rng.standard_normal((5, 2))
    u[:, 1] = u[:, 0]
    v = random_orthonormal(rng, 6, 2)
    with pytest.raises(NotOnManifoldError):
        make_point(core, (u, v))


def test_make_point_reorthonormalization_preserves_value(rng):
    core = random_tt(rng, (2, 3, 2), (2, 2))
    factors = [rng.standard_normal((n, r)) for n, r in zip((5, 6, 4), (2, 3, 2))]
    p = make_point(core, factors)
    for u in p.factors:
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
    x = DenseTensor.from_array(tt_to_dense(core))
    for m, w in enumerate(factors):
        x = mode_multiply(x, w, m)
    assert (point_to_dense(p) - x).norm() <= 1e-12 * x.norm()


def test_make_point_rejects_rank_deficient_core(rng):
    # dense core without full multilinear rank
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[1, 1, 0] = 1.0  # mode-2 unfolding has rank 1
    factors = [random_orthonormal(rng, 5, 2) for _ in range(3)]
    with pytest.raises(NotOnManifoldError):
        make_point(c, factors)


def test_make_point_rejects_core_with_short_mode_unfolding(rng):
    # a 3x2 core has only 2 singular values in its mode-0 unfolding, so it
    # cannot have mode-0 rank 3
    core = rng.standard_normal((3, 2))
    factors = [random_orthonormal(rng, 5, 3), random_orthonormal(rng, 6, 2)]
    with pytest.raises(NotOnManifoldError):
        make_point(core, factors)


def test_random_point_rejects_rank_above_product_of_others(rng):
    with pytest.raises(InvalidArgumentError):
        random_point(rng, (5, 6), (2, 3))
    with pytest.raises(InvalidArgumentError):
        random_point(rng, (5, 5, 5), (1, 2, 3))


@pytest.mark.parametrize(
    "outer, tt_ranks, feasible",
    [
        ((2, 3, 2), None, True),
        ((2, 5, 2), None, False),  # 5 > 2 * 2 columns
        ((2, 2, 2), (2, 2), True),
        ((2, 4, 4, 2), (2, 2, 2), True),  # interior ranks at the neighbour product
        ((3, 2, 2), (2, 2), False),  # edge outer rank above the edge train rank
        ((2, 3, 3), (3, 3), False),  # edge outer rank below the edge train rank
        ((2, 5, 5, 2), (2, 2, 2), False),  # interior rank above the neighbour product
        ((2, 2, 2), (2,), False),  # wrong number of train ranks
        ((4,), (), False),  # a point has at least two modes
    ],
)
def test_feasible_point_ranks_table(rng, outer, tt_ranks, feasible):
    assert feasible_point_ranks(outer, tt_ranks) is feasible
    dims = tuple(r + 2 for r in outer)
    if feasible:
        p = random_point(rng, dims, outer, tt_ranks=tt_ranks)
        assert p.outer_ranks == outer
    else:
        with pytest.raises(InvalidArgumentError):
            random_point(rng, dims, outer, tt_ranks=tt_ranks)


def test_rejection_carries_measured_gap(rng):
    core = np.diag([1.0, 1e-12])
    factors = [random_orthonormal(rng, 5, 2) for _ in range(2)]
    with pytest.raises(NotOnManifoldError) as exc:
        make_point(core, factors)
    assert exc.value.gap == pytest.approx(1e-12, rel=1e-6)


def _mode_spectra(x):
    # singular values of every single-mode unfolding (of a train's expansion)
    x = DenseTensor.from_array(tt_to_dense(x) if isinstance(x, TTTensor) else x)
    return [svd(matricize(x, {m})).singular_values for m in range(x.ndim)]


def _gap_by_definition(core):
    # the smallest singular value over every mode unfolding of the expanded
    # core and, for a train, over every interface
    vals = [v[-1] for v in _mode_spectra(core)]
    if isinstance(core, TTTensor):
        vals += [v[-1] for v in interface_spectrum(core).values]
    return min(vals)


@pytest.mark.parametrize(
    "outer, tt_ranks",
    [
        ((2, 2), (2,)),
        ((2, 3, 2), (2, 2)),
        ((2, 4, 4, 2), (2, 2, 2)),
        ((2, 3, 4, 3, 2), (2, 2, 2, 2)),
        ((2, 3, 2), None),  # dense core
    ],
)
def test_gap_matches_full_definition(rng, outer, tt_ranks):
    # make_point reads the end interfaces off the mode SVDs
    dims = tuple(r + 2 for r in outer)
    for _ in range(3):
        p = random_point(rng, dims, outer, tt_ranks=tt_ranks)
        assert abs(p.gap - _gap_by_definition(p.core)) <= 1e-14 * p.gap


def test_gap_at_interior_interface_matches_full_definition(rng):
    # a d = 4 train whose interface-1 spectrum is (s_0, 1e-3 s_0) while every
    # mode unfolding keeps rank 2 from the leading interface term alone
    t = orthogonalize(random_tt(rng, (2, 2, 2, 2), (2, 2, 2)), 1)
    cores = list(t.cores)
    u, s, vh = np.linalg.svd(cores[1].reshape(4, 2), full_matrices=False)
    cores[1] = ((u * [s[0], 1e-3 * s[0]]) @ vh).reshape(2, 2, 2)
    core = TTTensor(tuple(cores))
    p = make_point(core, [random_orthonormal(rng, 5, 2) for _ in range(4)])
    interior = interface_spectrum(core).values[1][-1]
    assert interior < min(v[-1] for v in _mode_spectra(core))
    assert abs(p.gap - interior) <= 1e-14 * interior
    assert abs(p.gap - _gap_by_definition(core)) <= 1e-14 * p.gap


def test_collapsed_end_interface_raises_with_its_gap(rng):
    # interface 0 has the spectrum (1, 1e-11); modes 1 and 2 stay at 1/sqrt 2
    g = 1e-11
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    core = TTTensor(
        (
            np.diag([1.0, g]).reshape(1, 2, 2),
            np.stack([np.eye(2), swap]) / np.sqrt(2.0),
            np.eye(2).reshape(2, 2, 1),
        )
    )
    assert interface_spectrum(core).values[0][-1] == pytest.approx(g, rel=1e-12)
    with pytest.raises(NotOnManifoldError) as exc:
        make_point(core, [random_orthonormal(rng, 5, 2) for _ in range(3)])
    assert exc.value.gap == pytest.approx(g, rel=1e-12)


def test_point_keeps_its_own_copy_of_an_array_core(rng):
    # a column-major core was kept by reference: writing to it afterwards
    # changed the point's expansion and norm but not its measured gap
    core = np.asfortranarray(rng.standard_normal((2, 2, 2)))
    p = make_point(core, [random_orthonormal(rng, 5, 2) for _ in range(3)])
    norm = p.norm()
    core[0, 0, 0] += 100.0
    assert p.norm() == norm and not np.shares_memory(p.expanded, core)


def test_point_to_dense_matrix_case(rng):
    u1 = random_orthonormal(rng, 5, 2)
    u2 = random_orthonormal(rng, 6, 2)
    c = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    p = make_point(c, (u1, u2))
    np.testing.assert_allclose(
        point_to_dense(p).to_array(), u1 @ c @ u2.T, atol=1e-12
    )


def test_point_to_dense_rank_one_outer_product(rng):
    u = [random_orthonormal(rng, n, 1) for n in (4, 5, 3)]
    core = np.full((1, 1, 1), 2.5)
    p = make_point(core, u)
    expected = 2.5 * np.einsum("i,j,k->ijk", u[0][:, 0], u[1][:, 0], u[2][:, 0])
    np.testing.assert_allclose(point_to_dense(p).to_array(), expected, atol=1e-13)


def test_point_to_dense_matches_mode_multiply_chain(rng):
    p = random_point(rng, (4, 5, 3), (2, 2, 2), tt_ranks=(2, 2))
    x = DenseTensor.from_array(p.expanded)
    for m, u in enumerate(p.factors):
        x = mode_multiply(x, u, m)
    assert (point_to_dense(p) - x).norm() <= 1e-13 * x.norm()


def test_cone_scaling(rng):
    p = random_point(rng, (4, 4, 4), (2, 2, 2), tt_ranks=(2, 2))
    g = point_boundary_gap(p)
    for s in (0.25, 2.0, 7.5):
        q = scale_point(p, s)
        np.testing.assert_allclose(point_boundary_gap(q), s * g, rtol=1e-12)
        # the scaled point is measured as make_point measures the scaled core
        r = make_point(tt_scale(p.core, s), p.factors)
        assert all(np.array_equal(a, b) for a, b in zip(q.core.cores, r.core.cores))
        assert q.gap == r.gap and np.array_equal(q.expanded, r.expanded)
        d = (point_to_dense(q) - s * point_to_dense(p)).norm()
        assert d <= 1e-12 * s * point_to_dense(p).norm()


def test_core_spectra_match_ambient_spectra(rng):
    # orthonormal factors preserve every unfolding spectrum
    p = random_point(rng, (5, 4, 6), (2, 3, 2), tt_ranks=(2, 2))
    x = point_to_dense(p)
    for m, vals in enumerate(_mode_spectra(p.expanded)):
        ambient = svd(matricize(x, {m})).singular_values
        np.testing.assert_allclose(vals, ambient[: vals.size], atol=1e-10)
        np.testing.assert_allclose(ambient[vals.size :], 0.0, atol=1e-10)
    core_ifaces = interface_spectrum(p.core)
    for m, vals in enumerate(core_ifaces.values):
        ambient = svd(matricize(x, set(range(m + 1)))).singular_values
        np.testing.assert_allclose(vals, ambient[: vals.size], atol=1e-10)


def test_gap_rejection_near_boundary(rng):
    # core with one interface singular value at 1e-12 of the norm
    u, v = random_orthonormal(rng, 2, 2), random_orthonormal(rng, 2, 2)
    c = u @ np.diag([1.0, 1e-12]) @ v.T
    factors = [random_orthonormal(rng, 5, 2) for _ in range(2)]
    from ttdlra.tt import tt_from_dense

    core = tt_from_dense(c, ranks=(2,))
    with pytest.raises(NotOnManifoldError):
        make_point(core, factors)


def test_retract_reproduces_exact_rank_points(rng):
    p = random_point(rng, (5, 4, 4), (2, 3, 2), tt_ranks=(2, 2))
    x = point_to_dense(p)
    q = retract(x, p.outer_ranks, p.core.ranks)
    assert (point_to_dense(q) - x).norm() <= 1e-12 * x.norm()


def test_retract_never_increases_norm(rng):
    x = random_dense(rng, (5, 4, 4))
    q = retract(x, (2, 2, 2), (2, 2))
    assert point_to_dense(q).norm() <= x.norm() * (1 + 1e-12)
    # retraction error is the best-approximation defect, reproducible
    e1 = (point_to_dense(q) - x).norm()
    q2 = retract(x, (2, 2, 2), (2, 2))
    e2 = (point_to_dense(q2) - x).norm()
    assert e1 == e2


def test_retract_refuses_one_mode():
    with pytest.raises(InvalidArgumentError, match="a point has at least two"):
        retract(DenseTensor.from_array(np.arange(1.0, 5.0)), (2,))
