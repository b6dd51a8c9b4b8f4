"""Factored retraction and the factored solver paths against dense oracles."""

import tracemalloc

import numpy as np
import pytest

from helpers import count_calls, gauge_frame, source_dense, summands

from ttdlra import manifold, retraction
from ttdlra.dense import DenseTensor, matricize, mode_multiply
from ttdlra.errors import BreakdownError, ConfigError, NotOnManifoldError
from ttdlra.fem import DiffusionCoefficient, build_fem1d, mass_orthonormalize
from ttdlra.integrate import (
    BreakdownRecord,
    energy_report,
    solve,
    state_from_point,
    step_projected_implicit_euler,
    step_projector_splitting,
)
from ttdlra.manifold import GAP_REJECT_REL, make_point, point_to_dense
from ttdlra.problems import ParabolicProblem, generic_outer_ranks, problem_from_config
from ttdlra.retraction import (
    retract,
    retract_train,
    retract_tucker,
    tucker_distance,
)
from ttdlra.sampling import random_point, random_tt
from ttdlra.tangent import TangentBasis, TangentVector
from ttdlra.tt import TTTensor, orthogonalize, tt_add, tt_from_dense, tt_to_dense

REL = 1e-12


def tucker_to_dense(core, factors):
    out = DenseTensor.from_array(core)
    for m, w in enumerate(factors):
        out = mode_multiply(out, w, m)
    return out


def assert_matches_dense_retraction(core, factors, outer, tt_ranks):
    x = tucker_to_dense(core, factors)
    ref = retract(x, outer, tt_ranks)
    ref_defect = (point_to_dense(ref) - x).norm()
    # the origin lives in the leading columns of the factors, as a step's
    # starting state does
    origin = core[tuple(slice(r) for r in outer)]
    start = tucker_to_dense(origin, [w[:, :r] for w, r in zip(factors, outer)])
    ref_distance = (point_to_dense(ref) - start).norm()
    point, defect, distance = retract_tucker(core, factors, origin, outer, tt_ranks)
    assert point.outer_ranks == ref.outer_ranks
    assert point.tt_core == ref.tt_core
    for u in point.factors:
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
    assert (point_to_dense(point) - point_to_dense(ref)).norm() <= REL * x.norm()
    assert abs(defect - ref_defect) <= REL * ref_defect
    assert abs(distance - ref_distance) <= REL * ref_distance


# mode sizes, core sizes (factor widths), outer ranks, train ranks; a width
# above its mode size is a factor with more columns than rows (2r > n)
CASES = [
    ((7, 6, 5), (4, 5, 3), (2, 3, 2), (2, 2)),
    ((7, 6, 5), (4, 5, 3), (2, 3, 2), None),
    ((3, 8, 6), (4, 6, 4), (2, 3, 2), (2, 2)),
    ((5, 4, 6, 5), (4, 6, 6, 4), (2, 3, 3, 2), (2, 3, 2)),
    ((5, 4, 6, 5), (4, 6, 6, 4), (2, 3, 3, 2), None),
]


@pytest.mark.parametrize("dims, widths, outer, tt_ranks", CASES)
def test_retract_tucker_matches_dense_retraction(rng, dims, widths, outer, tt_ranks):
    core = rng.standard_normal(widths)
    factors = [rng.standard_normal((n, w)) for n, w in zip(dims, widths)]
    assert_matches_dense_retraction(core, factors, outer, tt_ranks)


@pytest.mark.parametrize("dims, widths, outer, tt_ranks", CASES)
def test_point_plus_tangent_matches_dense_update(rng, dims, widths, outer, tt_ranks):
    p = random_point(rng, dims, outer, tt_ranks=tt_ranks)
    basis = TangentBasis(p)
    coords = gauge_frame(basis) @ rng.standard_normal(basis.dim)
    c = 0.5 * p.norm() * coords / np.linalg.norm(coords)
    core, factors = basis.tucker(c)
    parts = summands(TangentVector(basis, c))
    x = parts[0]
    for part in parts[1:]:
        x = x + part
    assert (tucker_to_dense(core, factors) - x).norm() <= REL * x.norm()
    # u lies in its own tangent space, at coordinates (C, 0, ..., 0)
    u_coords = np.zeros(sum(basis.block_sizes))
    u_coords[: basis.block_sizes[0]] = basis.core_basis.T @ basis.core.ravel(order="F")
    core, factors = basis.tucker(u_coords + c)
    x = point_to_dense(p) + x
    assert (tucker_to_dense(core, factors) - x).norm() <= REL * x.norm()
    assert_matches_dense_retraction(core, factors, outer, tt_ranks)


# mode sizes, train ranks of the input, outer ranks and train ranks of the
# point; (2, 3, 2) is below the generic (2, 4, 2) of train ranks (2, 2)
TRAIN_CASES = [
    ((7,), (), (7,), ()),
    ((7,), (), (7,), None),
    ((6, 5), (4,), (2, 2), (2,)),
    ((6, 5), (4,), (3, 3), None),
    ((7, 6, 5), (3, 4), (2, 3, 2), (2, 2)),
    ((7, 6, 5), (3, 4), (2, 3, 2), None),
    ((7, 6, 5), (3, 4), (3, 4, 4), (3, 4)),
    ((5, 4, 6, 5), (3, 4, 3), (2, 3, 3, 2), (2, 3, 2)),
    ((5, 4, 6, 5), (3, 4, 3), (2, 3, 3, 2), None),
    ((4, 5, 4, 5, 4), (3, 4, 4, 3), (2, 3, 3, 3, 2), (2, 3, 3, 2)),
    ((4, 5, 4, 5, 4), (3, 4, 4, 3), (2, 3, 3, 3, 2), None),
]


@pytest.mark.parametrize("dims, train_ranks, outer, tt_ranks", TRAIN_CASES)
def test_retract_train_matches_dense_retraction(rng, dims, train_ranks, outer, tt_ranks):
    t = random_tt(rng, dims, train_ranks)
    x = DenseTensor.from_array(tt_to_dense(t))
    ref = retract(x, outer, tt_ranks)
    # the gauge the train carries: right-orthogonal (reused), left-orthogonal
    # and none at all
    gauges = [orthogonalize(t, 0), orthogonalize(t, len(dims) - 1), TTTensor(t.cores)]
    for train in gauges:
        point = retract_train(train, outer, tt_ranks)
        assert point.outer_ranks == ref.outer_ranks
        assert point.tt_core == ref.tt_core
        if point.tt_core:
            assert point.core.ranks == ref.core.ranks
        for u in point.factors:
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
        assert (point_to_dense(point) - point_to_dense(ref)).norm() <= REL * x.norm()


@pytest.mark.parametrize("tt_ranks", [(2, 2), None])
def test_auto_outer_ranks_sweep_the_train_once(monkeypatch, rng, tt_ranks):
    # each mode's rank is read off the SVD the ST-HOSVD sweep takes anyway
    t = random_tt(rng, (6, 5, 7), (3, 4))
    calls = count_calls(monkeypatch, retraction, "_site_sweep")
    point = retract_train(t, None, tt_ranks)
    assert calls == {"_site_sweep": 1}
    assert point.outer_ranks == ((2, 4, 2) if tt_ranks else (3, 5, 4))


@pytest.mark.parametrize("tt_ranks", [(2, 2), None])
def test_rank_collapse_raises_like_dense_retraction(rng, tt_ranks):
    # multilinear rank (1, 1, 1) asked to carry outer ranks (2, 2, 2), through
    # the Tucker and the train path
    vecs = [rng.standard_normal(3) for _ in range(3)]
    core = np.einsum("i,j,k->ijk", *vecs)
    factors = [rng.standard_normal((n, 3)) for n in (6, 5, 7)]
    x = tucker_to_dense(core, factors)
    with pytest.raises(NotOnManifoldError):
        retract(x, (2, 2, 2), tt_ranks)
    with pytest.raises(NotOnManifoldError):
        retract_tucker(core, factors, core, (2, 2, 2), tt_ranks)
    # the exact train of x has interface ranks (1, 1); the sum t + t has
    # ranks (2, 2) and multilinear rank (1, 1, 1), as x has
    t = tt_from_dense(x.to_array())
    for train in (t, tt_add(t, t)):
        with pytest.raises(NotOnManifoldError):
            retract_train(train, (2, 2, 2), tt_ranks)


@pytest.mark.parametrize("tt_ranks", [(2, 2), None])
def test_retract_tucker_validates_its_point_once(monkeypatch, rng, tt_ranks):
    # one make_point on the final factors: no intermediate point is checked
    core = rng.standard_normal((4, 5, 3))
    factors = [rng.standard_normal((n, w)) for n, w in zip((7, 6, 5), (4, 5, 3))]
    calls = count_calls(monkeypatch, manifold, "_checked_factors", "_measured")
    retract_tucker(core, factors, core, (2, 3, 2), tt_ranks)
    assert calls == {"_checked_factors": 1, "_measured": 1}


@pytest.mark.parametrize(
    "entry, delta, expected",
    [
        (None, 0.0, True),
        ((0, 0), 9e-6, True),  # inside the relative tolerance of the diagonal
        ((0, 0), 1.1e-5, False),
        ((0, 1), 5e-13, True),  # inside the absolute tolerance
        ((0, 1), 2e-12, False),
    ],
)
def test_orthonormality_test_is_allclose(rng, entry, delta, expected):
    # the Gramian of q @ m is m^T m: the identity moved by delta at entry
    q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    m = np.eye(3)
    if entry == (0, 0):
        m[0, 0] = np.sqrt(1.0 + delta)
    elif entry == (0, 1):
        m[0, 1] = delta
    u = q @ m
    _, ortho = manifold._checked_factors((3,), [u])
    assert ortho is expected
    assert ortho == np.allclose(u.T @ u, np.eye(3), atol=1e-12)


def _collapse_problem(n_cells, weight):
    # slow x slow plus weight * fast x fast: one long implicit Euler step
    # shrinks the fast part below the manifold's rejection threshold
    disc = mass_orthonormalize([build_fem1d(n_cells) for _ in range(2)])
    _, evecs = np.linalg.eigh(disc.stiffness[0] @ np.eye(n_cells - 1))
    u = evecs[:, [0, -1]]
    core = np.diag([1.0, weight])
    return ParabolicProblem(
        disc=disc,
        diffusion=DiffusionCoefficient(np.eye(2), np.zeros((2, 2)), horizon=1.0),
        sources=(),
        u0=make_point(core, (u, u)),
        t_end=1.0,
        outer_ranks=(2, 2),
        tt_ranks=None,
    )


def test_splitting_sweep_retracts_its_train_natively(rng):
    # the sweep's train goes through retract_train, on its cores, and at
    # generic ranks its defect is round-off
    disc = mass_orthonormalize([build_fem1d(10) for _ in range(3)])
    problem = ParabolicProblem(
        disc=disc,
        diffusion=DiffusionCoefficient(np.eye(3), np.zeros((3, 3)), horizon=1.0),
        sources=(),
        u0=random_point(rng, disc.dims, (2, 4, 2), tt_ranks=(2, 2)),
        t_end=1.0,
        outer_ranks=(2, 4, 2),
        tt_ranks=(2, 2),
    )
    state = step_projector_splitting(state_from_point(problem.u0, 0.0, disc), 1e-3, problem)
    assert state.point.outer_ranks == (2, 4, 2) and state.point.core.ranks == (2, 2)
    assert 0.0 <= state.retraction_defect <= 1e-13 * state.point.norm()


def test_step_rank_collapse_is_breakdown():
    problem = _collapse_problem(12, 1e-9)
    state = state_from_point(problem.u0, 0.0, problem.disc)
    with pytest.raises(BreakdownError):
        step_projected_implicit_euler(state, 1.0, problem)


def test_solve_records_measured_breakdown_gap():
    # the retraction rejects the collapsed core; the record carries the gap
    # that rejection measured, not a placeholder
    problem = _collapse_problem(24, 2e-8)
    state = state_from_point(problem.u0, 0.0, problem.disc)
    with pytest.raises(BreakdownError) as exc:
        step_projected_implicit_euler(state, 1.0, problem)
    gap = exc.value.gap
    assert 0.0 < gap <= GAP_REJECT_REL * problem.u0.norm()
    tr = solve(problem, "projected_euler", 1.0, 1.0)
    assert tr.breakdown == BreakdownRecord(time=1.0, gap=gap)
    assert len(tr.states) == 1


def _config(d, cells, tt_ranks, initial, sources=(), t_end=0.004):
    return {
        "dims": d,
        "cells": cells,
        "b0": (np.eye(d) + 0.25 * (np.ones((d, d)) - np.eye(d))).tolist(),
        "t_end": t_end,
        "tau": 0.001,
        "tt_ranks": tt_ranks,
        "initial": initial,
        "sources": list(sources),
    }


# mode ranks (2, 3, 3) and train ranks (2, 3): the train needs no rounding
INITIAL = [
    {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 3},
    {"coefficient": 0.5, "profiles": [{"kind": "sine", "frequency": 2}] * 3},
    {"coefficient": 0.25, "profiles": [{"kind": "sine", "frequency": 1},
                                       {"kind": "sine", "frequency": 3}, "bump"]},
]
PROFILES = {
    "sine": lambda f: (lambda x: np.sin(f * np.pi * x)),
    "bump": lambda f: (lambda x: x * (1.0 - x)),
}


def _dense_initial_data(disc, initial):
    """Sum of outer products of the transformed nodal profiles."""
    out = np.zeros(disc.dims)
    for term in initial:
        vecs = []
        for m, spec in enumerate(term["profiles"]):
            spec = spec if isinstance(spec, dict) else {"kind": spec}
            g = PROFILES[spec["kind"]](spec.get("frequency", 1))
            fem = disc.fems[m]
            nodes = (np.arange(fem.n_interior) + 1) * fem.h
            vecs.append(disc.to_orthonormal_1d(g(nodes), m))
        out += term["coefficient"] * np.einsum("i,j,k->ijk", *vecs)
    return DenseTensor.from_array(out)


@pytest.mark.parametrize("tt_ranks", [[2, 3], None])
def test_initial_point_and_auto_ranks_match_dense_construction(tt_ranks):
    problem, _ = problem_from_config(_config(3, 10, tt_ranks, INITIAL))
    x = _dense_initial_data(problem.disc, INITIAL)
    ranks = []
    for m in range(3):
        s = np.linalg.svd(matricize(x, {m}), compute_uv=False)
        r = int(np.count_nonzero(s > 1e-10 * s[0]))
        if tt_ranks is not None:
            r = min(r, generic_outer_ranks(x.dims, tt_ranks)[m])
        ranks.append(r)
    assert tuple(ranks) == (2, 3, 3)
    assert problem.outer_ranks == tuple(ranks) == problem.u0.outer_ranks
    ref = retract(x, ranks, tt_ranks)
    assert problem.u0.tt_core == ref.tt_core
    assert (point_to_dense(problem.u0) - point_to_dense(ref)).norm() <= REL * x.norm()


def _large_d_config(d):
    # three sine terms and train ranks 3 at 16 cells, as the set-up benchmark
    return _config(d, 16, [3] * (d - 1), [
        {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * d}
        for c, k in ((1.0, 1), (0.5, 2), (0.25, 3))
    ])


def test_setup_at_d8_stays_small():
    # the set-up once passed the train through a (k^2)^d wiring core: 219 MiB
    # traced at d = 8; on the train it peaks at about 0.5 MiB
    config = _large_d_config(8)
    tracemalloc.start()
    try:
        problem, _ = problem_from_config(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem.outer_ranks == (3,) * 8
    assert peak <= 4 * 2**20


def test_setup_at_d10_runs():
    problem, _ = problem_from_config(_large_d_config(10))
    assert problem.outer_ranks == problem.u0.outer_ranks == (3,) * 10
    assert problem.u0.core.ranks == (3,) * 9
    assert problem.u0.gap > GAP_REJECT_REL * problem.u0.norm()


def test_outer_rank_above_the_initial_train_is_config_error():
    # mode 0 of a train with interface ranks (2, 2) has rank at most 2; the
    # set-up once returned a u0 of outer ranks (2, 2, 2) for a problem that
    # claimed (3, 2, 2)
    config = dict(_config(3, 8, [2, 2], INITIAL), outer_ranks=[3, 2, 2])
    with pytest.raises(ConfigError, match="mode 0 has rank at most 2, below 3"):
        problem_from_config(config)


def test_single_mode_auto_outer_ranks_is_full_space():
    config = {
        "dims": 1,
        "cells": 8,
        "tt_ranks": [],
        "outer_ranks": "auto",
        "scheme": "projector_splitting",
        "initial": [{"profiles": [{"kind": "sine", "frequency": 1}]}],
    }
    problem, opts = problem_from_config(config)
    assert problem.outer_ranks == problem.u0.outer_ranks == (7,)
    assert generic_outer_ranks((7,), ()) == (7,)
    tr = solve(problem, opts["scheme"], opts["tau"], opts["t_end"])
    assert tr.breakdown is None and len(tr.states) == 11


@pytest.mark.parametrize(
    "dims, outer_a, tt_a, outer_b, tt_b",
    [
        ((6, 5), (2, 2), (2,), (3, 3), (3,)),
        ((6, 5), (3, 3), None, (2, 2), (2,)),
        ((5, 6, 4), (2, 3, 2), (2, 2), (2, 2, 2), (2, 2)),
        ((5, 6, 4), (2, 2, 2), None, (3, 2, 3), None),
        ((4, 5, 4, 3), (2, 2, 2, 2), (2, 2, 2), (3, 2, 2, 2), None),
    ],
)
def test_tucker_distance_matches_dense_difference(rng, dims, outer_a, tt_a, outer_b, tt_b):
    # train and plain-Tucker cores, unequal ranks, d = 2, 3, 4
    a = random_point(rng, dims, outer_a, tt_ranks=tt_a)
    b = random_point(rng, dims, outer_b, tt_ranks=tt_b)
    dense = (point_to_dense(a) - point_to_dense(b)).norm()
    assert abs(tucker_distance(a.tucker(), b.tucker()) - dense) <= 1e-12 * dense
    assert abs(tucker_distance(b.tucker(), a.tucker()) - dense) <= 1e-12 * dense
    # equal inputs, also as copies, give exactly zero
    core, factors = a.tucker()
    assert tucker_distance(a.tucker(), a.tucker()) == 0.0
    assert tucker_distance(a.tucker(), (core.copy(), [u.copy() for u in factors])) == 0.0


def test_energy_report_matches_dense_quadratures():
    source = {"time_poly": [1.0, 2.0], "profiles": ["constant", "bump", {"kind": "sine"}]}
    assert_report_matches_dense_quadratures([source])


def test_energy_report_of_two_sources_matches_dense_quadratures():
    # overlapping profiles and different time polynomials: the cross terms of
    # the load Gram matrix enter |f(t)|^2 with weights that change in time
    sources = [
        {"time_poly": [1.0, 2.0], "profiles": ["constant", "bump", {"kind": "sine"}]},
        {"time_poly": [-0.5, 0.0, 300.0], "profiles": ["bump", "constant", "constant"]},
    ]
    assert_report_matches_dense_quadratures(sources)


def assert_report_matches_dense_quadratures(sources):
    problem, opts = problem_from_config(_config(3, 10, [2, 3], INITIAL, sources))
    tau = opts["tau"]
    tr = solve(problem, "projected_euler", tau, opts["t_end"])
    rep = energy_report(tr, problem)
    states = tr.states
    du = sum(
        (point_to_dense(b.point) - point_to_dense(a.point)).norm() ** 2 / tau
        for a, b in zip(states[:-1], states[1:])
    )
    f_integral = sum(
        source_dense(problem.source_factors(s.time)).norm() ** 2 * tau for s in states[1:]
    )
    assert len(states) == 5
    assert rep.du_integral == pytest.approx(du, rel=REL)
    assert rep.data_f_integral == pytest.approx(f_integral, rel=REL)


def test_no_ambient_tensor_in_setup_solve_and_report(monkeypatch):
    # a 127^3 grid: any DenseTensor above 1e5 entries is an ambient quantity
    original = DenseTensor.__post_init__

    def guarded(self):
        if int(np.prod(self.dims)) > 1e5:
            raise AssertionError(f"ambient-size DenseTensor {self.dims} formed")
        original(self)

    monkeypatch.setattr(DenseTensor, "__post_init__", guarded)
    with pytest.raises(AssertionError):
        DenseTensor((50, 50, 50), np.zeros(1))
    source = {"time_poly": [1.0], "profiles": ["constant"] * 3}
    problem, _ = problem_from_config(_config(3, 128, [2, 2], INITIAL[:2], [source]))
    tr = solve(problem, "projected_euler", 0.001, 0.002)
    rep = energy_report(tr, problem)
    assert tr.breakdown is None and len(tr.states) == 3
    assert np.isfinite(rep.du_integral) and rep.data_f_integral > 0
