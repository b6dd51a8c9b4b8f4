"""Edge values at the public entry points: each call returns a result or raises
one of the types in ``ttdlra.errors``, never numpy's ``LinAlgError``, a bare
``RuntimeError`` or an ``OverflowError``.  The rows name the outcome each
entry point documents; ``None`` means a result."""

import dataclasses
import json

import numpy as np
import pytest

from ttdlra import cli, errors, sampling
from ttdlra.dense import AMBIENT_LIMIT, DenseTensor
from ttdlra.errors import ConfigError, InvalidArgumentError, OversizeError
from ttdlra.fem import DiffusionCoefficient
from ttdlra.integrate import energy_report, solve
from ttdlra.manifold import make_point, point_to_dense
from ttdlra.problems import heat_problem, problem_from_config
from ttdlra.retraction import retract, retract_train, retract_tucker
from ttdlra.sampling import random_dense, random_orthonormal, random_point, random_tt
from ttdlra.tt import TTTensor

DOCUMENTED = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)
EDGES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def _poisoned(arr, value):
    """A float copy of ``arr`` with ``value`` in its middle entry."""
    arr = np.array(arr, dtype=float)
    arr.flat[arr.size // 2] = value
    return arr


def _dense(value):
    return DenseTensor.from_array(_poisoned(np.ones((3, 4)), value))


def _make_point_core(value):
    rng = np.random.default_rng(1)
    factors = [random_orthonormal(rng, 5, 2) for _ in range(3)]
    return make_point(_poisoned(rng.standard_normal((2, 2, 2)), value), factors)


def _make_point_factor(value):
    rng = np.random.default_rng(2)
    factors = [random_orthonormal(rng, 5, 2) for _ in range(3)]
    factors[1] = _poisoned(factors[1], value)
    return make_point(rng.standard_normal((2, 2, 2)), factors)


def _retract(value):
    x = _poisoned(np.random.default_rng(3).standard_normal((4, 4, 4)), value)
    return retract(DenseTensor.from_array(x), (2, 2, 2), (2, 2))


def _retract_train(value):
    t = random_tt(np.random.default_rng(4), (5, 5, 5), (2, 2))
    cores = list(t.cores)
    cores[1] = _poisoned(cores[1], value)  # the middle core
    return retract_train(TTTensor(tuple(cores)), (2, 2, 2), (2, 2))


def _retract_tucker(part):
    def build(value):
        rng = np.random.default_rng(6)
        core = rng.standard_normal((4, 4, 4))
        factors = [rng.standard_normal((6, 4)) for _ in range(3)]
        origin = rng.standard_normal((2, 2, 2))
        if part == "core":
            core = _poisoned(core, value)
        else:
            factors[1] = _poisoned(factors[1], value)
        return retract_tucker(core, factors, origin, (2, 2, 2), (2, 2))

    return build


def _random_point(value):
    return random_point(np.random.default_rng(5), (5, 5), (2, 2), (2,), min_gap_rel=value)


def _diffusion(field):
    def build(value):
        data = {"b0": np.eye(2), "b1": np.zeros((2, 2)), "horizon": 1.0}
        data[field] = _poisoned(data[field], value) if field != "horizon" else value
        return DiffusionCoefficient(data["b0"], data["b1"], horizon=data["horizon"])

    return build


def _config(field):
    def build(value):
        cfg = {
            "dims": 2,
            "cells": 8,
            "b0": [[1.0, 0.2], [0.2, 1.0]],
            "t_end": 0.02,
            "tau": 0.01,
            "scheme": "projected_euler",
            "tt_ranks": [2],
            "initial": [
                {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 2},
                {"coefficient": 0.5, "profiles": [{"kind": "sine", "frequency": 2}] * 2},
            ],
        }
        if field == "b0":
            cfg["b0"] = _poisoned(cfg["b0"], value).tolist()
        else:
            cfg[field] = value
        return problem_from_config(cfg)

    return build


def _energy_report(step_size):
    problem = heat_problem(2, 8, (2,), t_end=0.02)
    trajectory = solve(problem, "projected_euler", 0.01, 0.02)
    return energy_report(dataclasses.replace(trajectory, step_size=step_size), problem)


def _each(outcome):
    return dict.fromkeys(EDGES, outcome)


# entry point -> (call, the documented outcome for each edge value)
NON_FINITE = {
    "DenseTensor": (_dense, _each(None)),
    "make_point core": (_make_point_core, _each(InvalidArgumentError)),
    "make_point factor": (_make_point_factor, _each(InvalidArgumentError)),
    "retract": (_retract, _each(InvalidArgumentError)),
    "retract_train": (_retract_train, _each(InvalidArgumentError)),
    "retract_tucker core": (_retract_tucker("core"), _each(InvalidArgumentError)),
    "retract_tucker factor": (_retract_tucker("factor"), _each(InvalidArgumentError)),
    # any draw reaches a gap of -inf; none reaches inf or compares with NaN
    "random_point min_gap_rel": (
        _random_point,
        {"nan": InvalidArgumentError, "inf": InvalidArgumentError, "-inf": None},
    ),
    "DiffusionCoefficient b0": (_diffusion("b0"), _each(InvalidArgumentError)),
    "DiffusionCoefficient b1": (_diffusion("b1"), _each(InvalidArgumentError)),
    "DiffusionCoefficient horizon": (_diffusion("horizon"), _each(InvalidArgumentError)),
    "problem_from_config b0": (_config("b0"), _each(errors.ConfigError)),
    "energy_report step_size": (_energy_report, _each(InvalidArgumentError)),
    # the horizon is max(t_end, 1e-12); a run refuses t_end <= 0 before its first step
    "problem_from_config t_end": (
        _config("t_end"),
        {"nan": errors.ConfigError, "inf": errors.ConfigError, "-inf": None},
    ),
}


def _outcome(call, value):
    try:
        call(value)
    except DOCUMENTED as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.parametrize("entry", sorted(NON_FINITE))
def test_non_finite_input_gives_a_result_or_a_documented_error(entry, edge):
    call, outcomes = NON_FINITE[entry]
    assert _outcome(call, EDGES[edge]) is outcomes[edge]


@pytest.mark.parametrize("step_size", [0.0, -0.0, -0.01])
def test_energy_report_refuses_a_step_size_that_is_not_positive(step_size):
    # a zero step size divided by zero in the report's quadratures
    assert _outcome(_energy_report, step_size) is InvalidArgumentError
    assert _outcome(_energy_report, 0.01) is None


def test_heat_problem_refuses_a_cell_list_of_the_wrong_length():
    with pytest.raises(InvalidArgumentError, match="2 cell counts for 3 modes"):
        heat_problem(3, [5, 6], (2, 2))


def test_dense_tensor_is_refused_above_the_ambient_limit():
    side = int(np.sqrt(AMBIENT_LIMIT)) + 1  # 65 x 65 = 4225 entries
    with pytest.raises(OversizeError):
        DenseTensor((side, side), np.zeros(side * side))
    with pytest.raises(OversizeError):
        DenseTensor.from_array(np.zeros((side, side)))
    # mode sizes whose product overflows a 64-bit integer are refused too
    with pytest.raises(OversizeError):
        DenseTensor((2**40, 2**40), np.zeros(1))
    assert DenseTensor.from_array(np.zeros((64, 64))).size == AMBIENT_LIMIT


class _NoDraws:
    def standard_normal(self, *args):
        raise AssertionError("drew before the size check")


def test_ambient_oracles_are_refused_before_they_allocate():
    with pytest.raises(OversizeError):
        random_dense(_NoDraws(), (17, 17, 17))
    p = random_point(np.random.default_rng(7), (17, 17, 17), (2, 2, 2), (2, 2))
    with pytest.raises(OversizeError):
        point_to_dense(p)
    # the low-rank point itself is not an ambient tensor
    assert p.expanded.shape == (2, 2, 2) and p.core.dims == (2, 2, 2)


def test_failed_draws_name_the_requested_and_the_best_gap():
    rng = np.random.default_rng(8)
    with pytest.raises(InvalidArgumentError, match=r"relative gap 0\.9 \(best 0\.\d+\)"):
        random_point(rng, (5, 5), (2, 2), (2,), min_gap_rel=0.9)
    with pytest.raises(InvalidArgumentError, match=r"relative gap 0\.9 \(best 0\.\d+\)"):
        random_tt(rng, (2, 2), (2,), min_gap_rel=0.9)


def _raise_type_error(*args, **kwargs):
    raise TypeError("a defect, not a failed draw")


@pytest.mark.parametrize(
    "name, draw",
    [
        ("make_point", lambda rng: random_point(rng, (5, 5), (2, 2))),
        ("_measured", lambda rng: random_point(rng, (5, 5), (2, 2), (2,))),
        ("boundary_gap", lambda rng: random_tt(rng, (3, 3), (2,))),
    ],
)
def test_draw_loops_pass_on_errors_they_do_not_document(monkeypatch, name, draw):
    # the loops retry only on DegeneratePointError and NotOnManifoldError; any
    # other error is a defect that must surface, not 50 silent failed draws
    monkeypatch.setattr(sampling, name, _raise_type_error)
    with pytest.raises(TypeError, match="a defect"):
        draw(np.random.default_rng(8))


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_diffusion_rejects_a_non_finite_horizon(horizon):
    # b0 + inf * 0 was a NaN matrix, and min(lo, nan) kept the margin at 1
    with pytest.raises(InvalidArgumentError, match="horizon"):
        DiffusionCoefficient(np.eye(2), np.zeros((2, 2)), horizon=horizon)


def test_diffusion_rejects_an_infinite_drift_entry():
    b1 = np.zeros((2, 2))
    b1[0, 0] = np.inf
    with pytest.raises(InvalidArgumentError, match="b1"):
        DiffusionCoefficient(np.eye(2), b1, horizon=1.0)


def _one_mode_config(dims):
    profiles = [{"kind": "sine", "frequency": 1}] * dims
    return {"dims": dims, "cells": 8, "tt_ranks": [], "initial": [{"profiles": profiles}]}


# entry point -> (a call with fewer than two modes, the documented error)
ONE_MODE = {
    "problem_from_config dims 0": (lambda: problem_from_config(_one_mode_config(0)), ConfigError),
    "problem_from_config dims 1": (lambda: problem_from_config(_one_mode_config(1)), ConfigError),
    "heat_problem": (lambda: heat_problem(1, 8, ()), InvalidArgumentError),
    "make_point array core": (lambda: make_point(np.ones(3), [np.eye(3)]), InvalidArgumentError),
    "make_point train core": (
        lambda: make_point(TTTensor((np.ones((1, 3, 1)),)), [np.eye(3)]),
        InvalidArgumentError,
    ),
    "retract": (
        lambda: retract(DenseTensor.from_array(np.arange(1.0, 5.0)), (4,)),
        InvalidArgumentError,
    ),
    "retract_train": (
        lambda: retract_train(TTTensor((np.arange(1.0, 5.0).reshape(1, 4, 1),)), (4,)),
        InvalidArgumentError,
    ),
    "random_point": (
        lambda: random_point(np.random.default_rng(9), (5,), (2,)),
        InvalidArgumentError,
    ),
}


@pytest.mark.parametrize("entry", sorted(ONE_MODE))
def test_one_mode_input_is_refused_where_it_enters(entry):
    # a point has at least two modes: with one there is no rank to constrain
    call, error = ONE_MODE[entry]
    with pytest.raises(DOCUMENTED) as exc:
        call()
    assert exc.type is error


def test_one_mode_config_exits_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"problem": _one_mode_config(1), "seed": 0}))
    assert cli.main(["diagnose", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
