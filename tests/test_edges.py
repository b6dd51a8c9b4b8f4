"""Edge values at the public entry points: each call returns a result or raises
one of the types in ``ttdlra.errors``, never numpy's ``LinAlgError``, a bare
``RuntimeError`` or an ``OverflowError``.  The rows name the outcome each
entry point documents; ``None`` means a result."""

import numpy as np
import pytest

from ttdlra import errors
from ttdlra.dense import AMBIENT_LIMIT, DenseTensor
from ttdlra.errors import InvalidArgumentError, OversizeError
from ttdlra.fem import DiffusionCoefficient
from ttdlra.manifold import make_point, point_to_dense
from ttdlra.problems import problem_from_config
from ttdlra.retraction import retract, retract_train
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


def _each(outcome):
    return dict.fromkeys(EDGES, outcome)


# entry point -> (call, the documented outcome for each edge value)
NON_FINITE = {
    "DenseTensor": (_dense, _each(None)),
    "make_point core": (_make_point_core, _each(InvalidArgumentError)),
    "make_point factor": (_make_point_factor, _each(InvalidArgumentError)),
    "retract": (_retract, _each(InvalidArgumentError)),
    "retract_train": (_retract_train, _each(InvalidArgumentError)),
    # any draw reaches a gap of -inf; none reaches inf or compares with NaN
    "random_point min_gap_rel": (
        _random_point,
        {"nan": InvalidArgumentError, "inf": InvalidArgumentError, "-inf": None},
    ),
    "DiffusionCoefficient b0": (_diffusion("b0"), _each(InvalidArgumentError)),
    "DiffusionCoefficient b1": (_diffusion("b1"), _each(InvalidArgumentError)),
    "DiffusionCoefficient horizon": (_diffusion("horizon"), _each(InvalidArgumentError)),
    "problem_from_config b0": (_config("b0"), _each(errors.ConfigError)),
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
