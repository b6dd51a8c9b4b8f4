"""The benchmark's tracer must observe the package without changing it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys

import numpy as np

import ttdlra
from ttdlra import integrate, problems, retraction, tangent
from ttdlra.fem import laplacian_operator
from tracer import LAYERS, Tracer


def _problem():
    d = 3
    b0 = np.eye(d) + 0.25 * (np.ones((d, d)) - np.eye(d))
    cfg = {
        "dims": d,
        "cells": 8,
        "b0": b0.tolist(),
        "t_end": 3e-3,
        "tau": 1e-3,
        "tt_ranks": [2, 2],
        "initial": [
            {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * d},
            {"coefficient": 0.5, "profiles": [{"kind": "sine", "frequency": 2}] * d},
        ],
        "sources": [{"time_poly": [1.0], "profiles": ["constant"] * d}],
    }
    return ttdlra.problem_from_config(cfg)[0]


def _run(tracer=None):
    def body():
        problem = _problem()
        tr = ttdlra.solve(problem, "projected_euler", 1e-3, 3e-3)
        rep = ttdlra.energy_report(tr, problem)
        return rep.l2_terminal, rep.v_integral

    if tracer is None:
        return body()
    with tracer:
        return tracer.run_phase("run", body)


def _lookup_sites():
    return {
        (name, key): value
        for name, mod in sys.modules.items()
        if name == "ttdlra" or name.startswith("ttdlra.")
        for key, value in vars(mod).items()
    }


def test_traced_run_is_bit_identical_and_counts_repeat():
    plain = _run()
    first, second = Tracer(7**3), Tracer(7**3)
    assert _run(first) == plain
    assert _run(second) == plain
    assert first.signature() == second.signature()
    assert first.counts[("run", "retraction.retract")] == 4  # initial point + 3 steps
    assert first.counts[("run", "tangent.basis")] == 3
    assert first.counts[("run", "dense.ambient_tensors")] > 0


def test_every_lookup_site_is_wrapped_and_restored():
    before = _lookup_sites()
    original = retraction.retract
    post_init = vars(ttdlra.DenseTensor)["__post_init__"]
    with Tracer():
        assert vars(ttdlra.DenseTensor)["__post_init__"] is not post_init
        assert integrate.retract is not original
        assert problems.retract is integrate.retract
        assert retraction.retract is integrate.retract
        assert integrate.retract.__wrapped__ is original
    assert _lookup_sites() == before
    assert vars(ttdlra.DenseTensor)["__post_init__"] is post_init


def test_wrapped_class_keeps_isinstance():
    problem = _problem()
    op = laplacian_operator(problem.disc)
    original = tangent.TangentBasis
    with Tracer() as tracer:
        basis = integrate.TangentBasis(problem.u0)
        assert type(basis) is not original
        assert isinstance(basis, original)
        # operator_quadratic_form unwraps a basis through isinstance
        traced_form = integrate.operator_quadratic_form(basis, op)
    assert tangent.TangentBasis is original
    assert isinstance(basis, tangent.TangentBasis)
    assert traced_form == integrate.operator_quadratic_form(problem.u0, op)
    assert tracer.counts[(None, "tangent.basis")] == 1
    assert tracer.values[(None, "tangent.basis.dim")] == basis.dim


def test_missing_layer_is_skipped(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(
        tracer_module, "LAYERS", LAYERS + (("integrate", "no_such_name", "x.y", "span"),)
    )
    before = _lookup_sites()
    with Tracer():
        pass
    assert _lookup_sites() == before


def test_phase_stats_self_time():
    tracer = Tracer()
    tracer.spans = [
        ["solve", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
        ["a", 5.2, 5.5, 3],  # nested in a span of the same name: not counted twice
    ]
    inclusive, total, self_s, runs = tracer.phase_stats("solve")
    assert inclusive == {"a": 4.0, "b": 1.0}
    assert (total, self_s, runs) == (10.0, 6.0, 1)
