import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    from_orthonormal,
    nodal_convergence_error,
    prolong_coefficients,
    terminal_nodal,
    to_orthonormal,
)
from ttdlra.dense import DenseTensor
from ttdlra.errors import ConfigError
from ttdlra.experiments import (
    ExperimentConfig,
    config_hash,
    run_convergence,
    run_curvature_suite,
    run_diagnostics,
    run_solve,
    run_stability,
)


def base_problem(d=2, cells=8, tau=0.01, t_end=0.05, **kw):
    cfg = {
        "dims": d,
        "cells": cells,
        "b0": (np.eye(d) + 0.25 * (np.ones((d, d)) - np.eye(d))).tolist(),
        "t_end": t_end,
        "tau": tau,
        "scheme": "projected_euler",
        "tt_ranks": [2] * (d - 1),
        "initial": [
            {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * d},
            {"coefficient": 0.4, "profiles": [{"kind": "sine", "frequency": 2}] * d},
        ],
    }
    cfg.update(kw)
    return cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "nope", "problem": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"kind": "convergence", "problem": {}, "ladder": [8, 8], "reference_cells": 16}
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"kind": "convergence", "problem": {}, "ladder": [4, 8], "reference_cells": 12}
        )
    cfg = ExperimentConfig.from_dict(
        {"kind": "convergence", "problem": {}, "ladder": [4, 8], "reference_cells": 16}
    )
    assert cfg.ladder == (4, 8)


def test_config_hash_stable():
    a = config_hash({"b": 1, "a": [1.5, 2.0]})
    b = config_hash({"a": [1.5, 2.0], "b": 1})
    assert a == b and len(a) == 16


def test_run_solve_writes_deterministic_outputs(tmp_path):
    raw = {
        "kind": "solve",
        "problem": base_problem(),
        "seed": 3,
        "out_dir": str(tmp_path / "a"),
    }
    res1 = run_solve(ExperimentConfig.from_dict(raw))
    raw2 = dict(raw, out_dir=str(tmp_path / "b"))
    res2 = run_solve(ExperimentConfig.from_dict(raw2))
    body1 = open(res1.csv_path, "rb").read().split(b"\n", 1)[1]
    body2 = open(res2.csv_path, "rb").read().split(b"\n", 1)[1]
    assert body1 == body2
    # identical directory rerun: every byte identical including metadata line
    res3 = run_solve(ExperimentConfig.from_dict(raw))
    assert open(res1.csv_path, "rb").read() == open(res3.csv_path, "rb").read()
    meta = json.load(open(res1.meta_path))
    assert meta["library_version"]
    hashable = {k: v for k, v in raw.items() if k not in ("out_dir", "threads")}
    assert meta["config_hash"] == config_hash(hashable)
    assert not res1.broke_down


def test_run_solve_monotone_energy_column(tmp_path):
    raw = {
        "kind": "solve",
        "problem": base_problem(t_end=0.1, tau=0.01),
        "out_dir": str(tmp_path),
    }
    res = run_solve(ExperimentConfig.from_dict(raw))
    lines = open(res.csv_path).read().strip().split("\n")
    rows = [line.split(",") for line in lines[2:]]
    energies = [float(r[2]) for r in rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_run_solve_zero_horizon_single_row(tmp_path):
    raw = {
        "kind": "solve",
        "problem": base_problem(t_end=0.0),
        "out_dir": str(tmp_path),
    }
    res = run_solve(ExperimentConfig.from_dict(raw))
    lines = open(res.csv_path).read().strip().split("\n")
    assert len(lines) == 3  # metadata, header, one state


def test_run_convergence_small_ladder(tmp_path):
    raw = {
        "kind": "convergence",
        "problem": base_problem(d=2, tau=0.005, t_end=0.02),
        "ladder": [4, 8],
        "reference_cells": 16,
        "out_dir": str(tmp_path),
        "threads": 2,
    }
    table = run_convergence(ExperimentConfig.from_dict(raw))
    errs = table.errors
    assert errs[1] < errs[0]
    assert table.rows[1][3] == pytest.approx(errs[1] / errs[0])
    assert os.path.exists(table.csv_path)


def test_identical_meshes_give_zero_error(tmp_path):
    # degenerate check: comparing the reference against itself
    from ttdlra.problems import problem_from_config

    pcfg = base_problem(d=2, cells=8, tau=0.01, t_end=0.02)
    problem, opts = problem_from_config(pcfg)
    a = terminal_nodal(problem, opts)
    b = terminal_nodal(problem, opts)
    assert (a - b).norm() == 0.0


def test_full_rank_ladder_shows_classical_fem_rate():
    # with maximal ranks on every mesh the evolution is unconstrained, so the
    # ladder reproduces the classical second-order L2 convergence of P1
    from ttdlra.integrate import solve
    from ttdlra.manifold import point_to_dense
    from ttdlra.problems import heat_problem

    tau, t_end = 0.002, 0.02
    b0 = np.array([[1.0, 0.25], [0.25, 1.0]])

    def run(n):
        ranks = n - 1
        terms = [
            (0.6**j, [(lambda k: (lambda x: np.sin(k * np.pi * x)))(j)] * 2)
            for j in range(1, min(6, ranks) + 1)
        ]
        problem = heat_problem(
            2, n, tt_ranks=(min(6, ranks),), b0=b0, initial_terms=terms, t_end=t_end
        )
        tr = solve(problem, "projected_euler", tau=tau, t_end=t_end)
        return problem, point_to_dense(tr.states[-1].point)

    ref_problem, ref = run(32)
    ref_nodal = from_orthonormal(ref_problem.disc, ref)
    errors = []
    for n in (4, 8, 16):
        problem, term = run(n)
        nodal = from_orthonormal(problem.disc, term)
        lifted = prolong_coefficients(nodal, n, 32)
        errors.append(to_orthonormal(ref_problem.disc, lifted - ref_nodal).norm())
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    assert all(0.15 <= r <= 0.4 for r in ratios)


def test_factored_convergence_error_matches_nodal_path(tmp_path):
    # the errors of run_convergence, from factors lifted mode by mode, against
    # the ambient path: nodal tensors prolonged and differenced on the grid
    from ttdlra.problems import problem_from_config

    pcfg = base_problem(d=3, tau=0.005, t_end=0.02)
    raw = {
        "kind": "convergence",
        "problem": pcfg,
        "ladder": [4, 8],
        "reference_cells": 16,
        "out_dir": str(tmp_path),
    }
    table = run_convergence(ExperimentConfig.from_dict(raw))

    def nodal(n):
        problem, opts = problem_from_config(dict(pcfg, cells=n))
        return problem.disc, terminal_nodal(problem, opts)

    ref_disc, ref = nodal(16)
    for n, _, err, _ in table.rows:
        expected = nodal_convergence_error(nodal(n)[1], ref, n, 16, ref_disc)
        assert abs(err - expected) <= 1e-12 * expected


@pytest.mark.parametrize("kind", ["convergence", "stability"])
def test_runs_build_no_tensor_of_the_finest_grid(tmp_path, monkeypatch, kind):
    # the errors are distances of factored states and cores are arrays: no
    # DenseTensor at all (the source perturbation needs no ambient direction)
    sizes = []
    post_init = DenseTensor.__post_init__

    def counted_post_init(self):
        post_init(self)
        sizes.append(self.data.size)

    monkeypatch.setattr(DenseTensor, "__post_init__", counted_post_init)
    DenseTensor.from_array(np.zeros((2, 3)))
    assert sizes == [6]  # the hook counts
    sizes.clear()
    raw = {"kind": kind, "problem": base_problem(d=3, tau=0.005, t_end=0.02)}
    if kind == "convergence":
        raw.update(ladder=[4, 8], reference_cells=16, out_dir=str(tmp_path))
        run_convergence(ExperimentConfig.from_dict(raw))
    else:
        raw.update(deltas=[1e-2], perturb="source", out_dir=str(tmp_path))
        run_stability(ExperimentConfig.from_dict(raw))
    assert sizes == []


def test_prolongation_is_exact_p1_injection(rng):
    # the doubled block equals the product with the injection matrix bit for
    # bit, and interpolates the coarse piecewise-linear function
    from ttdlra.experiments import _prolong_1d

    for n in (2, 3, 4, 5, 8, 33):
        p = np.zeros((2 * n - 1, n - 1))
        c = np.arange(n - 1)  # coarse node c is fine node 2c + 1
        p[2 * c + 1, c] = 1.0
        p[2 * c, c] = p[2 * c + 2, c] = 0.5
        block = rng.standard_normal((n - 1, 3))
        fine = _prolong_1d(block)
        assert np.array_equal(fine, p @ block)

        def coarse_fun(x, vals=block[:, 0]):
            # piecewise linear with values `vals` at the interior nodes
            nodes = np.concatenate([[0], np.arange(1, n) / n, [1]])
            return np.interp(x, nodes, np.concatenate([[0], vals, [0]]))

        fine_nodes = np.arange(1, 2 * n) / (2 * n)
        np.testing.assert_allclose(fine[:, 0], coarse_fun(fine_nodes), atol=1e-14)


def test_run_stability_linear_regime(tmp_path):
    raw = {
        "kind": "stability",
        "problem": base_problem(d=2, tau=0.005, t_end=0.05),
        "deltas": [1e-2, 5e-3],
        "out_dir": str(tmp_path),
        "seed": 11,
    }
    rep = run_stability(ExperimentConfig.from_dict(raw))
    assert 1.6 <= rep.terminal_ratios[0] <= 2.4
    assert np.isfinite(rep.fitted_rate)
    assert np.isfinite(rep.envelope_factor)


def test_run_stability_identical_data_is_deterministic(tmp_path):
    raw = {
        "kind": "stability",
        "problem": base_problem(d=2, tau=0.01, t_end=0.03),
        "deltas": [0.0],
        "out_dir": str(tmp_path),
    }
    # a zero perturbation reproduces the base run exactly (solver determinism)
    rep = run_stability(ExperimentConfig.from_dict(raw))
    assert rep.terminal_diffs[0] <= 1e-12


def test_run_stability_source_perturbation(tmp_path):
    raw = {
        "kind": "stability",
        "problem": base_problem(d=2, tau=0.005, t_end=0.05),
        "deltas": [1e-2, 5e-3],
        "perturb": "source",
        "out_dir": str(tmp_path),
    }
    rep = run_stability(ExperimentConfig.from_dict(raw))
    assert rep.initial_diffs[0] == 0.0
    assert 1.6 <= rep.terminal_ratios[0] <= 2.4


def test_run_curvature_suite_small(tmp_path):
    raw = {
        "kind": "curvature",
        "problem": {},
        "seed": 5,
        "out_dir": str(tmp_path),
        "suite": {
            "matrix_pairs": 10,
            "aligned_draws": 25,
            "truncation_instances": 6,
            "heuristic_pairs": 3,
        },
    }
    rep = run_curvature_suite(ExperimentConfig.from_dict(raw))
    assert rep.theorem_violations == 0
    assert rep.counts["matrix_pairs"] == 10
    assert rep.heuristic_observations["pairs"] == 3
    assert os.path.exists(rep.csv_path)


def _fresh_stdout(code, *args):
    """The stdout words of ``code`` run in a fresh interpreter on the package source."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_curvature_suite_leaves_scipy_linalg_unloaded(tmp_path):
    # the package loads scipy's LAPACK wrapper on the first banded
    # factorization, which the suite never makes
    raw = {
        "kind": "curvature",
        "seed": 5,
        "out_dir": str(tmp_path),
        "suite": {"matrix_pairs": 4, "aligned_draws": 4, "truncation_instances": 2},
    }
    code = (
        "import json, sys\n"
        "import ttdlra\n"
        "ttdlra.run_curvature_suite(ttdlra.ExperimentConfig.from_dict(json.loads(sys.argv[1])))\n"
        "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)\n"
    )
    assert _fresh_stdout(code, json.dumps(raw)) == ["False", "False"]


def test_solves_leave_scipy_linalg_unloaded():
    # both schemes factor and solve banded matrices through the LAPACK
    # wrapper alone, without the scipy.linalg package
    code = (
        "import json, sys\n"
        "import ttdlra\n"
        "for raw in json.loads(sys.argv[1]):\n"
        "    problem, run = ttdlra.problem_from_config(raw)\n"
        "    trajectory = ttdlra.solve(problem, run['scheme'], run['tau'], run['t_end'])\n"
        "    assert trajectory.breakdown is None and len(trajectory.states) == 3\n"
        "    print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)\n"
    )
    raws = [
        base_problem(d=3, cells=6, t_end=0.02),
        base_problem(d=2, cells=6, t_end=0.02, scheme="projector_splitting"),
    ]
    assert _fresh_stdout(code, json.dumps(raws)) == ["False", "True"] * 2


def test_lapack_routines_are_scipy_linalg_lapacks():
    # loaded first, by threads that call at once (as run_stability's workers
    # may), the wrapper is one module, which a later import of scipy.linalg
    # reuses; if scipy moves _flapack, the load or the identity fails here
    names = ("dpbtrf", "dtbtrs", "dpttrf", "dpttrs")
    code = (
        "import sys, threading\n"
        "from ttdlra.fem import _lapack\n"
        "barrier, got = threading.Barrier(4), []\n"
        "def first():\n"
        "    barrier.wait()\n"
        "    got.append(_lapack())\n"
        "threads = [threading.Thread(target=first) for _ in range(4)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "wrapper = got[0]\n"
        "import scipy.linalg\n"
        "print(len(got) == 4 and all(w is wrapper for w in got), _lapack() is wrapper)\n"
        "print(sys.modules['scipy.linalg._flapack'] is wrapper)\n"
        "print(*(getattr(wrapper, n) is getattr(scipy.linalg.lapack, n) for n in sys.argv[1:]))\n"
    )
    assert _fresh_stdout(code, *names) == ["True"] * (3 + len(names))
    # and in this process, where test modules import scipy.linalg as well
    import scipy.linalg

    from ttdlra.fem import _lapack

    assert all(getattr(_lapack(), n) is getattr(scipy.linalg.lapack, n) for n in names)


def test_run_diagnostics_clean_problem(tmp_path):
    raw = {
        "kind": "diagnostics",
        "problem": base_problem(d=3, cells=6, tau=0.01, t_end=0.02),
        "out_dir": str(tmp_path),
    }
    rep = run_diagnostics(ExperimentConfig.from_dict(raw))
    assert rep.violations == 0
    assert rep.checks["tangency_ok"]
    assert rep.checks["negative_control_failed_as_expected"]
    assert rep.checks["negative_control_residual"] >= 1e-2
    assert json.load(open(rep.meta_path))["checks"]["coercivity_ok"]
