import json
import os
import subprocess
import sys

import numpy as np
import pytest

PKG_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ttdlra.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
    )


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def heat_config(**kw):
    cfg = {
        "problem": {
            "dims": 2,
            "cells": 8,
            "b0": [[1.0, 0.25], [0.25, 1.0]],
            "t_end": 0.05,
            "tau": 0.005,
            "scheme": "projected_euler",
            "tt_ranks": [2],
            "initial": [
                {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 2},
                {"coefficient": 0.4, "profiles": [{"kind": "sine", "frequency": 2}] * 2},
            ],
        },
        "seed": 0,
    }
    cfg.update(kw)
    return cfg


def test_solve_command_ok(tmp_path):
    cfg = write_config(tmp_path / "c.json", heat_config())
    out = tmp_path / "out"
    proc = run_cli(["solve", "--config", cfg, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.csv").exists()
    assert (out / "metadata.json").exists()
    assert "states:" in proc.stdout


def test_solve_breakdown_exit_code(tmp_path):
    payload = heat_config()
    payload["problem"]["t_end"] = 0.4
    payload["problem"]["cells"] = 12
    payload["problem"]["tau"] = 0.0025
    payload["problem"]["b0"] = [[1.0, 0.0], [0.0, 1.0]]
    payload["problem"]["initial"] = [
        {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 2},
        {"coefficient": 0.15, "profiles": [{"kind": "sine", "frequency": 3}] * 2},
    ]
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    proc = run_cli(["solve", "--config", cfg, "--out", str(out)])
    assert proc.returncode == 3, proc.stdout + proc.stderr
    meta = json.load(open(out / "metadata.json"))
    assert meta["breakdown"] is not None
    assert meta["breakdown"]["time"] < 0.4
    # recorded gap sits at or below the relative threshold
    rows = open(out / "trajectory.csv").read().strip().split("\n")[2:]
    last = rows[-1].split(",")
    assert float(last[1]) <= 1e-8 * np.sqrt(float(last[2]))


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path / "broken.json", {"problem": {"dims": "x"}})
    proc = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    proc = run_cli(["solve", "--config", str(tmp_path / "missing.json")])
    assert proc.returncode == 2


def test_ladder_validation_exit_code(tmp_path):
    payload = heat_config(ladder=[8, 4], reference_cells=16)
    cfg = write_config(tmp_path / "c.json", payload)
    proc = run_cli(["converge", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.json", heat_config(seed=7))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    p1 = run_cli(["solve", "--config", cfg, "--out", str(out1)])
    p2 = run_cli(["solve", "--config", cfg, "--out", str(out2)])
    assert p1.returncode == 0 and p2.returncode == 0
    body = lambda p: open(p / "trajectory.csv", "rb").read().split(b"\n", 1)[1]
    assert body(out1) == body(out2)
    meta1 = json.load(open(out1 / "metadata.json"))
    meta2 = json.load(open(out2 / "metadata.json"))
    meta1.pop("out_dir", None), meta2.pop("out_dir", None)
    assert meta1 == meta2


def test_threads_env_override(tmp_path):
    cfg = write_config(tmp_path / "c.json", heat_config())
    proc = run_cli(
        ["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"],
        env_extra={"TTDLRA_THREADS": "not-a-number"},
    )
    assert proc.returncode == 2
    proc = run_cli(
        ["solve", "--config", cfg, "--out", str(tmp_path / "o")],
        env_extra={"TTDLRA_THREADS": "2"},
    )
    assert proc.returncode == 0


def test_curvature_command(tmp_path):
    payload = {
        "seed": 1,
        "suite": {
            "matrix_pairs": 6,
            "aligned_draws": 12,
            "truncation_instances": 4,
            "heuristic_pairs": 2,
        },
    }
    cfg = write_config(tmp_path / "c.json", payload)
    proc = run_cli(["curvature", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "violations" in proc.stdout


def test_diagnose_command(tmp_path):
    cfg = write_config(tmp_path / "c.json", heat_config())
    proc = run_cli(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tangency_ok: True" in proc.stdout


def test_kind_mismatch_is_config_error(tmp_path):
    payload = heat_config(kind="stability", deltas=[0.01])
    cfg = write_config(tmp_path / "c.json", payload)
    proc = run_cli(["solve", "--config", cfg])
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "command, payload",
    [
        ("solve", [heat_config()]),
        ("solve", heat_config(seed="abc")),
        ("converge", heat_config(ladder=5, reference_cells=16)),
    ],
    ids=["top-level-array", "non-integer-seed", "scalar-ladder"],
)
def test_malformed_config_values_are_config_errors(tmp_path, command, payload):
    cfg = write_config(tmp_path / "c.json", payload)
    proc = run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, payload",
    [
        ("curvature", {"kind": "curvature"}),
        ("stability", heat_config(deltas=[0.01])),
        ("diagnose", heat_config()),
    ],
    ids=["curvature", "stability", "diagnose"],
)
def test_negative_seed_is_config_error(tmp_path, command, payload):
    # numpy refuses a negative seed; the configuration must refuse it first
    cfg = write_config(tmp_path / "c.json", payload)
    proc = run_cli([command, "--config", cfg, "--seed", "-2", "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_dims_is_config_error(tmp_path):
    # a zero-mode problem once reached the diffusion check, whose eigvalsh of
    # a 0 x 0 matrix is empty, and ended in an uncaught IndexError
    with open(os.path.join(PKG_SRC, "..", "configs", "solve_rank_collapse.json")) as fh:
        payload = json.load(fh)
    payload["problem"]["dims"] = 0
    cfg = write_config(tmp_path / "c.json", payload)
    proc = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_suite_value_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"kind": "curvature", "suite": {"matrix_pairs": "x"}})
    proc = run_cli(["curvature", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_suite_entry_is_config_error(tmp_path):
    # a misspelled suite size must not fall back to its default
    cfg = write_config(tmp_path / "c.json", {"kind": "curvature", "suite": {"matrix_pair": 5}})
    proc = run_cli(["curvature", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr


def test_non_string_out_dir_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.json", heat_config(out_dir=5))
    proc = run_cli(["solve", "--config", cfg])
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_options_are_checked_before_the_run(tmp_path):
    # options that solve would refuse are a ConfigError before the first step;
    # a diagnostics run, which never solves, does not check them
    from ttdlra.errors import ConfigError
    from ttdlra.experiments import ExperimentConfig, run_diagnostics, run_solve

    for options in (
        {"scheme": "leapfrog"},
        {"scheme": "projector_splitting", "tt_ranks": None},
        {"tau": 0.0},
        {"tau": -0.005},
        {"tau": 0.003},
    ):
        raw = heat_config(kind="solve", out_dir=str(tmp_path / "solve"))
        raw["problem"] = dict(raw["problem"], **options)
        with pytest.raises(ConfigError):
            run_solve(ExperimentConfig.from_dict(raw))
    raw = heat_config(kind="diagnostics", out_dir=str(tmp_path / "diagnose"))
    raw["problem"] = dict(raw["problem"], tau=0.003)
    assert run_diagnostics(ExperimentConfig.from_dict(raw)).violations == 0


def test_invalid_argument_mid_run_is_not_a_config_error(tmp_path, monkeypatch):
    # exit 2 means a bad configuration; a step that fails partway through a
    # run must not pass for one
    from ttdlra import cli, integrate
    from ttdlra.errors import InvalidArgumentError

    def failing_step(state, tau, problem):
        raise InvalidArgumentError("raised partway through the run")

    admits = integrate._SCHEMES["projected_euler"][1]
    monkeypatch.setitem(integrate._SCHEMES, "projected_euler", (failing_step, admits))
    cfg = write_config(tmp_path / "c.json", heat_config())
    with pytest.raises(InvalidArgumentError, match="partway"):
        cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])


def test_non_finite_galerkin_solution_exits_3(tmp_path, monkeypatch, capsys):
    # a NaN solution of the step's CG once reached retract_tucker, whose
    # InvalidArgumentError escaped the run as exit 1; it is a breakdown at the
    # first step, with the initial state's gap
    from ttdlra import cli, integrate

    monkeypatch.setattr(integrate, "_pcg", lambda apply, precond, b, *norms: (np.nan * b, 1))
    cfg = write_config(tmp_path / "c.json", heat_config())
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "breakdown at t = 0.005" in capsys.readouterr().out
    meta = json.load(open(out / "metadata.json"))
    rows = open(out / "trajectory.csv").read().strip().split("\n")[2:]
    assert len(rows) == 1 and meta["breakdown"]["gap"] == float(rows[0].split(",")[1])


def test_long_heat_run_finishes(tmp_path):
    # solve_heat3d run to t = 0.6 once exited 1 at t = 0.5815: the core tangent
    # basis rejected the left-orthogonal train, which carries its whole norm
    # (1.8e-8) in its last core, though the state was healthy
    from ttdlra import cli

    with open(os.path.join(PKG_SRC, "..", "configs", "solve_heat3d.json")) as fh:
        payload = json.load(fh)
    payload["problem"]["t_end"] = 0.6
    cfg = write_config(tmp_path / "c.json", payload)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["breakdown"] is None and meta["energy"]["dissipation_ok"]


@pytest.mark.parametrize("field", ["sources", "initial"])
def test_non_finite_profile_is_config_error(tmp_path, capsys, field):
    # a source profile sin(inf * pi * x) once passed configuration and the
    # first step died in the retraction with LinAlgError (exit 1); in the
    # initial data it exited 2 with only "SVD did not converge"
    from ttdlra import cli

    with open(os.path.join(PKG_SRC, "..", "configs", "solve_heat3d.json")) as fh:
        payload = json.load(fh)
    bad = [{"kind": "sine", "frequency": 1}, {"kind": "sine", "frequency": float("inf")}, "bump"]
    if field == "sources":
        payload["problem"]["sources"] = [{"time_poly": [1.0], "profiles": bad}]
    else:
        payload["problem"]["initial"][1]["profiles"] = bad
    cfg = write_config(tmp_path / "c.json", payload)
    assert "Infinity" in open(cfg).read()
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "{'kind': 'sine', 'frequency': inf}" in err and "non-finite" in err


def test_initial_state_too_large_to_square_is_config_error(tmp_path, capsys):
    # solve_heat3d with its initial coefficients x1e200 once exited 1 with an
    # OverflowError from |u|^2 in the initial state; the run is refused
    # before its first step
    from ttdlra import cli

    with open(os.path.join(PKG_SRC, "..", "configs", "solve_heat3d.json")) as fh:
        payload = json.load(fh)
    for term in payload["problem"]["initial"]:
        term["coefficient"] *= 1e200
    cfg = write_config(tmp_path / "c.json", payload)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "|u|^2 = inf" in err


@pytest.mark.parametrize("scale, shown", [(1e-155, "e-311"), (1e-200, "= 0.0")])
def test_initial_state_too_small_to_square_is_config_error(tmp_path, capsys, scale, shown):
    # solve_heat3d with its initial coefficients x1e-200 once exited 0 and
    # reported l2_terminal, v_integral and du_integral as 0.0; an initial
    # energy that is 0.0 or subnormal is refused before the first step
    from ttdlra import cli

    with open(os.path.join(PKG_SRC, "..", "configs", "solve_heat3d.json")) as fh:
        payload = json.load(fh)
    for term in payload["problem"]["initial"]:
        term["coefficient"] *= scale
    cfg = write_config(tmp_path / "c.json", payload)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "|u|^2" in err and shown in err
    assert "below the normal float range" in err
