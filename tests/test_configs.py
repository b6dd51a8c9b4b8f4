"""The shipped configuration files load and build under the CLI's validation."""

import copy
import glob
import json
import os

import pytest

from ttdlra import cli
from ttdlra.errors import ConfigError
from ttdlra.experiments import ExperimentConfig, _run_problem
from ttdlra.problems import problem_from_config

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
COMMAND_OF_KIND = {kind: command for command, kind in cli._COMMAND_KIND.items()}


def test_configs_are_shipped():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_loads_and_builds(path):
    with open(path) as fh:
        kind = json.load(fh)["kind"]
    cfg = cli._load_config(path, COMMAND_OF_KIND[kind], {})
    assert cfg.kind == kind
    if "problem" in cfg.raw:
        problem, _ = problem_from_config(cfg.problem)
        assert problem.u0.dims == problem.disc.dims


# the auto outer ranks each shipped problem reads off its initial data
AUTO_OUTER_RANKS = {
    "converge_anisotropic.json": (1, 1, 1),
    "diagnose_heat3d.json": (2, 2, 2),
    "solve_heat3d.json": (3, 3, 3),
    "solve_rank_collapse.json": (2, 2),
    "stability_perturbed.json": (2, 2),
}


def test_auto_outer_ranks_of_shipped_problems():
    found = {}
    for path in CONFIGS:
        with open(path) as fh:
            kind = json.load(fh)["kind"]
        cfg = cli._load_config(path, COMMAND_OF_KIND[kind], {})
        if "problem" in cfg.raw:
            assert cfg.problem.get("outer_ranks", "auto") == "auto"
            problem, _ = problem_from_config(cfg.problem)
            assert problem.outer_ranks == problem.u0.outer_ranks
            found[os.path.basename(path)] = problem.outer_ranks
    assert found == AUTO_OUTER_RANKS


# the values every top-level and problem field takes in the sweep below
# (JSON reads NaN and Infinity as floats)
MALFORMED = (None, "x", -1, 0, [], {}, 1.5, True, [-1], ["x"], float("nan"), float("inf"), [2, 2])
# problem fields that no shipped config sets, swept as well
UNSET_PROBLEM_FIELDS = ("outer_ranks", "sources")


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_malformed_field_values_are_accepted_or_config_errors(path):
    # each field of a shipped config (never threads, which sizes a thread
    # pool) takes each malformed value in turn; what a run checks before its
    # first step (the experiment options, the problem, the run options) must
    # accept the result or raise ConfigError, never another exception
    with open(path) as fh:
        raw = json.load(fh)
    fields = [(k,) for k in raw if k != "threads"]
    if "problem" in raw:
        fields += [("problem", k) for k in {**raw["problem"], **dict.fromkeys(UNSET_PROBLEM_FIELDS)}]
    unexpected = []
    for field in fields:
        for value in MALFORMED:
            mutated = copy.deepcopy(raw)
            (mutated if len(field) == 1 else mutated["problem"])[field[-1]] = value
            try:
                cfg = ExperimentConfig.from_dict(mutated)
                if cfg.kind != "curvature":
                    _run_problem(cfg.problem)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001  the sweep reports every kind
                unexpected.append(f"{'.'.join(field)} = {value!r}: {exc!r}")
    assert not unexpected, "\n".join(unexpected)


def _at_d3(problem, cells):
    """The problem moved to three modes of ``cells`` cells: the matrices
    extended by the identity, each initial term by its last profile."""
    out = dict(problem, dims=3, cells=cells, tt_ranks=[2, 2])
    for key in ("b0", "b1"):
        if key in problem:
            mat = [row + [0.0] * (3 - len(row)) for row in problem[key]]
            out[key] = mat + [[0.0, 0.0, 1.0 if key == "b0" else 0.0]] * (3 - len(mat))
    out["initial"] = [
        dict(term, profiles=(term["profiles"] + term["profiles"][-1:])[:3])
        for term in problem["initial"]
    ]
    return out


@pytest.mark.parametrize("name", ["stability_perturbed.json", "diagnose_heat3d.json"])
def test_runs_on_the_ambient_grid_refuse_it_above_the_limit(tmp_path, monkeypatch, name):
    # the initial-data perturbation and the diagnostics probes form ambient
    # tensors: at 32 cells in three modes (31^3 = 29,791 entries) the config
    # is an error before any solve, and the CLI exits 2
    from ttdlra import experiments

    def no_solve(*args, **kwargs):
        raise AssertionError("solve was called")

    monkeypatch.setattr(experiments, "solve", no_solve)
    with open(os.path.join(os.path.dirname(CONFIGS[0]), name)) as fh:
        raw = json.load(fh)
    raw["problem"] = _at_d3(raw["problem"], 32)
    problem, _ = problem_from_config(raw["problem"])
    assert problem.dims == (31, 31, 31)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    command = COMMAND_OF_KIND[raw["kind"]]
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
