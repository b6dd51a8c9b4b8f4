"""The shipped configuration files load and build under the CLI's validation."""

import glob
import json
import os

import pytest

from ttdlra import cli
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
