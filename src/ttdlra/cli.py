"""Command-line entry point for the experiment harness.

Exit codes: 0 success, 2 configuration error (a ``ConfigError``, raised
before the run starts; any other error partway through a run is not one),
3 rank breakdown, 4 suite violation (a theorem-backed check failed or a
negative control passed vacuously).  The thread count comes from
``--threads`` unless the ``TTDLRA_THREADS`` environment variable overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BreakdownError, ConfigError
from .experiments import (
    ExperimentConfig,
    run_convergence,
    run_curvature_suite,
    run_diagnostics,
    run_solve,
    run_stability,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3
EXIT_VIOLATION = 4

_COMMAND_KIND = {
    "solve": "solve",
    "converge": "convergence",
    "stability": "stability",
    "curvature": "curvature",
    "diagnose": "diagnostics",
}


def _load_config(path, command, overrides) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration {path} is not a JSON object")
    raw.setdefault("kind", _COMMAND_KIND[command])
    if raw["kind"] != _COMMAND_KIND[command]:
        raise ConfigError(
            f"configuration kind {raw['kind']!r} does not match the "
            f"{command!r} command"
        )
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(raw)


def _threads(args) -> int | None:
    env = os.environ.get("TTDLRA_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"TTDLRA_THREADS must be an integer, got {env!r}") from exc
    return args.threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ttdlra",
        description="Low-rank parabolic evolution experiments at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run one low-rank evolution and export the trajectory"),
        ("converge", "mesh-refinement study against a fine-mesh reference"),
        ("stability", "perturbed-data runs with exponential envelope fit"),
        ("curvature", "randomized projector and curvature bound suite"),
        ("diagnose", "operator and manifold diagnostics for one problem"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
    args = parser.parse_args(argv)

    try:
        overrides = {
            "seed": args.seed,
            "out_dir": args.out,
            "threads": _threads(args),
        }
        cfg = _load_config(args.config, args.command, overrides)
        if args.command == "solve":
            result = run_solve(cfg)
            last = result.trajectory.states[-1]
            print(f"states: {len(result.trajectory.states)}  final t: {last.time:.6g}")
            print(f"trajectory: {result.csv_path}")
            if result.broke_down:
                bd = result.trajectory.breakdown
                print(f"breakdown at t = {bd.time:.6g} with gap {bd.gap:.3e}")
                return EXIT_BREAKDOWN
            return EXIT_OK
        if args.command == "converge":
            table = run_convergence(cfg)
            for n_cells, h, err, ratio in table.rows:
                print(f"n = {n_cells:4d}  h = {h:.5f}  error = {err:.6e}  ratio = {ratio:.3f}")
            print(f"table: {table.csv_path}")
            return EXIT_OK
        if args.command == "stability":
            rep = run_stability(cfg)
            for delta, diff in zip(rep.deltas, rep.terminal_diffs):
                print(f"delta = {delta:.3e}  terminal difference = {diff:.6e}")
            print(
                f"ratios: {[f'{r:.3f}' for r in rep.terminal_ratios]}  "
                f"fitted rate: {rep.fitted_rate:.4g}"
            )
            print(f"table: {rep.csv_path}")
            return EXIT_OK
        if args.command == "curvature":
            rep = run_curvature_suite(cfg)
            for name, count in rep.violations.items():
                print(f"{name}: {count} violations")
            print(f"heuristic observations: {rep.heuristic_observations}")
            print(f"table: {rep.csv_path}")
            return EXIT_VIOLATION if rep.theorem_violations else EXIT_OK
        if args.command == "diagnose":
            rep = run_diagnostics(cfg)
            for key, value in sorted(rep.checks.items()):
                print(f"{key}: {value}")
            print(f"report: {rep.meta_path}")
            return EXIT_VIOLATION if rep.violations else EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BreakdownError as exc:
        print(f"breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN


if __name__ == "__main__":
    sys.exit(main())
