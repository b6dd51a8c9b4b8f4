"""Workload definitions and output checks of the benchmark.

Each step workload is one whole solver run as a user makes it: build the
problem, ``solve``, ``energy_report``.  The suite workload is one
``run_curvature_suite`` call on the shipped configuration.  Everything here
uses the package's public names only.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

import numpy as np

import ttdlra
from ttdlra import sampling

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE_CONFIG = os.path.join(ROOT, "configs", "curvature_suite.json")
REFERENCES = os.path.join(HERE, "references.json")

TAU = 1e-3
# split3d_n64 draws its random point from one of this many seeds (seed mod
# SPLIT_SEEDS); every one has a recorded reference in references.json
SPLIT_SEEDS = 64
REL_TOL = 1e-8
RESIDUAL_TOL = 1e-10
# the suite's set-up (config load and validation) takes tens of microseconds,
# so it is repeated this often per run for a steady median
SUITE_SETUP_REPEATS = 101
# one energy_report takes about a tenth of a second on pe3d_n128, too short
# a window on a shared host; each run reports this often on its trajectory
# and takes the mean
REPORT_REPEATS = 10

# initial data sum_k c_k prod sin(k pi x), as (c, k)
INITIAL_TERMS = ((1.0, 1), (0.5, 2), (0.25, 3))


def _b0(d):
    return np.eye(d) + 0.25 * (np.ones((d, d)) - np.eye(d))


def _config(d, cells, tt_ranks, steps):
    """problem_from_config input; t_end is exactly steps * tau so that solve
    never takes a step past the diffusion horizon."""
    return {
        "dims": d,
        "cells": cells,
        "b0": _b0(d).tolist(),
        "t_end": steps * TAU,
        "tau": TAU,
        "scheme": "projected_euler",
        "tt_ranks": list(tt_ranks),
        "initial": [
            {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * d}
            for c, k in INITIAL_TERMS
        ],
        "sources": [{"time_poly": [1.0], "profiles": ["constant"] * d}],
    }


def _constant(x):
    return 1.0


def _unit(t):
    return 1.0


class StepWorkload:
    """A solver run: set-up, ``steps`` time steps, then the energy report."""

    def __init__(self, name, scheme, d, cells, steps, tt_ranks, outer_ranks=None):
        self.name = name
        self.scheme = scheme
        self.d = d
        self.cells = cells
        self.steps = steps
        self.tt_ranks = tuple(tt_ranks)
        self.outer_ranks = outer_ranks
        self.ambient_size = (cells - 1) ** d
        self.setup_phase = (
            "problems.problem_from_config" if outer_ranks is None else "setup"
        )

    def input_seed(self, seed):
        """The seed that selects this run's inputs (None: inputs are fixed)."""
        return None if self.outer_ranks is None else seed % SPLIT_SEEDS

    def setup(self, seed):
        if self.outer_ranks is None:
            problem, _ = ttdlra.problem_from_config(
                _config(self.d, self.cells, self.tt_ranks, self.steps)
            )
            return problem
        t_end = self.steps * TAU
        disc = ttdlra.mass_orthonormalize(
            [ttdlra.build_fem1d(self.cells) for _ in range(self.d)]
        )
        diffusion = ttdlra.DiffusionCoefficient(
            _b0(self.d), np.zeros((self.d, self.d)), horizon=t_end
        )
        source = ttdlra.SourceTerm(time_coeff=_unit, profiles=(_constant,) * self.d)
        rng = np.random.default_rng(self.input_seed(seed))
        u0 = sampling.random_point(rng, disc.dims, self.outer_ranks, tt_ranks=self.tt_ranks)
        return ttdlra.ParabolicProblem(
            disc=disc,
            diffusion=diffusion,
            sources=(source,),
            u0=u0,
            t_end=t_end,
            outer_ranks=tuple(self.outer_ranks),
            tt_ranks=self.tt_ranks,
        )

    def solve(self, problem):
        return ttdlra.solve(problem, self.scheme, TAU, self.steps * TAU)

    def report(self, trajectory, problem):
        return ttdlra.energy_report(trajectory, problem)

    def run_once(self, seed, phase):
        """One whole run; ``phase(name, fn, *args)`` calls and times ``fn``."""
        problem, t_setup = phase(self.setup_phase, self.setup, seed)
        trajectory, t_solve = phase("integrate.solve", self.solve, problem)
        reports = []
        t_report = 0.0
        for _ in range(REPORT_REPEATS):
            report, t = phase("integrate.energy_report", self.report, trajectory, problem)
            reports.append(report)
            t_report += t
        t_report /= REPORT_REPEATS
        taken = len(trajectory.states) - 1
        failures = self.check(seed, trajectory, report)
        if any(r != report for r in reports):
            failures.append("repeated energy_report calls on one trajectory differ")
        return {
            "setup_s": [t_setup],
            "step_ms": t_solve / max(taken, 1) * 1e3,
            "report_s": t_report,
            # a user's run reports once: count the mean report time once
            "run_s": t_setup + t_solve + t_report,
            "attempted": self.steps,
            "failed": self.steps if failures else 0,
            "failures": failures,
            "fingerprint": [report.l2_terminal.hex(), report.v_integral.hex()],
            "steps": taken,
        }

    def reference(self, seed):
        with open(REFERENCES) as fh:
            refs = json.load(fh)[self.name]
        key = self.input_seed(seed)
        return refs if key is None else refs.get(str(key))

    def check(self, seed, trajectory, report):
        """List of failed checks (empty when the run is correct)."""
        failures = []
        if trajectory.breakdown is not None:
            failures.append(f"breakdown at t={trajectory.breakdown.time}")
        taken = len(trajectory.states) - 1
        if taken != self.steps:
            failures.append(f"took {taken} of {self.steps} steps")
        worst = max(s.tangent_residual for s in trajectory.states)
        if not worst <= RESIDUAL_TOL:
            failures.append(f"tangent residual {worst:.3e} above {RESIDUAL_TOL:g}")
        ref = self.reference(seed)
        if ref is None:
            failures.append(f"no reference for seed {seed}")
            return failures
        for key in ("l2_terminal", "v_integral"):
            got = getattr(report, key)
            want = ref[key]
            if not abs(got - want) <= REL_TOL * abs(want):
                failures.append(f"{key} {got!r} differs from reference {want!r}")
        return failures


class SuiteWorkload:
    """One ``run_curvature_suite`` call; an operation is one theorem check."""

    ambient_size = 0

    def __init__(self, out_root):
        self.out_root = out_root

    def setup(self, seed, out_dir):
        with open(SUITE_CONFIG) as fh:
            raw = json.load(fh)
        raw["seed"] = int(seed)
        raw["out_dir"] = out_dir
        return ttdlra.ExperimentConfig.from_dict(raw)

    def run_once(self, seed, phase):
        os.makedirs(self.out_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.out_root) as out_dir:
            samples = []
            for _ in range(SUITE_SETUP_REPEATS):
                t0 = time.perf_counter()
                cfg = self.setup(seed, out_dir)
                samples.append(time.perf_counter() - t0)
            report, t_suite = phase(
                "experiments.run_curvature_suite", ttdlra.run_curvature_suite, cfg
            )
            with open(report.csv_path, "rb") as fh:
                csv_bytes = fh.read()
        rows = [line.split(",") for line in csv_bytes.decode().splitlines()[2:]]
        interfaces = sum(1 for r in rows if r[0] == "truncation_distance")
        counts = report.counts
        # each violation counter has one check per instance, except the
        # spectrum check, which runs once per interface
        attempted = (
            2 * counts["matrix_pairs"]
            + 1
            + 2 * counts["aligned_draws"]
            + counts["truncation_instances"]
            + interfaces
        )
        failures = [f"{k}: {v} violations" for k, v in report.violations.items() if v]
        setup_s = sorted(samples)[len(samples) // 2]
        return {
            "setup_s": samples,
            "step_ms": t_suite / attempted * 1e3,
            # the suite has no report phase of its own: its output is the report
            "report_s": t_suite,
            "run_s": setup_s + t_suite,
            "attempted": attempted,
            "failed": min(attempted, report.theorem_violations),
            "failures": failures,
            "fingerprint": [hashlib.sha256(csv_bytes).hexdigest()],
            "steps": attempted,
        }


def make_workload(name, out_root):
    if name == "curvature_suite":
        return SuiteWorkload(out_root)
    return STEP_WORKLOADS[name]


STEP_WORKLOADS = {
    # ambient-bound: retract and the dense embedding dominate the step
    "pe3d_n128": StepWorkload("pe3d_n128", "projected_euler", 3, 128, 3, (3, 3)),
    # Galerkin-bound: 16 operator terms, reduced_operator_matrix dominates
    "pe4d_n16": StepWorkload("pe4d_n16", "projected_euler", 4, 16, 10, (3, 3, 3)),
    # splitting sweep: no tangent basis, no Galerkin assembly
    "split3d_n64": StepWorkload(
        "split3d_n64", "projector_splitting", 3, 64, 10, (2, 2), outer_ranks=(2, 4, 2)
    ),
}

WORKLOADS = tuple(STEP_WORKLOADS) + ("curvature_suite",)
