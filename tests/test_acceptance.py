"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and measured values.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import kron_matrix, summands

from ttdlra.dense import DenseTensor, inner, matricize, svd
from ttdlra.experiments import (
    ExperimentConfig,
    run_convergence,
    run_solve,
    run_stability,
)
from ttdlra.fem import (
    DiffusionCoefficient,
    assemble_operator,
    build_fem1d,
    check_a1_tangency,
    mass_orthonormalize,
)
from ttdlra.integrate import dense_implicit_euler, solve
from ttdlra.manifold import point_to_dense
from ttdlra.problems import heat_problem
from ttdlra.sampling import (
    perturbed_point,
    random_dense,
    random_orthonormal,
    random_point,
    random_tt,
)
from ttdlra.tangent import (
    aligned_basis_report,
    apply_tangent_projector,
    brute_force_projector,
    curvature_report,
    polar_align,
    tangent_project,
    tangent_to_ambient,
)
from ttdlra.tt import interface_spectrum, truncate_interface, tt_to_dense

SEED = 20250115


def report(num, text):
    print(f"\n[acceptance {num:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def projector_instances():
    """>= 100 seeded instances with d in {2,3,4}, N <= 4, r <= 3, k <= 2."""
    rng = np.random.default_rng(SEED)
    shapes = [
        ((4, 4), (2, 2), (2,)),
        ((3, 4), (2, 2), (2,)),
        ((4, 4), (1, 1), (1,)),
        ((4, 3, 4), (2, 2, 2), (2, 2)),
        ((3, 4, 3), (2, 3, 2), (2, 2)),
        ((4, 4, 4), (2, 3, 2), (2, 2)),
        ((3, 3, 3), (1, 1, 1), (1, 1)),
        ((3, 3, 3, 3), (2, 2, 2, 2), (2, 2, 2)),
        ((4, 3, 3, 4), (1, 2, 2, 1), (1, 2, 1)),
        ((3, 3, 3, 3), (2, 3, 3, 2), (2, 2, 2)),
    ]
    t0 = time.time()
    out = []
    for i in range(100):
        dims, r, k = shapes[i % len(shapes)]
        p = random_point(rng, dims, r, tt_ranks=k)
        z = random_dense(rng, dims)
        out.append((p, z))
    return out, t0


def test_criterion_01_projector_oracle_equivalence(projector_instances):
    instances, t0 = projector_instances
    worst = 0.0
    for p, z in instances:
        lhs = apply_tangent_projector(p, z)
        rhs = brute_force_projector(p, z)
        worst = max(worst, float(np.max(np.abs(lhs.data - rhs.data))))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed <= 30.0
    report(1, f"oracle equivalence on {len(instances)} instances, "
              f"max abs deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_orthogonal_decomposition(projector_instances):
    instances, _ = projector_instances
    worst = 0.0
    for p, z in instances:
        parts = summands(tangent_project(p, z))
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                scale = max(parts[i].norm() * parts[j].norm(), 1e-300)
                rel = abs(inner(parts[i], parts[j])) / scale
                if parts[i].norm() > 1e-12 and parts[j].norm() > 1e-12:
                    worst = max(worst, rel)
    assert worst <= 1e-10
    report(2, f"pairwise summand pairings <= {worst:.2e} relative")


def test_criterion_03_cone_and_idempotence(projector_instances):
    instances, _ = projector_instances
    worst_cone = 0.0
    worst_idem = 0.0
    for p, z in instances:
        x = point_to_dense(p)
        px = apply_tangent_projector(p, x)
        worst_cone = max(worst_cone, (px - x).norm() / max(x.norm(), 1e-300))
        pz = apply_tangent_projector(p, z)
        ppz = apply_tangent_projector(p, pz)
        worst_idem = max(worst_idem, (ppz - pz).norm() / max(pz.norm(), 1e-300))
    assert worst_cone <= 1e-10
    assert worst_idem <= 1e-10
    report(3, f"P x = x within {worst_cone:.2e}, P^2 = P within {worst_idem:.2e}")


def test_criterion_04_aligned_basis_suite():
    rng = np.random.default_rng(SEED + 4)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(4, n + 1)))
        u = polar_align(random_orthonormal(rng, n, r), v := random_orthonormal(rng, n, r))
        rep = aligned_basis_report(u, v, rng.standard_normal(r), rng.standard_normal(r))
        if not (rep.basis_bound_ok and rep.coeff_bound_ok):
            violations += 1
    assert violations == 0
    worst = 0.0
    for theta in np.linspace(0.0, np.pi / 2, 50):
        u = np.array([[1.0], [0.0]])
        v = np.array([[np.cos(theta)], [np.sin(theta)]])
        rep = aligned_basis_report(u, v, np.array([1.0]), np.array([1.0]))
        worst = max(
            worst,
            abs(rep.basis_diff - 2 * abs(np.sin(theta / 2))),
            abs(rep.projector_diff - abs(np.sin(theta))),
        )
    assert worst <= 1e-10
    report(4, f"500 aligned draws, zero violations; rotation closed forms "
              f"reproduced within {worst:.2e}")


def test_criterion_05_matrix_curvature_bounds():
    rng = np.random.default_rng(SEED + 5)
    v_proj = v_norm = 0
    for i in range(200):
        x = random_point(rng, (5, 5), (2, 2), tt_ranks=(2,))
        y = random_point(rng, (5, 5), (2, 2), tt_ranks=(2,))
        rep = curvature_report(x, y)
        assert rep.sigma_kind == "exact-matrix-distance"
        if rep.projector_difference_norm > 8.0 / rep.sigma_used * rep.distance + 1e-10:
            v_proj += 1
        if rep.normal_defect > rep.distance**2 / rep.sigma_used + 1e-10:
            v_norm += 1
    assert v_proj == 0 and v_norm == 0
    report(5, "200 matrix pairs: projector bound 8/sigma and normal bound "
              "1/sigma hold with zero violations")


def test_criterion_06_second_order_normal_defect():
    rng = np.random.default_rng(SEED + 6)
    x = random_point(rng, (4, 4, 4), (2, 3, 2), tt_ranks=(2, 2), min_gap_rel=0.05)
    direction = None
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        y, direction = perturbed_point(rng, x, eps, direction)
        rep = curvature_report(x, y)
        ratios.append(rep.normal_defect / eps**2)
    for a, b in zip(ratios[:-1], ratios[1:]):
        lo, hi = sorted((a, b))
        assert hi <= 4.0 * max(lo, 1e-12)
    report(6, f"normal defect / eps^2 stays within a factor 4: "
              f"{', '.join(f'{r:.3g}' for r in ratios)}")


def test_criterion_07_truncation_distance_and_spectra():
    rng = np.random.default_rng(SEED + 7)
    shapes = [((3, 4, 3), (2, 2)), ((4, 3, 4), (2, 3)), ((3, 3, 3, 3), (2, 2, 2)), ((5, 6), (3,))]
    worst_dist = 0.0
    for i in range(100):
        dims, ranks = shapes[i % len(shapes)]
        t = random_tt(rng, dims, ranks)
        spec = interface_spectrum(t)
        x = DenseTensor.from_array(tt_to_dense(t))
        for m, vals in enumerate(spec.values):
            cut = truncate_interface(t, m)
            dist = (x - DenseTensor.from_array(tt_to_dense(cut))).norm()
            worst_dist = max(worst_dist, abs(dist - vals[-1]) / max(x.norm(), 1e-300))
    assert worst_dist <= 1e-10
    worst_spec = 0.0
    for i in range(30):
        p = random_point(rng, (5, 4, 6), (2, 3, 2), tt_ranks=(2, 2))
        x = point_to_dense(p)
        scale = max(x.norm(), 1e-300)
        spec = interface_spectrum(p.core)
        for m, vals in enumerate(spec.values):
            ambient = svd(matricize(x, set(range(m + 1)))).singular_values
            worst_spec = max(worst_spec, np.max(np.abs(vals - ambient[: vals.size])) / scale)
        for m in range(3):
            core_vals = svd(matricize(DenseTensor.from_array(p.expanded), {m})).singular_values
            ambient = svd(matricize(x, {m})).singular_values
            worst_spec = max(
                worst_spec, np.max(np.abs(core_vals - ambient[: core_vals.size])) / scale
            )
    assert worst_spec <= 1e-10
    report(7, f"100 truncation distances match the interface value within "
              f"{worst_dist:.2e}; core vs ambient spectra within {worst_spec:.2e}")


def test_criterion_08_operator_oracle_and_tangency():
    rng = np.random.default_rng(SEED + 8)
    disc = mass_orthonormalize([build_fem1d(8) for _ in range(3)])
    b0 = np.array([[1.0, 0.3, 0.15], [0.3, 1.1, 0.2], [0.15, 0.2, 0.9]])
    coeff = DiffusionCoefficient(b0, 0.05 * np.eye(3), horizon=1.0)
    op = assemble_operator(coeff, disc, 0.4)
    worst = 0.0
    for part in (op, op.diagonal_part, op.cross_part):
        dense = kron_matrix(part)
        for _ in range(5):
            x = random_dense(rng, disc.dims)
            lhs = part.apply(x).data
            rhs = dense @ x.data
            worst = max(worst, np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))
    assert worst <= 1e-10
    p = random_point(rng, disc.dims, (2, 3, 2), tt_ranks=(2, 2))
    residual = check_a1_tangency(p, op.diagonal_part, rng)
    control = check_a1_tangency(p, op.cross_part, rng)
    assert residual <= 1e-10
    assert control >= 1e-2
    report(8, f"operator actions match the Kronecker oracle within {worst:.2e}; "
              f"tangency residual {residual:.2e}, negative control {control:.2e}")


def test_criterion_09_dissipation():
    t0 = time.time()
    terms = [
        (0.55**j, [(lambda k: (lambda x: np.sin(k * np.pi * x)))(j)] * 3)
        for j in (1, 2, 3)
    ]
    b0 = np.eye(3) + 0.25 * (np.ones((3, 3)) - np.eye(3))
    problem = heat_problem(3, 16, (3, 3), b0=b0, initial_terms=terms, t_end=0.04)
    assert problem.u0.core.ranks == (3, 3)
    tr = solve(problem, "projected_euler", tau=2e-4, t_end=0.04)
    elapsed = time.time() - t0
    assert tr.breakdown is None
    assert len(tr.states) == 201
    norms = [np.sqrt(s.energy_l2) for s in tr.states]
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a * (1 + 1e-12)
    assert elapsed <= 60.0
    report(9, f"200 steps at n=16, d=3, k=(3,3): norm nonincreasing every step, "
              f"{elapsed:.1f}s")


def test_criterion_10_full_rank_equivalence():
    terms = [
        (0.6**j, [(lambda k: (lambda x: np.sin(k * np.pi * x)))(j)] * 2)
        for j in range(1, 8)
    ]
    problem = heat_problem(
        2,
        8,
        tt_ranks=(7,),
        b0=np.array([[1.0, 0.3], [0.3, 1.0]]),
        initial_terms=terms,
        outer_ranks=(7, 7),
        t_end=0.05,
    )
    tau = 0.005
    tr = solve(problem, "projected_euler", tau=tau, t_end=0.05)
    _, dense_states = dense_implicit_euler(problem, tau, 0.05)
    err = (point_to_dense(tr.states[-1].point) - dense_states[-1]).norm()
    rel = err / dense_states[-1].norm()
    assert rel <= 1e-8
    report(10, f"full-rank low-rank solve matches the dense reference, "
               f"terminal relative error {rel:.2e}")


def test_criterion_11_h_convergence(tmp_path):
    t0 = time.time()
    cfg = {
        "kind": "convergence",
        "problem": {
            "dims": 3,
            "cells": 8,
            "b0": (np.eye(3) + 0.25 * (np.ones((3, 3)) - np.eye(3))).tolist(),
            "t_end": 0.05,
            "tau": 0.0025,
            "scheme": "projected_euler",
            "tt_ranks": [1, 1],
            "initial": [
                {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 3}
            ],
        },
        "ladder": [8, 16, 32],
        "reference_cells": 64,
        "out_dir": str(tmp_path),
    }
    table = run_convergence(ExperimentConfig.from_dict(cfg))
    elapsed = time.time() - t0
    errors = table.errors
    assert errors[1] < errors[0] and errors[2] < errors[1]
    ratios = [r for (_, _, _, r) in table.rows[1:]]
    assert all(r <= 0.7 for r in ratios)
    assert elapsed <= 300.0
    report(11, f"ladder errors {', '.join(f'{e:.3e}' for e in errors)} with "
               f"ratios {', '.join(f'{r:.3f}' for r in ratios)}, {elapsed:.1f}s")


def test_criterion_12_stability(tmp_path):
    cfg = {
        "kind": "stability",
        "problem": {
            "dims": 2,
            "cells": 10,
            "b0": [[1.0, 0.25], [0.25, 1.0]],
            "t_end": 0.06,
            "tau": 0.003,
            "scheme": "projected_euler",
            "tt_ranks": [2],
            "initial": [
                {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 2},
                {"coefficient": 0.4, "profiles": [{"kind": "sine", "frequency": 2}] * 2},
            ],
        },
        "deltas": [1e-2, 5e-3],
        "seed": 12,
        "out_dir": str(tmp_path),
    }
    rep = run_stability(ExperimentConfig.from_dict(cfg))
    ratio = rep.terminal_ratios[0]
    assert 1.6 <= ratio <= 2.4
    assert np.isfinite(rep.fitted_rate)
    assert np.isfinite(rep.envelope_factor) and rep.envelope_factor < 100
    report(12, f"terminal difference ratio {ratio:.3f} for delta halving; "
               f"fitted envelope rate {rep.fitted_rate:.3g} "
               f"(max excess factor {rep.envelope_factor:.3g})")


def _cli(args, tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "ttdlra.cli"] + args, capture_output=True, text=True, env=env
    )


def test_criterion_13_breakdown_detection(tmp_path):
    payload = {
        "problem": {
            "dims": 2,
            "cells": 12,
            "t_end": 0.4,
            "tau": 0.0025,
            "scheme": "projected_euler",
            "tt_ranks": [2],
            "initial": [
                {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 2},
                {"coefficient": 0.15, "profiles": [{"kind": "sine", "frequency": 3}] * 2},
            ],
        },
        "seed": 0,
    }
    cfg_path = tmp_path / "collapse.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    proc = _cli(["solve", "--config", str(cfg_path), "--out", str(out)], tmp_path)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    meta = json.load(open(out / "metadata.json"))
    assert meta["breakdown"] is not None and meta["breakdown"]["time"] < 0.4
    rows = open(out / "trajectory.csv").read().strip().split("\n")[2:]
    last = rows[-1].split(",")
    gap, energy = float(last[1]), float(last[2])
    assert gap <= 1e-8 * np.sqrt(energy)
    report(13, f"engineered collapse stopped at t = {meta['breakdown']['time']:.4g} "
               f"with exit code 3 and gap {gap:.2e}")


def test_criterion_14_determinism(tmp_path):
    payload = {
        "problem": {
            "dims": 2,
            "cells": 8,
            "b0": [[1.0, 0.25], [0.25, 1.0]],
            "t_end": 0.04,
            "tau": 0.004,
            "scheme": "projected_euler",
            "tt_ranks": [2],
            "initial": [
                {"coefficient": 1.0, "profiles": [{"kind": "sine", "frequency": 1}] * 2},
                {"coefficient": 0.4, "profiles": [{"kind": "sine", "frequency": 2}] * 2},
            ],
        },
        "seed": 77,
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(payload))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    p1 = _cli(["solve", "--config", str(cfg_path), "--out", str(out1)], tmp_path)
    p2 = _cli(["solve", "--config", str(cfg_path), "--out", str(out2)], tmp_path)
    assert p1.returncode == 0 and p2.returncode == 0
    csv1 = open(out1 / "trajectory.csv", "rb").read()
    csv2 = open(out2 / "trajectory.csv", "rb").read()
    meta1 = open(out1 / "metadata.json", "rb").read()
    meta2 = open(out2 / "metadata.json", "rb").read()
    assert csv1 == csv2
    assert meta1 == meta2
    report(14, f"repeated runs byte-identical ({len(csv1)} CSV bytes, "
               f"{len(meta1)} metadata bytes)")
