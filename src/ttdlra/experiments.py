"""Reproducible desk-scale experiments: convergence, stability, curvature.

Every experiment is driven by a JSON-compatible configuration, seeds all
randomness from a single integer, and writes deterministic artifacts (CSV
tables with a JSON metadata sidecar).  Identical configuration and seed give
byte-identical outputs.

The convergence and stability errors are distances of low-rank states,
measured factored by :func:`~ttdlra.retraction.tucker_distance`: a coarse
rung's factors are lifted to the reference grid mode by mode (an n_ref x r
block each), and no state is expanded onto the grid.  The ambient grid is
used only by the diagnostics probes and by the random direction of an
initial-data perturbation; those runs refuse a grid above ``AMBIENT_LIMIT``
as a ``ConfigError`` before they solve anything.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .dense import DenseTensor, _check_ambient, inner, matricize, svd
from .errors import BreakdownError, ConfigError, InvalidArgumentError, OversizeError
from .fem import SourceTerm, chol_matmul, chol_solve, laplacian_operator
from .integrate import BREAKDOWN_REL, Trajectory, check_run, energy_report, solve, state_from_point
from .problems import ParabolicProblem, problem_from_config
from .retraction import tucker_distance
from .sampling import perturbed_point, random_dense, random_orthonormal, random_point, random_tt
from .tangent import aligned_basis_report, curvature_report, polar_align
from .tt import interface_spectrum, truncate_interface, tt_to_dense

__all__ = [
    "ExperimentConfig",
    "ConvergenceTable",
    "StabilityReport",
    "CurvatureSuiteReport",
    "DiagnosticsReport",
    "SolveResult",
    "run_solve",
    "run_convergence",
    "run_stability",
    "run_curvature_suite",
    "run_diagnostics",
    "config_hash",
]


def config_hash(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# the sizes of the curvature suite and their defaults
_SUITE_DEFAULTS = {
    "matrix_pairs": 200, "aligned_draws": 500, "truncation_instances": 100, "heuristic_pairs": 20
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see ``from_dict`` for the schema."""

    kind: str
    problem: dict
    seed: int = 0
    out_dir: str | None = None
    ladder: tuple = ()
    reference_cells: int = 0
    deltas: tuple = ()
    perturb: str = "initial"
    suite: dict = field(default_factory=dict)
    threads: int = 1
    raw: dict = field(default_factory=dict)

    _KINDS = ("solve", "convergence", "stability", "curvature", "diagnostics")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kind = raw.get("kind")
        if kind not in cls._KINDS:
            raise ConfigError(f"experiment kind must be one of {cls._KINDS}")
        problem = raw.get("problem")
        if kind != "curvature" and not isinstance(problem, dict):
            raise ConfigError("configuration needs an inline 'problem' table")
        try:
            ladder = tuple(int(n) for n in raw.get("ladder", ()))
            ref = int(raw.get("reference_cells", 0))
            deltas = tuple(float(x) for x in raw.get("deltas", ()))
            seed = int(raw.get("seed", 0))
            suite = {name: int(count) for name, count in dict(raw.get("suite", {})).items()}
            threads = max(1, int(raw.get("threads", 1)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed configuration value: {exc}") from exc
        if seed < 0:
            raise ConfigError("seed must be nonnegative")
        if suite.keys() - _SUITE_DEFAULTS.keys():
            raise ConfigError(f"suite entries must be among {sorted(_SUITE_DEFAULTS)}")
        if not isinstance(raw.get("out_dir"), (str, type(None))):
            raise ConfigError("out_dir must be a string")
        if kind == "convergence":
            if len(ladder) < 2:
                raise ConfigError("a convergence run needs a ladder of meshes")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ConfigError("mesh ladder must be strictly increasing")
            if ref <= ladder[-1]:
                raise ConfigError("reference mesh must be finer than the ladder")
            for n in ladder:
                q, r = divmod(ref, n)
                if r != 0 or q & (q - 1):
                    raise ConfigError(
                        "ladder meshes must divide the reference mesh by powers of two"
                    )
        if kind == "stability" and not deltas:
            raise ConfigError("a stability run needs perturbation magnitudes")
        perturb = raw.get("perturb", "initial")
        if perturb not in ("initial", "source"):
            raise ConfigError("perturb must be 'initial' or 'source'")
        return cls(
            kind=kind,
            problem=problem or {},
            seed=seed,
            out_dir=raw.get("out_dir"),
            ladder=ladder,
            reference_cells=ref,
            deltas=deltas,
            perturb=perturb,
            suite=suite,
            threads=threads,
            raw=raw,
        )


def _metadata(cfg: ExperimentConfig, extra=None) -> dict:
    # the hash covers the scientific configuration; where the artifacts land
    # and how many workers ran must not change it
    hashable = {k: v for k, v in cfg.raw.items() if k not in ("out_dir", "threads")}
    meta = {
        "config_hash": config_hash(hashable),
        "kind": cfg.kind,
        "library_version": __version__,
        "seed": cfg.seed,
    }
    if extra:
        meta.update(extra)
    return meta


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, columns, rows, meta) -> None:
    lines = ["# " + json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _ensure_out(cfg: ExperimentConfig) -> str:
    out = cfg.out_dir or f"out-{cfg.kind}"
    os.makedirs(out, exist_ok=True)
    return out


def _run_problem(pcfg: dict) -> tuple:
    """:func:`problem_from_config` for a run: what :func:`solve` would refuse
    before its first step (:func:`check_run`, a non-finite energy) is a ``ConfigError``,
    and so is an initial energy below the normal range, which it would report as 0."""
    problem, opts = problem_from_config(pcfg)
    try:
        check_run(problem.u0, opts["scheme"], opts["tau"], opts["t_end"])
        state = state_from_point(problem.u0, 0.0, problem.disc)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid run options: {exc}") from exc
    for name, energy in (("|u|^2", state.energy_l2), ("a(u, u)", state.energy_v)):
        if energy < np.finfo(float).tiny:
            raise ConfigError(f"initial energy {name} = {energy} is below the normal float range")
    return problem, opts


def _ambient_grid(problem: ParabolicProblem) -> None:
    """A run that forms ambient tensors refuses a grid above ``AMBIENT_LIMIT``."""
    try:
        _check_ambient(problem.dims)
    except OversizeError as exc:
        raise ConfigError(f"this run forms ambient tensors on grid {problem.dims}: {exc}") from exc


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    trajectory: Trajectory
    csv_path: str
    meta_path: str

    @property
    def broke_down(self) -> bool:
        return self.trajectory.breakdown is not None


# the state fields of the trajectory CSV, in its column order ("time" as "t")
_TRAJECTORY_FIELDS = (
    "time", "gap", "energy_l2", "energy_v", "tangent_residual", "retraction_defect"
)


def run_solve(cfg: ExperimentConfig) -> SolveResult:
    problem, opts = _run_problem(cfg.problem)
    out = _ensure_out(cfg)
    tr = solve(problem, opts["scheme"], opts["tau"], opts["t_end"])
    rep = energy_report(tr, problem)
    meta = _metadata(
        cfg,
        {
            "scheme": tr.scheme,
            "tau": tr.step_size,
            "t_end": opts["t_end"],
            "breakdown": (
                None
                if tr.breakdown is None
                else {"time": tr.breakdown.time, "gap": tr.breakdown.gap}
            ),
            "energy": {
                key: getattr(rep, key)
                for key in ("l2_terminal", "v_integral", "du_integral", "v_sup",
                            "dissipation_ok", "growth_suspected")
            },
        },
    )
    csv_path = os.path.join(out, "trajectory.csv")
    meta_path = os.path.join(out, "metadata.json")
    rows = [tuple(getattr(s, f) for f in _TRAJECTORY_FIELDS) for s in tr.states]
    _write_csv(csv_path, ("t",) + _TRAJECTORY_FIELDS[1:], rows, meta)
    _write_json(meta_path, meta)
    return SolveResult(trajectory=tr, csv_path=csv_path, meta_path=meta_path)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple  # (n_cells, h, error, ratio)
    reference_cells: int
    csv_path: str
    meta_path: str

    @property
    def errors(self):
        return [r[2] for r in self.rows]


def _prolong_1d(w) -> np.ndarray:
    """Exact P1 injection of the nodal rows ``w`` ((n - 1) x r, the interior
    nodes of n cells) into the 2n-cell mesh: (2n - 1) x r."""
    fine = np.zeros((2 * len(w) + 1,) + w.shape[1:])
    fine[1::2] = w  # coarse node c is fine node 2c + 1
    fine[:-1:2] += 0.5 * w  # the mid-cell fine nodes beside it
    fine[2::2] += 0.5 * w
    return fine


def _lifted_factors(point, disc, ref_disc) -> list:
    """The factors of a point of ``disc`` in the orthonormal coordinates of the
    finer ``ref_disc``, mode by mode: the nodal factor ``L^-T U``, its exact
    P1 doublings, then ``L_ref^T``; an n_ref x r block per mode."""
    lifted = []
    for u, fem, ref in zip(point.factors, disc.fems, ref_disc.fems):
        w, n = chol_solve(fem.mass_chol, u, "T"), fem.n_cells
        while n < ref.n_cells:
            w, n = _prolong_1d(w), 2 * n
        lifted.append(chol_matmul(ref.mass_chol, w, "T"))
    return lifted


def _terminal_point(problem, opts):
    tr = solve(problem, opts["scheme"], opts["tau"], opts["t_end"])
    if tr.breakdown is not None:
        raise BreakdownError(
            f"solve on {problem.disc.fems[0].n_cells} cells broke down at "
            f"t = {tr.breakdown.time}"
        )
    return tr.states[-1].point


def run_convergence(cfg: ExperimentConfig) -> ConvergenceTable:
    out = _ensure_out(cfg)
    meshes = list(cfg.ladder) + [cfg.reference_cells]

    def rung(n_cells):
        pcfg = dict(cfg.problem)
        pcfg["cells"] = n_cells
        problem, opts = _run_problem(pcfg)
        return problem.disc, _terminal_point(problem, opts)

    with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        rungs = list(pool.map(rung, meshes))
    ref_disc, ref = rungs[-1]
    rows = []
    prev = None
    for n_cells, (disc, point) in zip(cfg.ladder, rungs):
        lifted = (point.tucker()[0], _lifted_factors(point, disc, ref_disc))
        err = tucker_distance(lifted, ref.tucker())
        ratio = err / prev if prev else float("nan")
        rows.append((n_cells, 1.0 / n_cells, err, ratio))
        prev = err
    meta = _metadata(
        cfg,
        {
            "reference_cells": cfg.reference_cells,
            "reference": "low-rank solve on the finest mesh at the same ranks",
        },
    )
    csv_path = os.path.join(out, "convergence.csv")
    meta_path = os.path.join(out, "metadata.json")
    _write_csv(
        csv_path,
        ("n_cells", "h", "error_L2_at_T", "error_ratio_vs_previous"),
        rows,
        meta,
    )
    _write_json(meta_path, meta)
    return ConvergenceTable(
        rows=tuple(rows),
        reference_cells=cfg.reference_cells,
        csv_path=csv_path,
        meta_path=meta_path,
    )


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    deltas: tuple
    initial_diffs: tuple
    terminal_diffs: tuple
    terminal_ratios: tuple  # consecutive delta pairs
    fitted_rate: float
    envelope_factor: float
    csv_path: str
    meta_path: str


def _perturbed_problem(problem: ParabolicProblem, cfg, delta, rng):
    if cfg.perturb == "initial":
        return replace(problem, u0=perturbed_point(rng, problem.u0, delta)[0])
    extra = SourceTerm(
        time_coeff=delta,
        profiles=tuple([lambda x: np.sin(np.pi * x)] * len(problem.dims)),
    )
    return replace(problem, sources=problem.sources + (extra,))


def run_stability(cfg: ExperimentConfig) -> StabilityReport:
    out = _ensure_out(cfg)
    problem, opts = _run_problem(cfg.problem)
    if cfg.perturb == "initial":
        _ambient_grid(problem)

    base = solve(problem, opts["scheme"], opts["tau"], opts["t_end"])
    if base.breakdown is not None:
        raise BreakdownError("base solve broke down")

    def perturbed_run(delta):
        local_rng = np.random.default_rng(cfg.seed + 1)  # same direction each delta
        pp = _perturbed_problem(problem, cfg, delta, local_rng)
        tr = solve(pp, opts["scheme"], opts["tau"], opts["t_end"])
        if tr.breakdown is not None:
            raise BreakdownError(f"perturbed solve (delta={delta}) broke down")
        return tr

    with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        perturbed = list(pool.map(perturbed_run, cfg.deltas))

    times = base.times
    rows = []
    diffs_by_delta = []
    for delta, tr in zip(cfg.deltas, perturbed):
        diffs = [
            tucker_distance(a.point.tucker(), b.point.tucker())
            for a, b in zip(base.states, tr.states)
        ]
        diffs_by_delta.append(diffs)
        for t, dv in zip(times, diffs):
            rows.append((delta, float(t), dv))
    initial = tuple(d[0] for d in diffs_by_delta)
    terminal = tuple(d[-1] for d in diffs_by_delta)
    ratios = tuple(a / b for a, b in zip(terminal, terminal[1:]))
    # exponential envelope fitted to the largest perturbation's history
    lead = np.array(diffs_by_delta[0])
    mask = lead > 0
    if np.count_nonzero(mask) >= 2:
        coeffs = np.polyfit(times[mask], np.log(lead[mask] ** 2), 1)
        rate = float(coeffs[0])
        factor = float("inf")
        if lead[0] > 0:
            envelope = lead[0] ** 2 * np.exp(rate * times)
            factor = float(np.max(lead[mask] ** 2 / envelope[mask]))
    else:
        rate, factor = float("nan"), float("nan")
    meta = _metadata(
        cfg,
        {
            "deltas": list(cfg.deltas),
            "perturb": cfg.perturb,
            "terminal_diffs": list(terminal),
            "terminal_ratios": list(ratios),
            "fitted_rate": rate,
            "envelope_factor": factor,
        },
    )
    csv_path = os.path.join(out, "stability.csv")
    meta_path = os.path.join(out, "metadata.json")
    _write_csv(csv_path, ("delta", "t", "difference_l2"), rows, meta)
    _write_json(meta_path, meta)
    return StabilityReport(
        deltas=cfg.deltas,
        initial_diffs=initial,
        terminal_diffs=terminal,
        terminal_ratios=ratios,
        fitted_rate=rate,
        envelope_factor=factor,
        csv_path=csv_path,
        meta_path=meta_path,
    )


# ---------------------------------------------------------------------------
# curvature suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureSuiteReport:
    counts: dict
    violations: dict
    heuristic_observations: dict
    csv_path: str
    meta_path: str

    @property
    def theorem_violations(self) -> int:
        return sum(self.violations.values())


def run_curvature_suite(cfg: ExperimentConfig) -> CurvatureSuiteReport:
    out = _ensure_out(cfg)
    rng = np.random.default_rng(cfg.seed)
    counts = {**_SUITE_DEFAULTS, **cfg.suite}
    n_pairs, n_aligned, n_trunc, n_heuristic = counts.values()
    rows = []
    violations = {
        "matrix_projector_bound": 0,
        "matrix_normal_bound": 0,
        "aligned_basis_bound": 0,
        "aligned_coeff_bound": 0,
        "truncation_distance": 0,
        "spectrum_consistency": 0,
        "degenerate_pair_residual": 0,
    }

    # matrix pairs with the exact boundary distance
    for i in range(n_pairs):
        x = random_point(rng, (5, 5), (2, 2), tt_ranks=(2,))
        y = random_point(rng, (5, 5), (2, 2), tt_ranks=(2,))
        rep = curvature_report(x, y)
        ok_p = rep.projector_difference_norm <= rep.projector_bound_tt + 1e-10
        ok_n = rep.normal_defect <= rep.normal_bound_tt + 1e-10
        violations["matrix_projector_bound"] += 0 if ok_p else 1
        violations["matrix_normal_bound"] += 0 if ok_n else 1
        rows.append(
            ("matrix_projector", i, rep.projector_difference_norm, rep.projector_bound_tt, int(ok_p))
        )
        rows.append(("matrix_normal", i, rep.normal_defect, rep.normal_bound_tt, int(ok_n)))

    # degenerate control: identical points must give vanishing differences
    x = random_point(rng, (5, 5), (2, 2), tt_ranks=(2,))
    rep = curvature_report(x, x)
    ok = rep.projector_difference_norm <= 1e-10 and rep.normal_defect <= 1e-12
    violations["degenerate_pair_residual"] += 0 if ok else 1
    rows.append(("degenerate_pair", 0, rep.projector_difference_norm, 1e-10, int(ok)))

    # aligned-basis inequalities
    for i in range(n_aligned):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(4, n + 1)))
        u = random_orthonormal(rng, n, r)
        v = random_orthonormal(rng, n, r)
        u = polar_align(u, v)
        arep = aligned_basis_report(u, v, rng.standard_normal(r), rng.standard_normal(r))
        ok_b = arep.basis_bound_ok
        ok_c = arep.coeff_bound_ok
        violations["aligned_basis_bound"] += 0 if ok_b else 1
        violations["aligned_coeff_bound"] += 0 if ok_c else 1
        rows.append(
            ("aligned_basis", i, arep.basis_diff, np.sqrt(2) * arep.projector_diff, int(ok_b))
        )

    # interface truncation distances and spectrum consistency
    shapes = [((3, 4, 3), (2, 2)), ((4, 3, 4), (2, 3)), ((3, 3, 3, 3), (2, 2, 2))]
    for i in range(n_trunc):
        dims, ranks = shapes[i % len(shapes)]
        t = random_tt(rng, dims, ranks)
        spec = interface_spectrum(t)
        x = DenseTensor.from_array(tt_to_dense(t))  # the train as an ambient tensor
        ok_all = True
        for m, vals in enumerate(spec.values):
            cut = truncate_interface(t, m)
            dist = (x - DenseTensor.from_array(tt_to_dense(cut))).norm()
            ok = abs(dist - vals[-1]) <= 1e-10 * max(1.0, x.norm())
            ok_all = ok_all and ok
            rows.append(("truncation_distance", i, dist, float(vals[-1]), int(ok)))
            ambient = svd(matricize(x, set(range(m + 1)))).singular_values
            ambient = ambient[: vals.size]  # np.allclose(vals, ambient, atol), written out
            atol = 1e-10 * max(1.0, x.norm())
            ok_s = bool(np.all(np.abs(vals - ambient) <= atol + 1e-5 * np.abs(ambient)))
            ok_all = ok_all and ok_s
            violations["spectrum_consistency"] += 0 if ok_s else 1
        violations["truncation_distance"] += 0 if ok_all else 1

    # higher-order pairs: the gap-based bound columns are heuristic, so
    # violations are recorded as observations rather than failures
    heuristic = {"pairs": 0, "projector_exceed": 0, "normal_exceed": 0, "max_ratio": 0.0}
    for i in range(n_heuristic):
        x = random_point(rng, (4, 4, 4), (2, 3, 2), tt_ranks=(2, 2), min_gap_rel=0.05)
        y, _ = perturbed_point(rng, x, 0.05)
        rep = curvature_report(x, y)
        heuristic["pairs"] += 1
        ratio = rep.projector_difference_norm / max(rep.projector_bound_outer, 1e-300)
        heuristic["max_ratio"] = max(heuristic["max_ratio"], float(ratio))
        if rep.projector_difference_norm > rep.projector_bound_outer + 1e-10:
            heuristic["projector_exceed"] += 1
        if rep.normal_defect > rep.normal_bound_outer + 1e-10:
            heuristic["normal_exceed"] += 1
        rows.append(
            ("heuristic_projector", i, rep.projector_difference_norm, rep.projector_bound_outer, -1)
        )

    meta = _metadata(cfg, {"counts": counts, "violations": violations, "heuristic": heuristic})
    csv_path = os.path.join(out, "curvature.csv")
    meta_path = os.path.join(out, "metadata.json")
    _write_csv(csv_path, ("check", "index", "observed", "bound", "ok"), rows, meta)
    _write_json(meta_path, meta)
    return CurvatureSuiteReport(
        counts=counts,
        violations=violations,
        heuristic_observations=heuristic,
        csv_path=csv_path,
        meta_path=meta_path,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    checks: dict
    violations: int
    meta_path: str


def run_diagnostics(cfg: ExperimentConfig) -> DiagnosticsReport:
    from .fem import check_a1_tangency, lipschitz_constant, mixed_derivative_check

    out = _ensure_out(cfg)
    problem, opts = problem_from_config(cfg.problem)
    _ambient_grid(problem)
    rng = np.random.default_rng(cfg.seed)
    disc = problem.disc
    op = problem.operator(0.0)
    lap = laplacian_operator(disc)
    dims = problem.dims
    sym = 0.0
    coercive_ok = True
    margin = problem.diffusion.spd_margin
    for _ in range(20):
        x, y = random_dense(rng, dims), random_dense(rng, dims)
        sym = max(
            sym,
            abs(inner(op.apply(x), y) - inner(x, op.apply(y)))
            / (x.norm() * y.norm()),
        )
        quad = inner(op.apply(x), x)
        vsq = inner(lap.apply(x), x)
        if quad < margin * vsq * (1 - 1e-10):
            coercive_ok = False
    split = 0.0
    for _ in range(5):
        x = random_dense(rng, dims)
        full = op.apply(x)
        parts = op.diagonal_part.apply(x) + op.cross_part.apply(x)
        split = max(split, (full - parts).norm() / max(full.norm(), 1e-300))
    lbar = lipschitz_constant(disc, problem.diffusion)
    lip_ok = True
    t0, t1 = 0.0, problem.diffusion.horizon
    op0, op1 = problem.operator(t0), problem.operator(t1)
    for _ in range(10):
        x = random_dense(rng, dims)
        vnorm = np.sqrt(max(inner(lap.apply(x), x), 0.0))
        if (op1.apply(x) - op0.apply(x)).norm() > lbar * (t1 - t0) * vnorm * (1 + 1e-10):
            lip_ok = False

    tangency = check_a1_tangency(problem.u0, op.diagonal_part, rng)
    control = check_a1_tangency(problem.u0, op.cross_part, rng)
    control_applicable = len(op.cross_part.terms) > 0
    mixed = mixed_derivative_check(problem.u0, disc)
    gap_val = problem.u0.gap
    gap_rel = gap_val / problem.u0.norm()

    checks = {
        "operator_symmetry_residual": float(sym),
        "coercivity_ok": bool(coercive_ok),
        "splitting_consistency_residual": float(split),
        "lipschitz_constant": float(lbar),
        "lipschitz_ok": bool(lip_ok),
        "tangency_residual": float(tangency),
        "tangency_ok": bool(tangency <= 1e-10),
        "negative_control_residual": float(control),
        "negative_control_applicable": bool(control_applicable),
        "negative_control_failed_as_expected": bool(
            (not control_applicable) or control >= 1e-2
        ),
        "mixed_derivative_ok": bool(mixed.passed),
        "initial_gap": float(gap_val),
        "initial_gap_relative": float(gap_rel),
        "initial_gap_above_threshold": bool(gap_rel > BREAKDOWN_REL),
    }
    violations = 0
    for key in (
        "coercivity_ok",
        "lipschitz_ok",
        "tangency_ok",
        "negative_control_failed_as_expected",
        "mixed_derivative_ok",
        "initial_gap_above_threshold",
    ):
        if not checks[key]:
            violations += 1
    if sym > 1e-8 or split > 1e-12:
        violations += 1
    meta = _metadata(cfg, {"checks": checks, "violations": violations})
    meta_path = os.path.join(out, "diagnostics.json")
    _write_json(meta_path, meta)
    return DiagnosticsReport(checks=checks, violations=violations, meta_path=meta_path)
