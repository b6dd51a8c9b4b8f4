"""Scaling record of the projected-Euler step and the set-up in the grid size and in d.

    python3 tools/bench_banded.py --label before --src <parent checkout>/src --out BENCH_banded.json
    python3 tools/bench_banded.py --label after --src src --out BENCH_banded.json
    python3 tools/bench_banded.py --grid dims --label before --src <parent checkout>/src \
        --out BENCH_reduced.json
    python3 tools/bench_banded.py --grid dims --dims 3 4 5 6 7 8 --label after --src src \
        --out BENCH_reduced.json
    python3 tools/bench_banded.py --grid setup --dims 3 4 5 6 7 8 9 --label before \
        --src <parent checkout>/src --out BENCH_setup.json
    python3 tools/bench_banded.py --grid suite --label after --src src --out BENCH_kernels.json
    python3 tools/bench_banded.py --cells 128 --label after --src src --out BENCH_modestack.json
    python3 tools/bench_banded.py --grid footprint --label before --src <parent checkout>/src \
        --out BENCH_footprint.json

``BENCH_precond.json`` holds both default grids, recorded the same way,
``BENCH_retract.json`` both step grids (dims 3 to 8) in alternating passes,
``BENCH_setup.json`` the set-up grid, and ``BENCH_report.json`` the dims
grid (dims 3 to 8) with ``report_ms``, in alternating passes, and
``BENCH_kernels.json`` and ``BENCH_linalg.json`` each the suite grid and
the dims grid (dims 3 to 8), in alternating passes.  ``BENCH_modestack.json``
holds the cells grid at 128 cells and the dims grid at dims 3, 5 and 8, in
alternating passes, and ``BENCH_footprint.json`` the footprint grid, in
alternating passes.
``--grid cells`` (the default) times, for d = 3 at each of ``--cells``
(default 128, 256, 512 and 1024), the set-up (``problem_from_config``), one projected implicit Euler step
from the initial state and its retraction (``integrate._retract_step``, timed
by wrapping it, so a parent tree is timed the same way), the Galerkin
operator's set-up (``tangent_operator``) and the preconditioner build of that
step, ``_preconditioner(basis, op, tau, tangent_operator(basis, op))``, which
includes the operator's set-up, since the preconditioner reads its couplings.
Both step grids also time ``cg_ms``, one ``_pcg`` of the first step's
Galerkin system, and ``precond_apply_ms``, one apply of its preconditioner.
``--grid dims`` times, at 16 cells for each d of ``--dims`` (default 3 to 7),
one step and its retraction, the tangent basis of the initial point
(``TangentBasis``), one matvec of the Galerkin operator, the operator's
set-up and ``report_ms``, one ``energy_report`` of a ``REPORT_STEPS``-step
trajectory.  ``--grid setup`` times the set-up alone, at 128 cells for d = 3 and
at 16 cells for each d of ``--dims``: ``setup_ms``, and ``setup_peak_mib``,
the peak of one further call traced by ``tracemalloc``.  ``--grid suite``
times ``suite_ms``, one ``run_curvature_suite`` call on
``configs/curvature_suite.json`` (after a warm-up call), writing into a
temporary directory.  ``--grid footprint`` starts ``PROCESSES`` fresh
interpreters, one after another, that each build the
``pe3d_n128`` problem with ``problem_from_config`` and solve it for
``FOOTPRINT_STEPS`` steps: ``wall_ms`` is the median time from starting a
process to its exit, ``peak_rss_mib`` the median of each process's peak RSS
(from ``os.wait4``), ``modules`` the median count of ``sys.modules`` at the
end, and ``scipy_linalg_loaded`` whether any process loaded ``scipy.linalg``.
In the other grids ``peak_rss_mib`` is this process's peak RSS after the
size; sizes run in the order given, so it bounds the size's own peak from
above.  A size whose first call takes more
than ``SLOW_S`` seconds is timed by that call alone (``repeats`` 1).  Every
other time is the median of ``REPEATS`` runs.  BLAS is pinned to one thread;
``cg_iterations`` lists the CG iteration count of each timed step of the last
pass.  The problem is the one of the ``pe3d_n128`` benchmark workload, in d
modes: three sine terms, a constant source, tau = 1e-3, train ranks 3 and
auto outer ranks.  ``--src`` selects the source tree to import, so the same
script records a parent checkout (``--label before``) and this one
(``--label after``).  A pass adds its times and sizes in MiB to the row of the
same label, d and cells (or suite, or footprint) in ``--out``: the row keeps
each pass's values under ``per_pass`` and reports their median, with the count
in ``passes``, so passes
of the two labels run alternately give before/after medians under the same
host load.
A row without ``per_pass`` (an older record) is replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

D = 3
CELLS = (128, 256, 512, 1024)
DIMS = (3, 4, 5, 6, 7)
DIMS_CELLS = 16
REPEATS = 15
REPORT_STEPS = 4
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE_CONFIG = os.path.join(ROOT, "configs", "curvature_suite.json")
SETUP_CELLS = 128  # the set-up grid's d = 3 row, the pe3d_n128 workload's size
SLOW_S = 1.0
TAU = 1e-3
TT_RANK = 3
PROCESSES = 5  # fresh processes per footprint pass
FOOTPRINT_STEPS = 3  # the pe3d_n128 workload's run
# one footprint process: build and solve the problem of argv[2] with the tree of argv[1]
FOOTPRINT_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from ttdlra.integrate import solve
from ttdlra.problems import problem_from_config
problem, run = problem_from_config(json.loads(sys.argv[2]))
solve(problem, run["scheme"], run["tau"], run["t_end"])
print(json.dumps({"scipy_linalg": "scipy.linalg" in sys.modules, "modules": len(sys.modules)}))
"""


def _config(cells, d=D):
    return {
        "dims": d,
        "cells": cells,
        "b0": [[1.0 if i == j else 0.25 for j in range(d)] for i in range(d)],
        "t_end": TAU,
        "tau": TAU,
        "scheme": "projected_euler",
        "tt_ranks": [TT_RANK] * (d - 1),
        "initial": [
            {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * d}
            for c, k in ((1.0, 1), (0.5, 2), (0.25, 3))
        ],
        "sources": [{"time_poly": [1.0], "profiles": ["constant"] * d}],
    }


def _median_ms(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _time_steps(problem):
    """Median time of one projected Euler step from the initial state, after
    a warm-up, the median time of its retraction, and the CG iteration count
    of each timed step (read by wrapping ``integrate._pcg`` and
    ``integrate._retract_step``)."""
    from ttdlra import integrate

    state = integrate.state_from_point(problem.u0, 0.0, problem.disc)
    integrate.step_projected_implicit_euler(state, TAU, problem)  # warm-up
    counts, retract_times = [], []
    pcg, retract = integrate._pcg, integrate._retract_step

    def counted(*args):
        x, iterations = pcg(*args)
        counts.append(iterations)
        return x, iterations

    def timed(*args):
        start = time.perf_counter()
        out = retract(*args)
        retract_times.append(time.perf_counter() - start)
        return out

    integrate._pcg, integrate._retract_step = counted, timed
    try:
        step_ms = _median_ms(lambda: integrate.step_projected_implicit_euler(state, TAU, problem))
    finally:
        integrate._pcg, integrate._retract_step = pcg, retract
    return {
        "step_ms": round(step_ms, 3),
        "retract_ms": round(1e3 * statistics.median(retract_times), 3),
        "cg_iterations": counts,
    }


def _galerkin(problem, basis):
    """The first step's operator, its matvec, the point's coordinates
    ``(C, 0, ..., 0)`` and the times of one CG solve of the step's system and
    one preconditioner apply."""
    import numpy as np

    from ttdlra.integrate import _pcg, _preconditioner, _source_coords, tangent_operator

    op = problem.operator(TAU)
    matvec = tangent_operator(basis, op)
    u_coords = np.zeros(sum(basis.block_sizes))
    u_coords[: basis.block_sizes[0]] = basis.core_basis.T @ basis.core.ravel(order="F")
    b = _source_coords(basis, problem.source_factors(TAU)) - matvec(u_coords)
    precond = _preconditioner(basis, op, TAU, matvec)
    times = {
        "cg_ms": round(_median_ms(lambda: _pcg(lambda x: x / TAU + matvec(x), precond, b)), 3),
        "precond_apply_ms": round(_median_ms(lambda: precond(b)), 3),
    }
    return op, matvec, u_coords, times


def measure_cells(cells):
    from ttdlra.integrate import _preconditioner, tangent_operator
    from ttdlra.problems import problem_from_config
    from ttdlra.tangent import TangentBasis

    cfg = _config(cells)
    problem, _ = problem_from_config(cfg)
    setup_ms = _median_ms(lambda: problem_from_config(cfg))
    steps = _time_steps(problem)
    basis = TangentBasis(problem.u0)
    op, _, _, solve_times = _galerkin(problem, basis)
    operator_ms = _median_ms(lambda: tangent_operator(basis, op))
    precond_ms = _median_ms(lambda: _preconditioner(basis, op, TAU, tangent_operator(basis, op)))
    return _row(D, cells, problem, basis) | {
        "setup_ms": round(setup_ms, 3),
        **steps,
        "operator_setup_ms": round(operator_ms, 3),
        "preconditioner_build_ms": round(precond_ms, 3),
        **solve_times,
    }


def measure_dims(d):
    from ttdlra.integrate import energy_report, solve, tangent_operator
    from ttdlra.problems import problem_from_config
    from ttdlra.tangent import TangentBasis

    problem, _ = problem_from_config(_config(DIMS_CELLS, d))
    long_run, _ = problem_from_config(_config(DIMS_CELLS, d) | {"t_end": REPORT_STEPS * TAU})
    trajectory = solve(long_run, "projected_euler", TAU, REPORT_STEPS * TAU)
    report_ms = _median_ms(lambda: energy_report(trajectory, long_run))
    steps = _time_steps(problem)
    basis = TangentBasis(problem.u0)
    basis_ms = _median_ms(lambda: TangentBasis(problem.u0))
    op, matvec, u_coords, solve_times = _galerkin(problem, basis)
    setup_ms = _median_ms(lambda: tangent_operator(basis, op))
    x = matvec(u_coords)  # a gauge vector, as CG applies the operator to
    matvec_ms = _median_ms(lambda: matvec(x))
    return _row(d, DIMS_CELLS, problem, basis) | {
        **steps,
        "basis_ms": round(basis_ms, 3),
        "matvec_ms": round(matvec_ms, 3),
        "operator_setup_ms": round(setup_ms, 3),
        "report_ms": round(report_ms, 3),
        **solve_times,
    }


def measure_setup(size):
    import resource
    import tracemalloc

    from ttdlra.problems import problem_from_config

    d, cells = size
    cfg = _config(cells, d)
    start = time.perf_counter()
    problem, _ = problem_from_config(cfg)
    first = time.perf_counter() - start
    slow = first > SLOW_S
    setup_ms = 1e3 * first if slow else _median_ms(lambda: problem_from_config(cfg))
    tracemalloc.start()
    try:
        problem_from_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "d": d,
        "cells": cells,
        "train_ranks": [TT_RANK] * (d - 1),
        "outer_ranks": list(problem.u0.outer_ranks),
        "repeats": 1 if slow else REPEATS,
        "setup_ms": round(setup_ms, 3),
        "setup_peak_mib": round(peak / 2**20, 3),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def measure_suite(config):
    import tempfile

    from ttdlra.experiments import ExperimentConfig, run_curvature_suite

    with open(config) as fh:
        raw = json.load(fh)
    with tempfile.TemporaryDirectory() as out_dir:
        cfg = ExperimentConfig.from_dict(raw | {"out_dir": out_dir})
        run_curvature_suite(cfg)  # warm-up
        suite_ms = _median_ms(lambda: run_curvature_suite(cfg))
    return {
        "suite": os.path.splitext(os.path.basename(config))[0],
        "seed": cfg.seed,
        "repeats": REPEATS,
        "suite_ms": round(suite_ms, 3),
    }


def measure_footprint(src):
    import subprocess

    cfg = json.dumps(_config(SETUP_CELLS) | {"t_end": FOOTPRINT_STEPS * TAU})
    walls, rss, modules, loaded = [], [], [], []
    for _ in range(PROCESSES):
        start = time.perf_counter()
        args = [sys.executable, "-c", FOOTPRINT_CODE, src, cfg]
        with subprocess.Popen(args, stdout=subprocess.PIPE, text=True) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak RSS
            walls.append(time.perf_counter() - start)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"footprint process exited with {proc.returncode}")
        rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
        out = json.loads(out)
        modules.append(out["modules"])
        loaded.append(out["scipy_linalg"])
    return {
        "footprint": "pe3d_n128",
        "d": D,
        "cells": SETUP_CELLS,
        "steps": FOOTPRINT_STEPS,
        "processes": PROCESSES,
        "wall_ms": round(1e3 * statistics.median(walls), 3),
        "peak_rss_mib": round(statistics.median(rss), 3),
        "modules": statistics.median_low(modules),
        "scipy_linalg_loaded": any(loaded),
    }


def _key(row):
    return row["label"], row.get("suite"), row.get("footprint"), row.get("d"), row.get("cells")


def _row(d, cells, problem, basis):
    return {
        "d": d,
        "cells": cells,
        "train_ranks": [TT_RANK] * (d - 1),
        "outer_ranks": list(problem.u0.outer_ranks),
        "tangent_dim": int(basis.dim),
        "repeats": REPEATS,
    }


def _accumulate(old, row):
    """``row`` with the times and sizes of its pass appended to those of ``old``
    under ``per_pass``, and each the median over the passes."""
    times = [k for k in row if k.endswith(("_ms", "_mib"))]
    per_pass = {}
    if old is not None and "per_pass" in old:
        per_pass = old["per_pass"]
    for k in times:
        per_pass.setdefault(k, []).append(row[k])
    medians = {k: round(statistics.median(v), 3) for k, v in per_pass.items()}
    return row | medians | {"passes": len(per_pass[times[0]]), "per_pass": per_pass}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row label, e.g. before or after")
    parser.add_argument("--src", required=True, help="source tree holding the ttdlra package")
    parser.add_argument("--out", required=True, help="JSON record to update")
    parser.add_argument(
        "--grid",
        choices=("cells", "dims", "setup", "suite", "footprint"),
        default="cells",
        help="what to scan",
    )
    parser.add_argument("--dims", type=int, nargs="+", default=DIMS, help="d of the dims grid")
    parser.add_argument("--cells", type=int, nargs="+", default=CELLS, help="of the cells grid")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy
    import scipy

    record = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }
    sizes, measure = {
        "cells": (args.cells, measure_cells),
        "dims": (args.dims, measure_dims),
        "setup": ([(D, SETUP_CELLS)] + [(d, DIMS_CELLS) for d in args.dims], measure_setup),
        "suite": ([SUITE_CONFIG], measure_suite),
        "footprint": ([os.path.abspath(args.src)], measure_footprint),
    }[args.grid]
    for size in sizes:
        row = {"label": args.label, **measure(size)}
        print(json.dumps(row), flush=True)
        old = [r for r in record["rows"] if _key(r) == _key(row)]
        record["rows"] = [r for r in record["rows"] if _key(r) != _key(row)]
        record["rows"].append(_accumulate(old[0] if old else None, row))
    record["rows"].sort(
        key=lambda r: (r["label"] != "before", "suite" not in r, r.get("d", 0), r.get("cells", 0))
    )
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
