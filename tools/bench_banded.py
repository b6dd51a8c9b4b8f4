"""Scaling record of the projected-Euler set-up and step in the grid size.

    python3 tools/bench_banded.py --label before --src <parent checkout>/src --out BENCH_banded.json
    python3 tools/bench_banded.py --label after --src src --out BENCH_banded.json

Times, for d = 3 at 128, 256, 512 and 1024 cells, the set-up
(``problem_from_config``), one projected implicit Euler step from the initial
state and the preconditioner build of that step, each the median of
``REPEATS`` runs with BLAS pinned to one thread.  The problem is the one of
the ``pe3d_n128`` benchmark workload: three sine terms, a constant source,
tau = 1e-3, train ranks (3, 3) and auto outer ranks.  ``--src`` selects the
source tree to import, so the same script records a parent checkout
(``--label before``) and this one (``--label after``); rows with the same label
and cells in ``--out`` are replaced, all others kept.
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
REPEATS = 7
TAU = 1e-3
TT_RANKS = (3, 3)


def _config(cells):
    return {
        "dims": D,
        "cells": cells,
        "b0": [[1.0 if i == j else 0.25 for j in range(D)] for i in range(D)],
        "t_end": TAU,
        "tau": TAU,
        "scheme": "projected_euler",
        "tt_ranks": list(TT_RANKS),
        "initial": [
            {"coefficient": c, "profiles": [{"kind": "sine", "frequency": k}] * D}
            for c, k in ((1.0, 1), (0.5, 2), (0.25, 3))
        ],
        "sources": [{"time_poly": [1.0], "profiles": ["constant"] * D}],
    }


def _median_ms(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def measure(cells):
    from ttdlra.integrate import _preconditioner, state_from_point, step_projected_implicit_euler
    from ttdlra.problems import problem_from_config
    from ttdlra.tangent import TangentBasis

    cfg = _config(cells)
    problem, _ = problem_from_config(cfg)
    setup_ms = _median_ms(lambda: problem_from_config(cfg))
    state = state_from_point(problem.u0, 0.0, problem.disc)
    step_projected_implicit_euler(state, TAU, problem)  # warm-up
    step_ms = _median_ms(lambda: step_projected_implicit_euler(state, TAU, problem))
    basis = TangentBasis(problem.u0)
    op = problem.operator(TAU)
    precond_ms = _median_ms(lambda: _preconditioner(basis, op, TAU))
    return {
        "d": D,
        "cells": cells,
        "train_ranks": list(TT_RANKS),
        "outer_ranks": list(problem.u0.outer_ranks),
        "tangent_dim": int(basis.dim),
        "repeats": REPEATS,
        "setup_ms": round(setup_ms, 3),
        "step_ms": round(step_ms, 3),
        "preconditioner_build_ms": round(precond_ms, 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row label, e.g. before or after")
    parser.add_argument("--src", required=True, help="source tree holding the ttdlra package")
    parser.add_argument("--out", required=True, help="JSON record to update")
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
    for cells in CELLS:
        row = {"label": args.label, **measure(cells)}
        print(json.dumps(row), flush=True)
        record["rows"] = [
            r for r in record["rows"] if (r["label"], r["cells"]) != (args.label, cells)
        ] + [row]
    record["rows"].sort(key=lambda r: (r["label"] != "before", r["cells"]))
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
