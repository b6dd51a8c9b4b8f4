"""Benchmark entry point: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload pe3d_n128 --seed 1 --seconds 50 --trace 0

Run from the repository root.  The workload runs in a fresh child process
with BLAS pinned to one thread (``child.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print the same
metrics by name and unit, the failure ratio and the environment.  See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("pe3d_n128", "pe4d_n16", "split3d_n64", "curvature_suite")
# the child must finish well inside the three minutes a run may take
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    for needed in (
        os.path.join(src, "ttdlra", "__init__.py"),
        os.path.join(ROOT, "configs", "curvature_suite.json"),
    ):
        if not os.path.isfile(needed):
            return _fail(f"{os.path.relpath(needed, ROOT)} is missing; run from a full checkout")

    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, HERE, env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return _fail(f"child did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        return _fail(f"child exited with code {proc.returncode}")
    try:
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return _fail("child printed no result")

    metrics = child["per_layer"] if args.trace else child["metrics"]
    attempted = int(child["attempted"])
    failed = int(child["failed"])
    env_info = child["env"]
    print(
        f"workload {args.workload} seed {args.seed}: {child['runs']} untraced runs, "
        f"{child['traced_runs']} traced runs"
    )
    print(
        "environment: python {python}, numpy {numpy}, scipy {scipy}, "
        "OPENBLAS_NUM_THREADS={blas_threads}".format(**env_info)
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for failure in child["failures"]:
        print(f"  FAILED: {failure}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(child['spans_path'], ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
