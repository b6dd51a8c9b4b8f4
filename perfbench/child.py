"""One benchmark run of one workload, inside a fresh single-threaded process.

``run.py`` starts this file with BLAS pinned to one thread.  It repeats whole
runs of the workload until ``--seconds`` have passed, checks every run, and
prints one JSON object: end-to-end metrics from untraced runs, and with
``--trace 1`` also per-layer metrics from traced runs, which alternate with
untraced ones so that the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

from tracer import Tracer
from workloads import WORKLOADS, make_workload

# fewest whole runs per process, so that a median exists
MIN_RUNS = 3
# with tracing: fewest traced runs, so that two traces can be compared
MIN_TRACED = 2

# (metric, phase, source, statistic, normaliser); "step" divides by time
# steps taken, "phase" by the number of times the phase ran, "run" by the
# number of traced runs.  Phase None sums over every phase.
_SOLVE = "integrate.solve"
_REPORT = "integrate.energy_report"
_SETUP = "problems.problem_from_config"
_SUITE = "experiments.run_curvature_suite"
PER_LAYER = (
    ("integrate.solve.ms_per_step", _SOLVE, None, "phase_ms", "step"),
    ("integrate.solve.self_ms", _SOLVE, None, "self_ms", "step"),
    ("retraction.retract.ms_per_step", _SOLVE, "retraction.retract", "ms", "step"),
    ("retraction.input_bytes_per_step", _SOLVE, "retraction.input_bytes", "value", "step"),
    ("dense.ambient_tensors_per_step", _SOLVE, "dense.ambient_tensors", "count", "step"),
    ("dense.ambient_bytes_per_step", _SOLVE, "dense.ambient_bytes", "value", "step"),
    ("tangent.to_ambient.ms_per_step", _SOLVE, "tangent.to_ambient", "ms", "step"),
    ("manifold.point_to_dense.ms_per_step", _SOLVE, "manifold.point_to_dense", "ms", "step"),
    ("manifold.point_to_dense.calls_per_step", _SOLVE, "manifold.point_to_dense", "count", "step"),
    ("integrate.reduced_operator_matrix.ms_per_step", _SOLVE, "integrate.reduced_operator_matrix", "ms", "step"),
    ("integrate.reduced_point_image.ms_per_step", _SOLVE, "integrate.reduced_point_image", "ms", "step"),
    ("integrate.reduced_rhs_coords.ms_per_step", _SOLVE, "integrate.reduced_rhs_coords", "ms", "step"),
    ("tangent.basis.ms_per_step", _SOLVE, "tangent.basis", "ms", "step"),
    ("tangent.dim", _SOLVE, "tangent.basis", "mean_dim", "step"),
    ("tt.orthogonalize.ms_per_step", _SOLVE, "tt.orthogonalize", "ms", "step"),
    ("tt.tt_to_dense.ms_per_step", _SOLVE, "tt.tt_to_dense", "ms", "step"),
    ("fem.assemble_operator.ms_per_step", _SOLVE, "fem.assemble_operator", "ms", "step"),
    ("fem.assemble_rhs.ms_per_step", _SOLVE, "fem.assemble_rhs", "ms", "step"),
    ("fem.load_vector.calls_per_step", _SOLVE, "fem.load_vector", "count", "step"),
    ("integrate.state_from_point.ms_per_step", _SOLVE, "integrate.state_from_point", "ms", "step"),
    ("manifold.point_boundary_gap.ms_per_step", _SOLVE, "manifold.point_boundary_gap", "ms", "step"),
    ("integrate.energy_report.ms", _REPORT, None, "phase_ms", "phase"),
    ("integrate.energy_report.self_ms", _REPORT, None, "self_ms", "phase"),
    ("integrate.energy_report.manifold.point_to_dense.ms", _REPORT, "manifold.point_to_dense", "ms", "phase"),
    ("integrate.energy_report.fem.assemble_rhs.ms", _REPORT, "fem.assemble_rhs", "ms", "phase"),
    ("integrate.energy_report.tt.tt_to_dense.ms", _REPORT, "tt.tt_to_dense", "ms", "phase"),
    ("problems.problem_from_config.ms", _SETUP, None, "phase_ms", "phase"),
    ("problems.problem_from_config.self_ms", _SETUP, None, "self_ms", "phase"),
    ("problems.problem_from_config.retraction.retract.ms", _SETUP, "retraction.retract", "ms", "phase"),
    ("problems.problem_from_config.dense.svd.ms", _SETUP, "dense.svd", "ms", "phase"),
    ("problems.problem_from_config.tt.tt_round.ms", _SETUP, "tt.tt_round", "ms", "phase"),
    ("problems.problem_from_config.fem.mass_orthonormalize.ms", _SETUP, "fem.mass_orthonormalize", "ms", "phase"),
    ("sampling.random_point.ms", None, "sampling.random_point", "ms", "run"),
    ("tangent.curvature_report.ms", _SUITE, "tangent.curvature_report", "ms", "phase"),
    ("tangent.aligned_basis_report.ms", _SUITE, "tangent.aligned_basis_report", "ms", "phase"),
    ("tt.truncate_interface.ms", _SUITE, "tt.truncate_interface", "ms", "phase"),
    ("tt.interface_spectrum.ms", _SUITE, "tt.interface_spectrum", "ms", "phase"),
    ("dense.tensors_constructed", _SUITE, "dense.tensors_constructed", "count", "phase"),
    ("dense.mode_multiply.calls", _SUITE, "dense.mode_multiply", "count", "phase"),
)

UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "phase_ms": "ms",
    "count": "count",
    "mean_dim": "count",
    "value": "bytes",
}


def per_layer_metrics(tracers, steps):
    """Per-layer metrics summed over the traced runs and normalised."""
    phases = {phase for _, phase, _, _, _ in PER_LAYER}
    stats = [{phase: t.phase_stats(phase) for phase in phases} for t in tracers]
    out = {}
    for metric, phase, source, stat, per in PER_LAYER:
        total = 0.0
        ran = 0
        for tracer, tracer_stats in zip(tracers, stats):
            inclusive, phase_s, self_s, runs = tracer_stats[phase]
            ran += runs
            if stat == "ms":
                total += inclusive.get(source, 0.0) * 1e3
            elif stat == "phase_ms":
                total += phase_s * 1e3
            elif stat == "self_ms":
                total += self_s * 1e3
            elif stat == "count":
                total += tracer.counts.get((phase, source), 0)
            elif stat == "value":
                total += tracer.values.get((phase, source), 0.0)
            elif stat == "mean_dim":
                total += tracer.values.get((phase, source + ".dim"), 0.0)
        if stat == "mean_dim":
            calls = sum(t.counts.get((phase, source), 0) for t in tracers)
            value = total / calls if calls else 0.0
        elif per == "step":
            value = total / steps if steps else 0.0
        elif per == "run":
            value = total / len(tracers)
        else:
            value = total / ran if ran else 0.0
        out[metric] = {"value": value, "unit": UNITS[stat]}
    return out


def write_spans(path, tracers):
    with open(path, "w") as fh:
        for run, tracer in enumerate(tracers):
            for idx, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(
                    json.dumps(
                        {"run": run, "id": idx, "parent": parent, "name": name,
                         "start": start, "end": end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _median(values):
    return float(statistics.median(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    workload = make_workload(args.workload, args.out_dir)

    def timed(name, fn, *fn_args):
        t0 = time.perf_counter()
        result = fn(*fn_args)
        return result, time.perf_counter() - t0

    runs = []
    tracers = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        if traced:
            tracer = Tracer(workload.ambient_size)

            def phase(name, fn, *fn_args, tracer=tracer):
                t0 = time.perf_counter()
                result = tracer.run_phase(name, fn, *fn_args)
                return result, time.perf_counter() - t0

            with tracer:
                run = workload.run_once(args.seed, phase)
            tracers.append(tracer)
        else:
            run = workload.run_once(args.seed, timed)
        run["traced"] = traced
        runs.append(run)
        enough = len(runs) >= MIN_RUNS
        if args.trace:
            enough = enough and len(tracers) >= MIN_TRACED
        if enough and time.perf_counter() - start >= args.seconds:
            break

    # every run computes the same thing: traced and untraced runs must agree
    # bit for bit, and traced runs must count the same work
    first = runs[0]["fingerprint"]
    for i, run in enumerate(runs):
        if run["fingerprint"] != first:
            run["failures"].append(f"run {i} output {run['fingerprint']} differs from run 0 {first}")
    signatures = [t.signature() for t in tracers]
    for i, sig in enumerate(signatures[1:], start=1):
        if sig != signatures[0]:
            traced_runs = [r for r in runs if r["traced"]]
            traced_runs[i]["failures"].append(f"traced run {i} counts differ from traced run 0")
    for run in runs:
        if run["failures"]:
            run["failed"] = run["attempted"]

    plain = [r for r in runs if not r["traced"]]
    metrics = {
        "run_s": {"value": _median([r["run_s"] for r in plain]), "unit": "s"},
        "setup_s": {
            "value": _median([s for r in plain for s in r["setup_s"]]),
            "unit": "s",
        },
        "step_ms": {"value": _median([r["step_ms"] for r in plain]), "unit": "ms"},
        "report_s": {"value": _median([r["report_s"] for r in plain]), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "runs": len(plain),
        "traced_runs": len(tracers),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "metrics": metrics,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if args.trace:
        steps = sum(r["steps"] for r in runs if r["traced"])
        layers = per_layer_metrics(tracers, steps)
        traced_run_s = _median([r["run_s"] for r in runs if r["traced"]])
        layers["trace.overhead_s"] = {
            "value": traced_run_s - metrics["run_s"]["value"],
            "unit": "s",
        }
        result["per_layer"] = layers
        spans_path = os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        write_spans(spans_path, tracers)
        result["spans_path"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
