"""Record the reference energies that the benchmark checks step workloads against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:perfbench python3 perfbench/record_references.py

Runs each step workload once per input seed and writes ``l2_terminal`` and
``v_integral`` of its energy report to ``perfbench/references.json``.  Only
re-record when a change is meant to alter the solver's results, and say so
in the change's notes.
"""

from __future__ import annotations

import json

from workloads import REFERENCES, SPLIT_SEEDS, STEP_WORKLOADS


def _values(workload, seed):
    problem = workload.setup(seed)
    report = workload.report(workload.solve(problem), problem)
    return {"l2_terminal": report.l2_terminal, "v_integral": report.v_integral}


def main():
    refs = {}
    for name, workload in STEP_WORKLOADS.items():
        if workload.input_seed(0) is None:
            refs[name] = _values(workload, 0)
        else:
            refs[name] = {str(s): _values(workload, s) for s in range(SPLIT_SEEDS)}
        print(name, "recorded")
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
