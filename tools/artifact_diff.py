"""Compare the CLI artifacts of two source trees on every shipped config.

    python3 tools/artifact_diff.py <parent checkout>/src src

Runs each ``configs/*.json`` of this repository through ``python -m
ttdlra.cli`` once with ``src_a`` and once with ``src_b`` on the import path,
BLAS pinned to one thread, into a temporary directory that is removed
afterwards.  For every output file, and for stdout with the output directory
replaced by ``<out>``, it prints ``identical`` when the bytes agree, and
otherwise the largest relative difference over the file's numeric fields
(``text differs`` when the text between the numbers differs too).  Both exit
codes are printed per config.  The exit status is 0 when every exit code,
file and stdout agree, and 1 otherwise.
"""

from __future__ import annotations

import glob
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = {
    "solve": "solve",
    "convergence": "converge",
    "stability": "stability",
    "curvature": "curvature",
    "diagnostics": "diagnose",
}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\bNaN\b|-?\binf\b|-?Infinity")


def _run(src, config, out):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("TTDLRA_THREADS", None)
    with open(config) as fh:
        command = COMMANDS[json.load(fh)["kind"]]
    proc = subprocess.run(
        [sys.executable, "-m", "ttdlra.cli", command, "--config", config, "--out", out],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    return proc.returncode, proc.stdout.replace(out, "<out>")


def _relative(x: str, y: str) -> float:
    a, b = float(x), float(y)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(text_a: str, text_b: str) -> str:
    """``identical``, the largest relative difference of the numeric fields,
    or ``text differs`` when the text around the numbers is not the same."""
    if text_a == text_b:
        return "identical"
    nums_a, nums_b = NUMBER.findall(text_a), NUMBER.findall(text_b)
    if NUMBER.sub("#", text_a) != NUMBER.sub("#", text_b) or len(nums_a) != len(nums_b):
        return "text differs"
    worst = max(_relative(x, y) for x, y in zip(nums_a, nums_b))
    return f"max relative difference {worst:.2e}"


def _read(path) -> str:
    if not os.path.exists(path):
        return "<missing>"
    with open(path) as fh:
        return fh.read()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src_a, src_b = argv
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
            name = os.path.splitext(os.path.basename(config))[0]
            out_a, out_b = (os.path.join(tmp, side, name) for side in ("a", "b"))
            code_a, stdout_a = _run(src_a, config, out_a)
            code_b, stdout_b = _run(src_b, config, out_b)
            print(f"{name}: exit {code_a} / {code_b}")
            differs |= code_a != code_b
            files = set(os.listdir(out_a) if os.path.isdir(out_a) else [])
            files |= set(os.listdir(out_b) if os.path.isdir(out_b) else [])
            for fname in sorted(files):
                a, b = _read(os.path.join(out_a, fname)), _read(os.path.join(out_b, fname))
                print(f"  {fname}: {compare(a, b)}")
                differs |= a != b
            print(f"  stdout: {compare(stdout_a, stdout_b)}")
            differs |= stdout_a != stdout_b
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
