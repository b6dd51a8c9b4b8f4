"""The repository's tools, run with their expensive parts stubbed."""

import importlib.util
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _artifact_diff():
    spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "changed, status",
    [(None, 0), ("code", 1), ("file", 1), ("extra file", 1), ("stdout", 1)],
)
def test_artifact_diff_exit_status(monkeypatch, capsys, changed, status):
    # every config "runs" through a stub that writes one file; tree "b"
    # differs from tree "a" in the one respect named by ``changed``
    tool = _artifact_diff()

    def run(src, config, out):
        os.makedirs(out)
        other = src == "b"
        with open(os.path.join(out, "trajectory.csv"), "w") as fh:
            fh.write("t,e\n0,1.5\n" if other and changed == "file" else "t,e\n0,1.0\n")
        if other and changed == "extra file":
            open(os.path.join(out, "extra.json"), "w").close()
        code = 1 if other and changed == "code" else 0
        return code, ("run 2\n" if other and changed == "stdout" else "run 1\n")

    monkeypatch.setattr(tool, "_run", run)
    assert tool.main(["a", "b"]) == status
    lines = capsys.readouterr().out.splitlines()
    compared = [line for line in lines if line.startswith("  ")]
    identical = all(line.endswith(": identical") for line in compared)
    assert compared and identical == (changed in (None, "code"))
    assert tool.main(["a"]) == 2


def test_artifact_diff_compares_csv_columns_apart(monkeypatch, capsys):
    # two columns moved by different amounts are reported one by one, and an
    # unmoved column not at all; the exit status stays that of the file
    tool = _artifact_diff()
    a = "t,gap,residual\n0,1.0,3e-14\n1,2.0,1e-14\n"
    b = "t,gap,residual\n0,1.0,3e-14\n1,2.000000000000001,2e-14\n"
    assert tool.columns(a, b) == [
        "gap: max relative difference 4.44e-16",
        "residual: max relative difference 5.00e-01",
    ]
    assert tool.columns(a, a) == []
    assert tool.columns(a, b.replace("gap", "g")) == []  # another header
    assert tool.columns(a, b + "2,3.0,1e-14\n") == []  # another row count
    comment = '# {"a": 1, "b": 2}\n'  # a JSON comment line is not a row
    assert tool.columns(comment + a, comment.replace("2", "3") + b) == tool.columns(a, b)

    def run(src, config, out):
        os.makedirs(out)
        with open(os.path.join(out, "trajectory.csv"), "w") as fh:
            fh.write(b if src == "b" else a)
        return 0, ""

    monkeypatch.setattr(tool, "_run", run)
    assert tool.main(["a", "b"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  trajectory.csv: max relative difference 5.00e-01" in lines
    assert "    gap: max relative difference 4.44e-16" in lines
    assert not any(line.startswith("    t:") for line in lines)
