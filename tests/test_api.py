"""Every exported name resolves, in each module and in the package, and is
used by the program, not only by its tests."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import ttdlra

MODULES = sorted(info.name for info in pkgutil.iter_modules(ttdlra.__path__))
ROOT = pathlib.Path(__file__).resolve().parents[1]
# names exported although only the tests call them, each with its reason
TESTED_ONLY = {
    "scale_point": "cone scaling belongs to the manifold's definition; the scale-invariance tests use it",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"ttdlra.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_package_all_resolves():
    assert [attr for attr in ttdlra.__all__ if not hasattr(ttdlra, attr)] == []


def test_generic_outer_ranks_resolves_at_package_and_problems():
    from ttdlra import problems, tt

    assert ttdlra.generic_outer_ranks is tt.generic_outer_ranks
    assert problems.generic_outer_ranks is tt.generic_outer_ranks


def _src_reads():
    """Names read in the package's modules: loaded names and attributes, so a
    definition, an ``__all__`` entry and the package's re-exports do not count."""
    reads = set()
    for path in (ROOT / "src" / "ttdlra").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
    return reads


def test_every_export_has_a_caller_outside_tests():
    reads = _src_reads()
    paths = [ROOT / "README.md"]
    for folder in ("demos", "tools", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    text = "\n".join(path.read_text() for path in paths)
    modules = [importlib.import_module(f"ttdlra.{name}") for name in MODULES]
    exported = {n for mod in modules for n in getattr(mod, "__all__", ())}
    uncalled = {n for n in exported if n not in reads and not re.search(rf"\b{n}\b", text)}
    assert uncalled == set(TESTED_ONLY)


def test_every_raise_raises_a_documented_type():
    # a raise names a type of errors.py or re-raises what it caught, so each
    # failure of the package has a documented type
    from ttdlra import errors

    documented = {
        name for name, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)
    }
    stray = []
    for path in sorted((ROOT / "src" / "ttdlra").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name not in documented:
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_small_matrix_calls_go_through_the_kernels():
    # the kernels of dense.py give numpy's bits at a fraction of its wrapper
    # cost: no np.linalg function, np.tensordot or np.moveaxis is called
    # elsewhere, and the hot np.allclose checks are written out; only the
    # DiffusionCoefficient checks, once per problem, keep np.allclose and
    # np.linalg.eigvalsh
    calls = {"np.tensordot", "np.moveaxis", "np.allclose"}
    stray = []
    for path in sorted((ROOT / "src" / "ttdlra").glob("*.py")):
        if path.name == "dense.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef) and top.name == "DiffusionCoefficient":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = ast.unparse(node.func)
                    if name in calls or name.startswith("np.linalg."):
                        stray.append(f"{path.name}:{node.lineno}: {name}")
    assert stray == []
