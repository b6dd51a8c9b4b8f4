"""Every exported name resolves, in each module and in the package."""

import importlib
import pkgutil

import pytest

import ttdlra

MODULES = sorted(info.name for info in pkgutil.iter_modules(ttdlra.__path__))


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
