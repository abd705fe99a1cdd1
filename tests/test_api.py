import importlib
import pkgutil

import pytest

import cpdilate

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(cpdilate.__path__))


def test_package_names_resolve():
    missing = [name for name in cpdilate.__all__ if not hasattr(cpdilate, name)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_names_resolve(name):
    # A stale __all__ entry would make ``from cpdilate.<name> import *`` raise.
    module = importlib.import_module(f"cpdilate.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
