import importlib
import inspect
import pkgutil

import pytest

import cpdilate
from cpdilate import dilation, equivalence, linalg
from cpdilate.cpmaps import random_instance

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


@pytest.mark.parametrize("fn", [
    dilation.dilate, dilation.verify_dilation, dilation.minimality_defects,
    dilation.build_gram, dilation.build_W, equivalence.build_unitaries,
    linalg.kept_ranks, linalg.direct_sum_rank, linalg.svd_orthobasis,
])
def test_no_rank_cutoff_parameter(fn):
    # the one rank rule runs at linalg.DEFAULT_CUTOFF anywhere
    assert not [p for p in inspect.signature(fn).parameters if "cutoff" in p]


def test_tolerances_are_keyword_only():
    # an old positional cutoff must not silently become the tolerance
    inst = random_instance(0, 1, [1], [1], 1, 1)
    with pytest.raises(TypeError):
        dilation.dilate(inst, 1e-10)
    with pytest.raises(TypeError):
        dilation.build_gram(inst.cp, 1e-10)
