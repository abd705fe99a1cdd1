import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cpdilate
from cpdilate import dilation, equivalence, linalg
from cpdilate.cpmaps import random_instance

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(cpdilate.__path__))

# Registers the package without running its __init__, so that the named
# module is the first of the package's modules to execute.
IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("cpdilate")
package.__path__ = [sys.argv[1]]
sys.modules["cpdilate"] = package
importlib.import_module("cpdilate." + sys.argv[2])
"""


def test_package_names_resolve():
    missing = [name for name in cpdilate.__all__ if not hasattr(cpdilate, name)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_names_resolve(name):
    # A stale __all__ entry would make ``from cpdilate.<name> import *`` raise.
    module = importlib.import_module(f"cpdilate.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_module_imports_first(name):
    # cpmaps imports build_gram from dilation, which names cpmaps' classes
    # in annotations only: an import cycle would fail from one side.
    run = subprocess.run([sys.executable, "-c", IMPORT_FIRST, cpdilate.__path__[0], name],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_import_finds_no_blas_library():
    # the OpenBLAS lookup is lazy: importing the package, the CLI included,
    # costs every command's start-up nothing for it
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import cpdilate.cli; "
             "from cpdilate import linalg; print(linalg._openblas_threads.cache_info().misses)")
    run = subprocess.run([sys.executable, "-c", probe, str(Path(cpdilate.__path__[0]).parent)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0\n"


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
