"""The project's pytest settings report every failure: a failing
``hypothesis`` test must not abort the run before the other tests, and
an ``xfail`` test that passes fails the run even without ``strict=True``."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
import pytest
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    pass


@pytest.mark.xfail(reason="mended since it was marked")
def test_xfail_that_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "2 failed, 1 passed" in output
    assert "[XPASS(strict)] mended since it was marked" in output
    assert run.returncode == 1
