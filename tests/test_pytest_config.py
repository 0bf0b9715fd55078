"""The repository's pytest settings keep a run going past a failing
hypothesis test: its failure report imports libcst, whose deprecation
warning must not become an error that aborts the session."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("libcst")

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
