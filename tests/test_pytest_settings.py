"""The suite's own pytest settings: a failing hypothesis test must fail alone,
not end the session. Its failure report imports libcst, which subclasses the
deprecated ``mypy_extensions.TypedDict``, and ``filterwarnings = error`` once
turned that warning into an INTERNALERROR that stopped every later test."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SUITE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # a copy of the settings, so pytest's rootdir and hypothesis's
    # database stay inside tmp_path
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_suite.py").write_text(SUITE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_suite.py"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
