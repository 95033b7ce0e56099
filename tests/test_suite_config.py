"""Checks of the suite's own pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # warnings are errors in this suite; hypothesis's failure report raises a
    # DeprecationWarning on its way, which, promoted, ends the session with
    # INTERNALERROR (exit 3) before the next test runs
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "2 failed" in done.stdout
