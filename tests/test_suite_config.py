"""The suite's own pytest settings."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis's plugin may import libcst to report a failing example, and
    # that import warns; under `filterwarnings = error` the warning must not
    # end the session with an INTERNALERROR that hides the failure
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0
        """))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_given.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout, run.stdout
