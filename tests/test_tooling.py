"""Checks on the test setup and the package surface, not on the maths."""

import ast
import subprocess
import sys
from pathlib import Path

import alliancekit

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    """Under the repo's pytest settings (``filterwarnings = error``), a
    failing ``@given`` test is one failure and the tests after it still run.
    On a failure Hypothesis imports libcst, whose import raises a
    ``mypy_extensions.TypedDict`` DeprecationWarning inside a plugin
    teardown; unfiltered, that warning became an INTERNALERROR that ended
    the session."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), "-p", "no:cacheprovider", "-q", str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout[-2000:]
    assert done.returncode == 1, done.stdout[-2000:]
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]


def test_all_names_exactly_what_init_imports():
    tree = ast.parse(Path(alliancekit.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(alliancekit.__all__) == len(set(alliancekit.__all__))
    assert sorted(alliancekit.__all__) == sorted(imported)
