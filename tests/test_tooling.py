"""Checks on the test setup and the package surface, not on the maths."""

import ast
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import alliancekit
from alliancekit.cli import main

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


def test_readme_quick_start_runs():
    """The first python block of README.md runs as written, and its result
    has the value the block's comment states."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["result"].value == 8


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Each line of README.md's "Command line" block runs through
    ``cli.main`` in one directory, in order, with the exit code pinned
    here: the ``check`` example's verdict is false, so it exits 1."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
    lines = block.splitlines()
    assert all(line.startswith("alliancekit ") for line in lines)
    monkeypatch.chdir(tmp_path)
    codes = {line: main(shlex.split(line)[1:]) for line in lines}
    capsys.readouterr()
    assert list(codes.values()) == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0], codes
    assert [line.split()[1] for line in lines] == [
        "family", "family", "product", "phi", "table", "check", "minimal", "witness",
        "audit", "audit"]


def test_console_script_and_module_entry_both_call_run():
    """The installed ``alliancekit`` command and ``python -m alliancekit.cli``
    take one path: the process entry ``cli.run``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"alliancekit": "alliancekit.cli:run"}
    tree = ast.parse((ROOT / "src" / "alliancekit" / "cli.py").read_text())
    main_blocks = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for block in main_blocks for stmt in block.body] == ["run()"]


def _bench_module(name: str):
    """``bench/<name>.py``, loaded as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["large-n", "k-sweep", "audit"])
def test_bench_jobs_match_their_goldens(workload, tmp_path):
    """Every bench job at the goldens' seed has a golden, and its output
    matches it: a changed audit record, phi record or CLI table fails here
    before a bench run rejects it."""
    workloads = _bench_module("workloads")
    _, jobs = workloads.setup(workload, workloads.DEFAULT_SEED, tmp_path)
    assert jobs and all(job.expected is not None for job in jobs)
    assert {job.name: job.check(job.run()) for job in jobs} == {job.name: [] for job in jobs}


def test_every_traced_bench_target_exists_and_is_restored():
    """Each (module, function) of the bench tracer's ``TARGETS`` exists and
    is replaced while the tracer is installed, and every attribute it
    patched holds its original object after ``restore``: deleting or
    renaming a traced name fails here before a bench run."""
    tracing = _bench_module("tracing")
    modules = {m: importlib.import_module(f"alliancekit.{m}") for m, _, _ in tracing.TARGETS}
    originals = {(m, f): getattr(modules[m], f) for m, f, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        for (m, f), original in originals.items():
            assert getattr(modules[m], f) is not original, (m, f)
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
