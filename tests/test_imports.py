"""Every name a module imports at top level is used in it.

No linter ships with the test extra, so this stands in for the unused
import rule: a module's top-level imports are read with ``ast``, and each
bound name must appear as a name elsewhere in the same module.  It covers
the package modules, the tests and the demos.  ``__init__.py`` re-exports
what it imports, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

import alliancekit

PACKAGE = Path(alliancekit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _module_id(path: Path) -> str:
    # package modules keep their bare names; the others name their folder
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
