"""numpy stays the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ardnet"


def imported_roots(path):
    """Top-level names of every absolute import in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "ardnet"}
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [f"{path.name}: {root}" for path in files
               for root in imported_roots(path) if root not in allowed]
    assert not outside
