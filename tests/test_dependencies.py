"""numpy stays the package's only runtime dependency, imported at module
level like every other import of the package; the package reads a
layer's weights as stored, which are masked at rest; one function
flattens a conv kernel into im2col's column order; and every public name
of the package is used by something other than the tests and demos."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ardnet"


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


def test_package_imports_are_at_module_level():
    nested = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
              for top in ast.parse(path.read_text(encoding="utf-8")).body
              for node in ast.walk(top)
              if node is not top and isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested


def test_package_never_calls_masked_weights():
    # nn.Layer keeps its weights masked, so a call would only copy them
    calls = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "masked_weights"]
    assert not calls


def test_one_function_flattens_a_conv_kernel():
    # nn.kernel_matrix holds im2col's (m, k, C) column order; a kernel
    # reshaped in place would read the columns in (C, m, k) order
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert not [name for name, text in sources.items() if "reshape(c_out, -1)" in text]
    defined = [name for name, text in sources.items()
               for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.FunctionDef) and node.name == "kernel_matrix"]
    assert defined == ["nn.py"]


def names_read(node):
    """Every name and attribute name that code under an AST node reads."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_public_name_is_used_outside_the_tests_and_demos():
    # test and demo oracles live in tests/oracles.py.  A name of a module's
    # __all__ must be named in perfbench/ or tools/ (their text, since
    # perfbench binds functions by their names as strings), or read by the
    # package's module-level code or by a package definition that is used in
    # turn; a definition that only an unused one reads is unused too
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        used |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    reads, public = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                reads.setdefault(top.name, set()).update(names_read(top))
            elif isinstance(top, ast.Assign) and getattr(top.targets[0], "id", "") == "__all__":
                public[path.stem] = ast.literal_eval(top.value)
            else:
                used |= names_read(top)
    frontier = used
    while frontier:
        frontier = set().union(*(reads.get(name, ()) for name in frontier)) - used
        used |= frontier
    unused = [f"{module}.{name}" for module, names in public.items()
              for name in names if name not in used]
    assert not unused
