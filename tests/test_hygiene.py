"""Static checks on the library source."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import kinlab

# __init__.py is left out: its imports are the package's exports.
MODULES = sorted(p for p in Path(kinlab.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read as a name, nor listed in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_unused_import_check_sees_attributes_and_exports():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\n__all__ = ['tau']\nnp.sum\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    # callers iterate __all__ and getattr each name, so a stale entry breaks them
    mod = importlib.import_module(f"kinlab.{path.stem}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level _private names that no code of the package reads, by module."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [f"{name}.{d}" for d in defined
                    if d.startswith("_") and not d.startswith("__") and d not in read]
    return sorted(out)


def test_unreferenced_private_check_sees_reads_imports_and_attributes():
    sources = {"a": "_X = 1\n_Y = 2\ndef _f():\n    return _X\ndef _g():\n    return _f()\n_Z = 3\n",
               "b": "from .a import _Y\nimport a\na._Z\n"}
    assert unreferenced_privates(sources) == ["a._g"]


def test_every_private_name_is_referenced():
    # a leftover helper or constant of a refactor shows up here
    package = Path(kinlab.__file__).parent
    sources = {p.stem: p.read_text() for p in package.glob("*.py")}
    assert unreferenced_privates(sources) == []


def names_read(source: str) -> set[str]:
    """Names a module loads, reads as an attribute or imports from another."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unneeded_exports(init: str, readme: str, callers: list[str], library: list[str]) -> list[str]:
    """Names the package root imports that the README does not name in backticks,
    no caller reads and no library module reads."""
    exports = [alias.asname or alias.name for node in ast.parse(init).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    named = set(re.findall(r"`([A-Za-z_]\w*)`", readme))
    read = set().union(*map(names_read, callers + library))
    return sorted(n for n in exports if n not in named and n not in read)


def test_every_export_is_needed():
    # an export that no README line, CLI command, acceptance criterion, benchmark
    # workload or other library code needs is dead weight: delete it
    init = "from .a import f, g, h, k\nfrom .b import K\n"
    lib = ["def f():\n    return K()\n", "def g():\n    pass\n"]
    assert unneeded_exports(init, "calls `h` and f", ["import a\na.k"], lib) == ["f", "g"]
    package = Path(kinlab.__file__).parent
    callers = [package / "cli.py", ROOT / "tests" / "test_acceptance.py",
               ROOT / "perfbench" / "workloads.py"]
    assert unneeded_exports(
        (package / "__init__.py").read_text(), (ROOT / "README.md").read_text(),
        [p.read_text() for p in callers], [p.read_text() for p in MODULES]) == []
