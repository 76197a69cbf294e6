"""Static checks on the library source."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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


def unneeded_exports(init: str, callers: list[str], library: list[str]) -> list[str]:
    """Names the package root imports that no caller reads and no library module reads."""
    exports = [alias.asname or alias.name for node in ast.parse(init).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = set().union(*map(names_read, callers + library))
    return sorted(n for n in exports if n not in read)


# Exports that no pipeline reads, each kept for a reason of its own.
KEPT_EXPORTS = {
    "compose": "the group law; tests check the fits' relative coordinates against it",
    "inverse": "the group inverse; tests check the fits' relative coordinates against it",
    "holder_modulus": "the paper's Hölder hypothesis on the kernel, for the variable-kernel sweep",
}


def test_every_export_is_needed():
    # an export that no CLI command, acceptance criterion, benchmark workload or other
    # library code needs is dead weight: delete it, or keep it above with a reason
    init = "from .a import f, g, h, k\nfrom .b import K\n"
    lib = ["def f():\n    return K()\n", "def g():\n    pass\n"]
    assert unneeded_exports(init, ["import a\na.k\nh()"], lib) == ["f", "g"]
    package = Path(kinlab.__file__).parent
    callers = [package / "cli.py", ROOT / "tests" / "test_acceptance.py",
               ROOT / "perfbench" / "workloads.py"]
    unneeded = unneeded_exports((package / "__init__.py").read_text(),
                                [p.read_text() for p in callers], [p.read_text() for p in MODULES])
    assert set(KEPT_EXPORTS) <= set(unneeded)
    assert sorted(set(unneeded) - set(KEPT_EXPORTS)) == []


def unneeded_members(classes, readme: str, callers: list[str], library: list[str]) -> list[str]:
    """Public methods and properties, as Class.name, of the given classes that the README
    does not name in backticks and no caller or library module reads as an attribute."""
    named = set(re.findall(r"`([A-Za-z_]\w*)`", readme))
    read = {node.attr for src in callers + library for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute)}
    kinds = (property, classmethod, staticmethod)
    return sorted(f"{cls.__name__}.{name}" for cls in classes for name, member in vars(cls).items()
                  if not name.startswith("_") and name not in named and name not in read
                  and (inspect.isfunction(member) or isinstance(member, kinds)))


def test_every_public_member_is_needed():
    # the same holds for the methods and properties of the exported classes
    class A:
        x = 1

        def f(self):
            pass

        def g(self):
            pass

        @property
        def h(self):
            pass

        @classmethod
        def k(cls):
            pass

        def _p(self):
            pass

    assert unneeded_members([A], "calls `g`", ["a.h"], ["A.k()\nf()"]) == ["A.f"]
    package = Path(kinlab.__file__).parent
    callers = [package / "cli.py", ROOT / "tests" / "test_acceptance.py",
               ROOT / "perfbench" / "workloads.py"]
    classes = [obj for obj in vars(kinlab).values() if inspect.isclass(obj)]
    assert unneeded_members(
        classes, (ROOT / "README.md").read_text(),
        [p.read_text() for p in callers], [p.read_text() for p in MODULES]) == []


def _defaulted(fn: ast.FunctionDef, skip_first: bool) -> list[tuple[int | None, str]]:
    """(position in a call, or None if keyword-only; name) of fn's parameters with a default."""
    pos = fn.args.posonlyargs + fn.args.args
    out = [(i - skip_first, a.arg) for i, a in enumerate(pos) if i >= len(pos) - len(fn.args.defaults)]
    return out + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def _dataclass_fields(cls: ast.ClassDef) -> list[tuple[int, str]] | None:
    """(position in a call; name) of the defaulted fields of a @dataclass, None for another class."""
    if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        return None
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
              and "ClassVar" not in ast.unparse(n.annotation)]
    return [(i, n.target.id) for i, n in enumerate(fields) if n.value is not None]


def unpassed_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters with a default, as module.function(name) or module.Class.method(name), that no
    call in callers passes by position or by name.

    Checked are the functions in a module's __all__, and the public methods, classmethods and
    __init__ of the classes in it, the fields of a dataclass as its __init__'s parameters.
    Calls are matched by bare name (f(...) and x.f(...) both call f; a class name calls its
    __init__), and a call that passes *args or **kwargs passes every parameter.
    """
    n_pos, keywords, splat = {}, {}, set()
    for node in (n for src in callers for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        n_pos[name] = max(n_pos.get(name, 0), len(node.args))
        keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
        if any(isinstance(a, ast.Starred) for a in node.args) or None in keywords[name]:
            splat.add(name)
    out = []
    for mod, src in modules.items():
        body = ast.parse(src).body
        exported = set().union(*(ast.literal_eval(n.value) for n in body if isinstance(n, ast.Assign)
                                 and any(getattr(t, "id", None) == "__all__" for t in n.targets)))
        sigs = []  # (label, name it is called by, definition, whether a bound first parameter)
        for node in body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                sigs.append((f"{mod}.{node.name}", node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                fields = _dataclass_fields(node)
                if fields:
                    sigs.append((f"{mod}.{node.name}.__init__", node.name, fields, False))
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or fn.name[0] != "_"):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                        call = node.name if fn.name == "__init__" else fn.name
                        sigs.append((f"{mod}.{node.name}.{fn.name}", call, fn, not static))
        for label, call, fn, bound in sigs:
            params = fn if isinstance(fn, list) else _defaulted(fn, bound)
            out += [f"{label}({arg})" for i, arg in params
                    if call not in splat and arg not in keywords.get(call, ())
                    and not (i is not None and i < n_pos.get(call, 0))]
    return sorted(out)


def test_every_default_is_passed():
    # a default that no library code, test or benchmark workload overrides is a setting
    # nothing runs: make it a constant
    src = ("__all__ = ['f', 'C', 'D', 'E']\n"
           "def f(x, y=1, *, z=2):\n    pass\n"
           "def g(q=1):\n    pass\n"
           "class C:\n"
           "    def __init__(self, a, b=0):\n        pass\n"
           "    def m(self, k=1, j=2):\n        pass\n"
           "    @classmethod\n    def c(cls, u=1):\n        pass\n"
           "    @staticmethod\n    def h(u, w=1):\n        pass\n"
           "    def _p(self, w=1):\n        pass\n"
           "@dataclass\nclass D:\n    a: int\n    n: ClassVar[int] = 3\n    b: int = 0\n"
           "    c: list = field(default_factory=list)\n    d: int = 1\n"
           "@dataclass(frozen=True)\nclass E:\n    e: int = 0\n")
    callers = ["f(1, z=3)\nC(1, 2)\nobj.m(5)\nC.h(1)\nD(1, 2, d=4)\n", "C.c(**kw)"]
    assert unpassed_defaults({"a": src}, callers) == ["a.C.h(w)", "a.C.m(j)", "a.D.__init__(c)",
                                                      "a.E.__init__(e)", "a.f(y)"]
    package = Path(kinlab.__file__).parent
    callers = [*package.glob("*.py"), *(ROOT / "tests").glob("*.py"), ROOT / "perfbench" / "workloads.py"]
    assert unpassed_defaults({p.stem: p.read_text() for p in MODULES},
                             [p.read_text() for p in callers]) == []


KERNEL_CLASSES = {name for name, obj in vars(kinlab.kernels).items()
                  if inspect.isclass(obj) and issubclass(obj, kinlab.kernels.Kernel)}


def cached_kernel_functions(source: str) -> list[str]:
    """Functions decorated with functools' lru_cache or cache that take a kernel: a parameter
    named K, K2, ... or kernel..., or annotated with a kernel class."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in fn.decorator_list]
        names = {getattr(d, "attr", None) or getattr(d, "id", None) for d in decorators}
        if not names & {"lru_cache", "cache"}:
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        if any(re.fullmatch(r"K\d*|kernel\w*", p.arg) or p.annotation is not None
               and set(re.findall(r"\w+", ast.unparse(p.annotation))) & KERNEL_CLASSES for p in params):
            out.append(fn.name)
    return out


def test_no_cache_is_keyed_by_a_kernel():
    # a module-level cache keyed by a kernel keeps every kernel it saw alive, and reads a
    # value computed for whichever kernel object came first
    src = ("@functools.lru_cache(maxsize=4096)\ndef _psi_even(K: Kernel, q: float):\n    pass\n"
           "@lru_cache\ndef a(kernel):\n    pass\n"
           "@functools.cache\ndef b(x: 'TruncatedStable | None'):\n    pass\n"
           "@cache\ndef c(n: int, *, s: float):\n    pass\n"
           "def d(K):\n    pass\n")
    assert cached_kernel_functions(src) == ["_psi_even", "a", "b"]
    package = Path(kinlab.__file__).parent
    assert [f"{p.name}: {fn}" for p in sorted(package.glob("*.py"))
            for fn in cached_kernel_functions(p.read_text())] == []


def test_import_loads_neither_scipy_optimize_nor_scipy_integrate():
    # together about 0.3 s of every start-up; HiGHS is imported on the first fallback fit
    code = ("import sys, kinlab, kinlab.cli\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(kinlab.__file__).parents[1])})
    assert out.stdout.strip() == "[]"
