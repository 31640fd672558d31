import ast
from collections import Counter
from pathlib import Path

import pytest

import ffzeta

MODULES = sorted(p for p in Path(ffzeta.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by an import in `source` that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os", ["os (line 1)"]),
    ("import os.path\nos.getcwd()", []),
    ("from .fields import FieldSpec, FqElem\nFqElem", ["FieldSpec (line 1)"]),
    ("from . import zeta as zeta_mod\nzeta_mod.power_sum", []),
    ("from dataclasses import dataclass, field\n@dataclass\nclass C: pass",
     ["field (line 1)"]),
    ("from .polyring import APoly\ndef f(a: APoly): pass", []),
    ("from __future__ import annotations", []),
    ("def f():\n    import numpy as np\n    return 1", ["np (line 2)"]),
])
def test_unused_import_guard_catches_each_form(source, unused):
    assert _unused_imports(source) == unused


def _referenced_names(node):
    """Every identifier `node` reads, reaches as an attribute or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreferenced_private_defs(sources):
    """Private module-level functions and classes of `sources` (file name
    -> text) that no code outside their own body refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = Counter(n for tree in trees.values() for n in _referenced_names(tree))
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and everywhere[node.name] == Counter(_referenced_names(node))[node.name]):
                unused.append(f"{name}: {node.name}")
    return unused


def test_every_private_helper_is_used():
    package = Path(ffzeta.__file__).parent.glob("*.py")
    assert _unreferenced_private_defs({p.name: p.read_text() for p in package}) == []


@pytest.mark.parametrize("sources, unused", [
    ({"a.py": "def _f(): pass"}, ["a.py: _f"]),
    ({"a.py": "def _f(): pass\n_f()"}, []),
    ({"a.py": "def _f(n):\n    return _f(n - 1)"}, ["a.py: _f"]),
    ({"a.py": "class _C: pass"}, ["a.py: _C"]),
    ({"a.py": "class _C:\n    def m(self): return _C()"}, ["a.py: _C"]),
    ({"a.py": "def _f(): pass", "b.py": "from .a import _f"}, []),
    ({"a.py": "def _f(): pass", "b.py": "from . import a\na._f()"}, []),
    ({"a.py": "def _f(): pass\ndef g(fn=_f): pass"}, []),
    ({"a.py": "def f(): pass\ndef __getattr__(name): pass"}, []),
])
def test_unused_private_helper_guard_catches_each_form(sources, unused):
    assert _unreferenced_private_defs(sources) == unused


def test_only_the_kernels_know_the_digit_width():
    """The packed digit width is chosen in `_kernels` alone: no other module
    names MAX_PACKED_P, so none branches on how wide a digit is."""
    assert [p.name for p in MODULES if p.name != "_kernels.py"
            and "MAX_PACKED_P" in _referenced_names(ast.parse(p.read_text()))] == []


# The only library functions that visit the q^d monics of a degree; the
# list may only shrink.  oracle.py enumerates freely: that is its job.
MONIC_LOOPS = {"zeta._orbit_members", "zeta.twisted_L_eval", "vadic.vadic_zeta_eval"}
ENUMERATORS = {"enumerate_monic", "monic_coeff_vectors"}


def _monic_loops(module, source):
    """module.function (module.Class.method) for every top-level function
    or method of `source` that reaches an enumerator by name, alias or
    attribute; a reach outside any function reads as module.<module>."""
    tree = ast.parse(source)
    names = set(ENUMERATORS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.name in ENUMERATORS and a.asname}

    def reaches(node):
        return any(isinstance(sub, ast.Name) and sub.id in names
                   or isinstance(sub, ast.Attribute) and sub.attr in ENUMERATORS
                   for sub in ast.walk(node))

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.{f.name}" if isinstance(f, functions) else node.name, f)
                      for f in node.body]
        elif isinstance(node, functions):
            scopes = [(node.name, node)]
        else:
            scopes = [("<module>", node)]
        found |= {f"{module}.{name}" for name, scope in scopes if reaches(scope)}
    return found


def test_only_the_listed_functions_visit_the_monics():
    found = set()
    for path in MODULES:
        if path.name != "oracle.py":
            found |= _monic_loops(path.stem, path.read_text())
    assert found <= MONIC_LOOPS, sorted(found - MONIC_LOOPS)


@pytest.mark.parametrize("source, found", [
    ("from .polyring import enumerate_monic\ndef f(s):\n    return list(enumerate_monic(s, 2))",
     {"m.f"}),
    ("from .polyring import monic_coeff_vectors as vecs\ndef f(s):\n    return vecs(s, 2)",
     {"m.f"}),
    ("from . import polyring\ndef f(s):\n    return polyring.enumerate_monic(s, 2)", {"m.f"}),
    ("import ffzeta.polyring\nclass C:\n    def g(self, s):\n"
     "        return ffzeta.polyring.monic_coeff_vectors(s, 1)", {"m.C.g"}),
    ("from .polyring import *\ndef f(s):\n    def inner():\n"
     "        return enumerate_monic(s, 1)\n    return inner()", {"m.f"}),
    ("from .polyring import enumerate_monic\nMONICS = list(enumerate_monic(None, 0))",
     {"m.<module>"}),
    ("from .polyring import APoly\ndef f(s):\n    return APoly.one(s)", set()),
])
def test_monic_loop_guard_catches_each_import_form(source, found):
    assert _monic_loops("m", source) == found


def _asserts(source):
    """Line numbers of the `assert` statements of `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_checks_with_raises_not_asserts(path):
    """`python -O` strips asserts, so a library check must be an explicit raise."""
    assert _asserts(path.read_text()) == []


def test_assert_guard_finds_nested_asserts():
    assert sorted(_asserts("def f(x):\n    if x:\n        assert x > 0\nassert f")) == [3, 4]
