import ast
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
