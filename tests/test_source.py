"""Checks on the source of the package itself."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dkequiv"


def private_reads(source):
    """(line, expression) for each read of an underscore attribute of an
    object other than self or cls; dunder methods such as __getitem__ are
    public protocol, not private state."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_") and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_private_reads_are_found():
    source = (
        "def f(self, cat, row):\n"
        "    self._a, cls._b = cat._hom_into(0), row.__getitem__\n"
        "    return self.x._c, cat.ok\n"
    )
    assert private_reads(source) == [(2, "cat._hom_into"), (3, "self.x._c")]


def test_src_reads_no_other_objects_private_attributes():
    found = {path.name: private_reads(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def unreferenced_names(sources):
    """The module-level functions and classes of sources, a dict from file
    name to source text, that no code of sources names outside their own
    definition: as a name, an attribute or an imported name."""
    defined, used = set(), set()
    for source in sources.values():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    used.add(name)
    return sorted(defined - used)


def test_unreferenced_names_are_found():
    sources = {
        "a.py": "def f(n):\n    return f(n - 1)\n\n"
                "def g():\n    return h.x\n\nclass C:\n    pass\n",
        "b.py": "from a import C\n\ndef h():\n    pass\n\ndef x():\n    pass\n",
    }
    assert unreferenced_names(sources) == ["f", "g"]


def test_src_defines_no_unreferenced_name():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_names(sources) == []


def unused_imports(source):
    """The names that source imports and never names again, but for
    `from __future__ import annotations`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from math import gcd, lcm as least\n\n"
        "def f(x):\n    return gcd(x, os.sep)\n"
    )
    assert unused_imports(source) == ["least", "system"]


def test_src_modules_use_every_name_they_import():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """Run in a fresh interpreter, since pytest itself imports inspect:
    the records are NamedTuples, so importing dkequiv, and its CLI, pulls
    in neither dataclasses nor inspect (and with them ast, dis and
    tokenize)."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import dkequiv\n"
        "first = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "import dkequiv.cli\n"
        "print(first, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(SRC.parent)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "[] []\n"
