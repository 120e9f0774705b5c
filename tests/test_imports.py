"""Every name that a module of the package imports is used in it, and
every private top-level function or class is used somewhere in the
package outside its own definition."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "torsionlab"
# __init__.py imports names to re-export them.
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def _referenced(node: ast.AST) -> set[str]:
    """The names a piece of syntax mentions: names, attributes and the
    names of from-imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private top-level functions and classes, as "file: name", that no
    source mentions outside the definition itself."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    mentions = [(node, _referenced(node)) for tree in trees.values() for node in tree.body]
    return [f"{name}: {node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not any(node.name in names for other, names in mentions if other is not node)]


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import json\nimport random\nfrom os import path, sep\nprint(json, sep)\n"
    assert unused_imports(source) == ["path (line 3)", "random (line 2)"]


def test_no_private_definition_only_the_tests_use():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def test_detects_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used():\n    return 1\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "class _Dead:\n    pass\n\n"
                "def _exported():\n    pass\n\n"
                "def public():\n    return _used()\n",
        "b.py": "from .a import _exported\n",
    }
    assert unreferenced_private_definitions(sources) == [
        "a.py: _recursive", "a.py: _Dead"]
