"""Source hygiene: no module under src/qtsym or tests imports a name it
never uses. Package re-exports in __init__.py are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for p in list((ROOT / "src" / "qtsym").glob("*.py")) + list((ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by import statements that nothing in source reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_sources_are_found():
    assert any(p.parent.name == "qtsym" for p in SOURCES)
    assert any(p.parent.name == "tests" for p in SOURCES)


def test_scan_flags_an_unused_import():
    assert unused_imports("import io\nfrom os import path, sep\nprint(path)\n") == [
        (1, "io"),
        (2, "sep"),
    ]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.parent.name + "/" + p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
