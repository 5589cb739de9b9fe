"""Source hygiene, by stdlib ast scans of src/qtsym and tests (package
re-exports in __init__.py are exempt): no module imports a name it never
uses, no function assigns a name it never reads, every name the package
exports is used somewhere in src/qtsym, tests or demos, only coeffring
divides or takes gcds of polynomials, and only the MacdonaldTable
constructor checks the characterization of H~."""

import ast
from pathlib import Path

import pytest

import qtsym

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for p in list((ROOT / "src" / "qtsym").glob("*.py")) + list((ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def referenced_names(source):
    """Names source reads (as a name, an attribute, an imported name or a
    part of an imported module path), leaving out what a definition's own
    body says of its name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        names = ()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = (node.id,)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = tuple(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = tuple(node.module.split("."))
        found.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def unreferenced(names, sources):
    """The names that no source references."""
    found = set()
    for source in sources:
        found |= referenced_names(source)
    return sorted(set(names) - found)


def unread_assignments(source):
    """(line, name) for each name a function binds by plain assignment and
    never reads; names declared global or nonlocal there, and _, are not
    counted."""
    out = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned, read, declared = {}, set(), {"_"}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        out.update((line, name) for name, line in assigned.items() if name not in read | declared)
    return sorted(out)


def test_scan_flags_an_unreferenced_export():
    sources = ["def f(n):\n    return f(n - 1)\n", "from mod import g\nprint(g, x.k)\n"]
    assert unreferenced({"f", "g", "h", "k", "mod"}, sources) == ["f", "h"]


def test_exports_are_referenced():
    sources = [p.read_text() for p in SOURCES + DEMOS]
    assert unreferenced(qtsym.__all__, sources) == []


def test_scan_flags_an_unread_assignment():
    source = (
        "def f():\n    x = 1\n    y = 2\n    return y\n"
        "def g():\n    global z\n    z = 3\n    w = 4\n    def h():\n        return w\n    return h\n"
    )
    assert unread_assignments(source) == [(2, "x")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.parent.name + "/" + p.name for p in SOURCES])
def test_no_unread_assignments(path):
    assert unread_assignments(path.read_text()) == []


# Exact division and gcds belong to coeffring, whose split_factors,
# split_product, split_over and factored_sum handle every fraction over
# known factors; the one exception is the Bareiss step, whose division
# by the previous pivot is exact by Sylvester's identity.
COEFFRING_ONLY = {"divexact", "gcd_cofactors", "poly_gcd"}
COEFFRING_EXEMPT = {"linalg.py": {"solve_bareiss"}}
PACKAGE = sorted((ROOT / "src" / "qtsym").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "coeffring.py"]
# The characterization of H~ is checked in one place: where a
# MacdonaldTable is made, built or reloaded.
TABLE_GATE = {"_verify_solution"}
TABLE_GATE_EXEMPT = {"macdonald.py": {"MacdonaldTable.__init__"}}


def restricted_calls(source, names, exempt=()):
    """(line, name) for each call of one of names in source, by name or
    as an attribute, outside the functions whose qualified names (f, or
    Class.f for a method) are in exempt."""
    out = []

    def visit(node, scope, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            inside = inside or ".".join(scope) in exempt
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                out.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, inside)

    visit(ast.parse(source), (), False)
    return sorted(out)


def test_scan_flags_a_coeffring_only_call():
    source = (
        "from .coeffring import poly_gcd\n"
        "def f(a, b):\n    return a.divexact(poly_gcd(a, b))\n"
        "def g(a, b):\n    return a.divexact(b)\n"
        "h = gcd_cofactors\n"
        "class C:\n    def g(self, a):\n        return a.divexact(a)\n"
    )
    everywhere = [(3, "divexact"), (3, "poly_gcd"), (5, "divexact"), (9, "divexact")]
    assert restricted_calls(source, COEFFRING_ONLY) == everywhere
    assert restricted_calls(source, COEFFRING_ONLY, {"g"}) == everywhere[:2] + everywhere[3:]
    assert restricted_calls(source, COEFFRING_ONLY, {"C.g"}) == everywhere[:3]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_coeffring_divides_or_takes_gcds(path):
    assert restricted_calls(path.read_text(), COEFFRING_ONLY, COEFFRING_EXEMPT.get(path.name, ())) == []


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_only_the_table_constructor_runs_the_characterization_gate(path):
    assert restricted_calls(path.read_text(), TABLE_GATE, TABLE_GATE_EXEMPT.get(path.name, ())) == []


def test_the_table_constructor_runs_the_characterization_gate():
    assert len(restricted_calls((ROOT / "src" / "qtsym" / "macdonald.py").read_text(), TABLE_GATE)) == 1
