"""Rules on the package source, read with ``ast``: which modules may use
numpy, which package modules bulk and enumeration may import, and that no
internal check is an ``assert`` (which ``python -O`` strips)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "delpezzo"
MODULES = sorted(SRC.glob("*.py"))


def imported_modules(path: Path, module_level: bool = False) -> set[str]:
    """Every module ``path`` imports, absolute (``numpy``) or relative to the
    package (``delpezzo.bulk``), at any depth of its code, or with
    ``module_level`` outside every function body (what importing runs)."""

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if not (module_level and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))):
                yield child
                yield from walk(child)

    names = set()
    for node in walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "delpezzo." * bool(node.level) + (node.module or "")
            names.add(base.rstrip("."))
            names.update(f"{base}{alias.name}" for alias in node.names if base == "delpezzo.")
    return names


def test_numpy_stays_behind_bulk():
    assert {"bulk.py", "lattice.py", "reider.py"} <= {p.name for p in MODULES}
    for path in MODULES:
        imports = imported_modules(path)
        if path.name != "bulk.py":
            assert not any(name == "numpy" or name.startswith("numpy.") for name in imports), path.name
        # bulk is loaded inside the functions that need arrays, so that the
        # package root and every command but verify start without numpy
        assert "delpezzo.bulk" not in imported_modules(path, module_level=True), path.name
        if path.stem in ("lattice", "enumeration", "positivity", "cli", "tables"):
            assert "delpezzo.bulk" not in imports, path.name


def test_import_graph_is_layered():
    # bulk counts with arrays and words nothing, so it never reaches back
    # into reider, not even lazily; enumeration rests on lattice alone
    def package(name):
        return {m for m in imported_modules(SRC / name) if m.split(".")[0] == "delpezzo"}

    assert package("bulk.py") <= {"delpezzo.lattice", "delpezzo.enumeration", "delpezzo.positivity"}
    assert package("enumeration.py") <= {"delpezzo.lattice"}


def test_no_assert_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found
