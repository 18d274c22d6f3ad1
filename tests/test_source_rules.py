"""Rules on the package source, read with ``ast``: which modules may use
numpy, which package modules bulk and enumeration may import, that no
internal check is an ``assert`` (which ``python -O`` strips), and how the
frozen records hold their fields."""

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
    # into reider, not even lazily; enumeration rests on lattice alone, and
    # lattice on nothing of the package
    def package(name):
        return {m for m in imported_modules(SRC / name) if m.split(".")[0] == "delpezzo"}

    assert package("bulk.py") <= {"delpezzo.lattice", "delpezzo.enumeration", "delpezzo.positivity"}
    assert package("enumeration.py") <= {"delpezzo.lattice"}
    assert package("lattice.py") == set()


def dataclass_records():
    """(module stem, class node, the decorator's constant keywords) of every
    ``@dataclass`` class in the package."""
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    func = dec.func if isinstance(dec, ast.Call) else dec
                    if isinstance(func, ast.Name) and func.id == "dataclass":
                        keywords = getattr(dec, "keywords", [])
                        yield path.stem, node, {kw.arg: ast.literal_eval(kw.value) for kw in keywords}


def test_no_frozen_record_holds_a_dict():
    # a dict field makes a frozen record unhashable and lets whoever reads
    # it edit it; the one exception is a cache kept out of == and hash
    found = {}
    for stem, node, keywords in dataclass_records():
        for stmt in node.body:
            if keywords.get("frozen") and isinstance(stmt, ast.AnnAssign):
                if ast.unparse(stmt.annotation).split("[")[0] == "dict":
                    found[f"{stem}.{node.name}.{stmt.target.id}"] = stmt.value
    assert set(found) == {"bulk._CandidateTable.expanded"}
    cache = found["bulk._CandidateTable.expanded"]
    assert ast.unparse(cache.func) == "field"
    assert any(kw.arg == "compare" and kw.value.value is False for kw in cache.keywords)


def test_slotted_records_take_their_setters_from_slot_setters():
    # _slot_setters also installs the __setattr__ and __delattr__ that
    # refuse every name with FrozenInstanceError
    slotted = {(stem, node.name) for stem, node, keywords in dataclass_records() if keywords.get("slots")}
    assert {"PicardClass", "EffectivityCertificate", "Violation", "PositivityReport"} <= {name for _, name in slotted}
    calls = {
        (path.stem, node.args[0].id)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_slot_setters"
        and len(node.args) == 1 and isinstance(node.args[0], ast.Name)
    }
    assert slotted <= calls


def test_only_the_hot_records_skip_their_checks():
    # a record's _trusted constructor skips the checks of its __init__; only
    # the two records that check-r8 and oracle-lowrank build on every
    # operation keep one, and every other record is built checked
    trusted = {
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(stmt, ast.FunctionDef) and stmt.name == "_trusted" for stmt in node.body)
    }
    assert trusted == {"PicardClass", "EffectivityCertificate"}


def test_reider_asks_bulk_two_questions():
    # reider words verdicts and bulk makes every array decision: reider
    # reads exactly two public names off bulk, so swapping the engine
    # behind them changes no line of reider
    path = SRC / "reider.py"
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    read = {
        node.attr for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bulk"
    }
    assert read == {"window_rows", "sweep_blocks"}
    assert not [name for name in read if name.startswith("_")]
    # and it takes no name out of bulk by ``from .bulk import``
    assert not [node for node in nodes if isinstance(node, ast.ImportFrom) and node.module == "bulk"]


def test_no_assert_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found



def test_ctx_is_optional_and_public_only():
    # a valid context carries nothing beyond its rank, so no private function
    # takes one (but _check_context, the one reader of a given ctx) and every
    # public one is optional: the set below is the five functions the
    # benchmark's workloads still pass a context to
    optional = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "_check_context":
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                for arg, default in [*zip(positional, defaults), *zip(args.kwonlyargs, args.kw_defaults)]:
                    if arg.arg == "ctx":
                        is_none = isinstance(default, ast.Constant) and default.value is None
                        optional[f"{path.stem}.{node.name}"] = is_none
    assert not [name for name in optional if name.split(".")[1].startswith("_")]
    assert all(optional.values()), optional
    assert set(optional) == {
        "positivity.is_effective", "positivity.is_k_very_ample", "positivity.generate_inequality_families",
        "reider.search_obstructions", "reider.consistency_sweep",
    }


def test_only_the_surface_context_caches_properties():
    # a record measures its subject once, when it is built, into init=False
    # fields; a cached_property would give a frozen record a second state,
    # after its first read.  The per-rank context is the one cache.
    owners = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                ast.unparse(dec).split(".")[-1] == "cached_property" for dec in node.decorator_list
            ):
                owners.add(f"{path.stem}.{getattr(parent[node], 'name', '<module>')}")
    assert owners == {"enumeration.SurfaceContext"}
