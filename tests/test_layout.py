"""Source-layout rules for src/graphent, checked with the stdlib ast module.

Every imported name is used (the package __init__ re-exports, so it is
exempt, and its __all__ lists exactly what it imports, sorted). Every
module-level function is exported or named somewhere in the package
outside its own body. graphent modules import each other at module
level only and only by public names, and those imports form no cycle.
The parameters of the public API are pinned in one inventory. Every
module parses at the Python floor pyproject.toml declares.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import graphent

SRC = Path(graphent.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _graphent_imports(nodes) -> set[str]:
    """Names of the graphent modules imported by the given nodes."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphent."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("graphent."))
    return out


def test_every_imported_name_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}.py:{line} {alias}" for alias, line in imported.items()
                   if alias not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_module_level_function_is_exported_or_used():
    # A helper that a simplification leaves behind shows up here: no
    # call, reference or export names it. Names are gathered per top-level
    # statement, so a function's own body (say, a recursive call) does not
    # count as a use.
    used = [(top, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top)
                   if isinstance(n, (ast.Name, ast.Attribute))})
            for tree in MODULES.values() for top in tree.body]
    orphans = [f"{name}.py:{node.lineno} {node.name}"
               for name, tree in MODULES.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name not in graphent.__all__
               and not any(node.name in names for top, names in used if top is not node)]
    assert not orphans, f"module-level functions nothing uses: {orphans}"


def test_package_all_lists_its_imports_sorted():
    tree = MODULES["__init__"]
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["__all__"]]
    assert exported == sorted(exported)
    assert set(exported) == imported


def test_graphent_imports_are_module_level():
    local = {name: _graphent_imports(ast.walk(tree)) - _graphent_imports(tree.body)
             for name, tree in MODULES.items()}
    assert not any(local.values()), f"function-local graphent imports: {local}"


def test_graphent_imports_are_public_names():
    private = [f"{name}.py:{node.lineno} {node.module}.{a.name}"
               for name, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("graphent.")
               for a in node.names if a.name.startswith("_")]
    assert not private, f"underscore names imported from another module: {private}"


def test_graphent_import_graph_has_no_cycle():
    edges = {name: _graphent_imports(ast.walk(tree)) for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name not in done:
            for dep in sorted(edges.get(name, ())):
                visit(dep, path + [name])
            done.add(name)

    for name in sorted(edges):
        visit(name, [])


def test_sources_parse_at_the_declared_python_floor():
    # A regex reads requires-python, since tomllib is not in Python 3.10.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    version = tuple(map(int, floor.groups()))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_every_exported_name_has_its_own_docstring():
    # Read from the source, since a dataclass without a docstring gets a
    # generated "Name(field: ...)" __doc__.
    home = {a.name: node.module.split(".")[1] for node in MODULES["__init__"].body
            if isinstance(node, ast.ImportFrom) for a in node.names}

    def docstring(name):
        for node in MODULES[home[name]].body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name:
                return ast.get_docstring(node)

    missing = [name for name in graphent.__all__ if not docstring(name)]
    assert not missing, f"exported names without a docstring: {missing}"


# The parameter names of every exported function and the fields of every
# exported dataclass, so that adding or dropping an API knob shows up as
# a change to this dict. The two exception classes take no parameters.
PUBLIC_SIGNATURES = {
    "CatalogEntry": ["id", "graph", "expected_gcm", "expected_gem"],
    "ClassificationReport": ["measure_kind", "classes", "per_n", "cumulative"],
    "GemConfig": ["restarts", "seed"],
    "GemDiagnostics": ["restarts_used", "best_restart_index", "iterations", "converged",
                       "best_fidelity", "degenerate_redraws", "restarts_at_best",
                       "restart_sweeps", "ceiling"],
    "Graph": ["adj"],
    "LcOrbit": ["representatives", "searches"],
    "MeasureClass": ["class_index", "value", "members"],
    "MeasureResult": ["kind", "value", "method", "diagnostics"],
    "RpEntry": ["n", "eta_measure", "eta_kappa", "rp"],
    "all_entries": [],
    "apply_local_unitary": ["state", "u", "qubit"],
    "are_lc_equivalent": ["g1", "g2"],
    "brute_force_gem": ["state"],
    "build_graph_state": ["g"],
    "build_report": ["kind", "values"],
    "build_rp_table": ["cfg"],
    "canonical_form": ["g"],
    "catalog_get": ["graph_id"],
    "catalog_size": [],
    "export_corpus": ["dest_dir"],
    "gcm": ["state"],
    "gem": ["state", "cfg"],
    "gem_bipartite_oracle": ["state", "cut"],
    "group_by_value": ["values", "tol"],
    "inner_product": ["a", "b"],
    "is_connected": ["g"],
    "lc_orbit": ["g"],
    "lc_unitary_apply": ["state", "g", "a"],
    "local_complement": ["g", "a"],
    "make_graph": ["n", "edges"],
    "measure_values": ["kind", "cfg"],
    "parse_edge_list": ["text"],
    "relabel": ["g", "perm"],
    "resolution_power": ["eta_measure", "eta_kappa"],
    "rp_fraction": ["eta_measure", "eta_kappa"],
    "serialize_edge_list": ["g"],
    "stabilizer_expectation": ["state", "g", "a"],
    "subset_purity": ["state", "keep"],
}


def test_public_signature_inventory():
    got = {}
    for name in graphent.__all__:
        obj = getattr(graphent, name)
        if dataclasses.is_dataclass(obj):
            got[name] = [f.name for f in dataclasses.fields(obj)]
        elif not (isinstance(obj, type) and issubclass(obj, Exception)):
            got[name] = list(inspect.signature(obj).parameters)
    assert got == PUBLIC_SIGNATURES
