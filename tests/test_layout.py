"""Source-layout rules for src/graphent, checked with the stdlib ast module.

Every imported name is used (the package __init__ re-exports, so it is
exempt, and its __all__ lists exactly what it imports, sorted),
graphent modules import each other at module level only and only by
public names, and those imports form no cycle.
"""

import ast
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
