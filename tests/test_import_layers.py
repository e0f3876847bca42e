"""The package's modules import each other without a cycle, and only at the
top level, so each module's place in the layering is visible in its header;
and every top-level definition has a caller in the program."""

import ast
import graphlib
from collections import Counter
from pathlib import Path

import pytest

import fsvc

PACKAGE = Path(fsvc.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "fsvcbench"


def _sibling_imports() -> dict[str, list[tuple[str, int, bool]]]:
    """Module name -> (sibling imported, line, whether at the top level) for
    every relative import in the module, at any nesting level."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(map(id, tree.body))
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                found += [(name, node.lineno, id(node) in top) for name in names]
        graph[path.stem] = found
    return graph


def test_module_graph_has_no_cycle():
    graph = _sibling_imports()
    imports = {mod: {name for name, _, _ in found} for mod, found in graph.items()}
    try:
        graphlib.TopologicalSorter(imports).prepare()
    except graphlib.CycleError as err:
        # the sorter lists each module before the one that imports it
        pytest.fail("import cycle: " + " -> ".join(reversed(err.args[1])))


def test_no_sibling_import_inside_a_function():
    nested = [
        f"{mod}.py:{line} imports {name}"
        for mod, found in _sibling_imports().items()
        for name, line, at_top in found
        if not at_top
    ]
    assert nested == []


def _names_used(node: ast.AST) -> Counter:
    """How often each name appears under ``node`` as a variable or an
    attribute; an import or a definition does not use the name it binds."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_definition_has_a_caller_in_the_program():
    """A top-level function or class of the package that nothing in the
    package or the benchmark names, outside its own body, serves only the
    tests and belongs with them."""
    used: Counter = Counter()
    defs = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used += _names_used(tree)
        if path.parent == PACKAGE:
            defs += [
                (f"{path.stem}.{node.name}", node.name, _names_used(node)[node.name])
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            ]
    unused = [qual for qual, name, own in defs if used[name] == own]
    assert not unused, "no caller in the program: " + ", ".join(unused)
