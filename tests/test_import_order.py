"""The import order of ofevi's modules, read from their source with `ast`.

No module imports another inside a function, and the module-level imports
between ofevi's modules, leaving out the package `__init__`, form no cycle.
Importing a module cannot check either: the package `__init__` loads every
module first, so a late or cyclic import still resolves.  This file imports
nothing from ofevi, so a cycle fails here with its path, not at collection.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ofevi"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def package_imports(node, in_function=False):
    """(module, in_function) for each `from .x import` and `from . import x` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.level > 0:
            if child.module is None:
                modules = [alias.name for alias in child.names]
            else:
                modules = [child.module.split(".")[0]]
            for module in modules:
                yield module, in_function
        yield from package_imports(child, in_function or isinstance(child, SCOPES))


def test_every_module_is_read():
    assert {"density", "standardize", "harness", "cli"} <= set(MODULES)


def test_no_module_imports_another_inside_a_function():
    late = [(name, module) for name, tree in MODULES.items()
            for module, in_function in package_imports(tree) if in_function]
    assert late == []


def test_the_module_level_import_graph_has_no_cycle():
    graph = {
        name: {module for module, in_function in package_imports(tree)
               if not in_function and module != "__init__"}
        for name, tree in MODULES.items() if name != "__init__"
    }
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
