"""Every public function has a caller outside the tests.

A function a module names in its ``__all__`` is public surface: README
documents it and a migration row must follow it when it goes. One that
only its own tests call is surface kept for nobody, so this test parses
``src/repro`` (without :mod:`repro.testing` and the ``_reference``
modules, which exist for the tests) and fails on every exported
module-level function that no file under ``src/``, ``examples/``,
``benchmarks/`` or ``e2ebench/`` other than a ``test_*.py`` or
``conftest.py`` references by name. Import lines and ``__all__`` strings
are not references.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks", "e2ebench")

# Inputs tests build graphs from and oracles they check results against.
TEST_ONLY = frozenset(
    {
        "path_graph",
        "cycle_graph",
        "star_graph",
        "complete_graph",
        "dumbbell_graph",
        "random_geometric_graph",
        "disjoint_union",
        "to_networkx",
        "verify_spanner",
    }
)


def _module_name(path):
    return ".".join(("repro", *path.relative_to(PACKAGE_DIR).with_suffix("").parts)).removesuffix(".__init__")


def _is_test_support(module):
    return module == "repro.testing" or module.startswith("repro.testing.") or module.endswith("._reference")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


_TREES = {_module_name(path): _parse(path) for path in PACKAGE_DIR.rglob("*.py")}


def _defining_module(module, name):
    """The module whose top level ``def``s ``name`` as seen from ``module``, or None."""
    for node in _TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return module
        if isinstance(node, ast.ImportFrom) and node.module != module and node.module in _TREES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_module(node.module, alias.name)
    return None


def public_functions():
    """``{(defining module, name)}`` for every function some ``__all__`` exports."""
    found = set()
    for module, tree in _TREES.items():
        if _is_test_support(module):
            continue
        for name in _exported_names(tree):
            home = _defining_module(module, name)
            if home is not None and not _is_test_support(home):
                found.add((home, name))
    return found


def _is_test_file(path):
    return path.name.startswith("test_") or path.name == "conftest.py"


def referenced_names():
    """Every name an ``ast.Name`` or ``ast.Attribute`` spells in non-test code."""
    names = set()
    for directory in CALLER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if _is_test_file(path):
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_the_guard_sees_the_package():
    functions = {name for _, name in public_functions()}
    assert {"parallel_sparsify", "baswana_sen_spanner", "check_integer", "erdos_renyi_graph"} <= functions
    assert TEST_ONLY <= functions


def test_every_public_function_has_a_caller_outside_tests():
    referenced = referenced_names()
    uncalled = sorted(
        f"{module}.{name}" for module, name in public_functions() if name not in referenced and name not in TEST_ONLY
    )
    assert not uncalled, f"{len(uncalled)} public functions only tests call: " + ", ".join(uncalled)
