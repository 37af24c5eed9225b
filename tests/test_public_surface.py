"""Every public function and method has a caller outside the tests.

A function or class a module names in its ``__all__`` is public surface:
README documents it and a migration row must follow it when it goes. One
that only its own tests call is surface kept for nobody, so this test
parses ``src/repro`` (without :mod:`repro.testing` and the ``_reference``
modules, which exist for the tests) and fails on

* every exported module-level function that no file under ``src/``,
  ``examples/``, ``benchmarks/`` or ``e2ebench/`` other than a
  ``test_*.py`` or ``conftest.py`` references by name (import lines and
  ``__all__`` strings are not references), and
* every public method or property (a ``def`` without a leading
  underscore) of an exported class whose name no such file spells as an
  attribute (``x.name``).

The method check matches by name alone: it does not know the type of
``x``. A method whose name another class also uses (``degrees``,
``scaled``, ``to_dict``, ``checkpoint``) counts as called when any of
them is, so an uncalled method can hide behind a namesake. The guard is a
ratchet against new uncalled names; a reach pass over the non-test entry
points is what finds the rest.
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

# Methods kept with no caller outside the tests, by qualified name:
# ``edge_weight_map`` is a test oracle like ``to_networkx``.
TEST_ONLY_METHODS = frozenset({"Graph.edge_weight_map"})

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _definition(module, name):
    """``(defining module, top-level def or class node)`` of ``name`` as seen from ``module``, or None."""
    for node in _TREES[module].body:
        if isinstance(node, (*_DEFS, ast.ClassDef)) and node.name == name:
            return module, node
        if isinstance(node, ast.ImportFrom) and node.module != module and node.module in _TREES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _definition(node.module, alias.name)
    return None


def _exported_definitions():
    """``{(defining module, name): node}`` for every def and class some ``__all__`` exports."""
    found = {}
    for module, tree in _TREES.items():
        if _is_test_support(module):
            continue
        for name in _exported_names(tree):
            definition = _definition(module, name)
            if definition is not None and not _is_test_support(definition[0]):
                home, node = definition
                found[(home, name)] = node
    return found


def public_functions():
    """``{(defining module, name)}`` for every function some ``__all__`` exports."""
    return {key for key, node in _exported_definitions().items() if isinstance(node, _DEFS)}


def public_methods():
    """``{(defining module, "Class.method")}`` for the public defs of every exported class."""
    return {
        (module, f"{node.name}.{item.name}")
        for (module, _), node in _exported_definitions().items()
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, _DEFS) and not item.name.startswith("_")
    }


def _is_test_file(path):
    return path.name.startswith("test_") or path.name == "conftest.py"


def _non_test_nodes():
    for directory in CALLER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if not _is_test_file(path):
                yield from ast.walk(_parse(path))


def referenced_names():
    """Every name an ``ast.Name`` or ``ast.Attribute`` spells in non-test code."""
    names = set()
    for node in _non_test_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def referenced_attributes():
    """Every name an ``ast.Attribute`` spells in non-test code."""
    return {node.attr for node in _non_test_nodes() if isinstance(node, ast.Attribute)}


def test_the_guard_sees_the_package():
    functions = {name for _, name in public_functions()}
    assert {"parallel_sparsify", "baswana_sen_spanner", "check_integer", "erdos_renyi_graph"} <= functions
    assert TEST_ONLY <= functions
    methods = {name for _, name in public_methods()}
    assert {"Graph.coalesce", "PRAMTracker.charge", "Engine.run_many", "UnifiedResult.reduction_factor"} <= methods
    assert TEST_ONLY_METHODS <= methods


def test_every_public_function_has_a_caller_outside_tests():
    referenced = referenced_names()
    uncalled = sorted(
        f"{module}.{name}" for module, name in public_functions() if name not in referenced and name not in TEST_ONLY
    )
    assert not uncalled, f"{len(uncalled)} public functions only tests call: " + ", ".join(uncalled)


def test_every_public_method_has_a_caller_outside_tests():
    referenced = referenced_attributes()
    uncalled = sorted(
        f"{module}.{name}"
        for module, name in public_methods()
        if name.split(".")[1] not in referenced and name not in TEST_ONLY_METHODS
    )
    assert not uncalled, f"{len(uncalled)} public methods only tests call: " + ", ".join(uncalled)
