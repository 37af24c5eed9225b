"""Smoke tests: the public API surface and the runnable example scripts.

The examples double as end-to-end integration tests; running their
``main()`` functions here guarantees the documented entry points never rot.
Output is captured by pytest, so the suite stays quiet.
"""

import doctest
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent


def _module_name(path: pathlib.Path) -> str:
    return ".".join(("repro", *path.relative_to(PACKAGE_DIR).with_suffix("").parts)).removesuffix(".__init__")


# Every package module whose docstrings carry ``>>>`` examples.
DOCTEST_MODULES = sorted(
    _module_name(path) for path in PACKAGE_DIR.rglob("*.py") if ">>>" in path.read_text(encoding="utf-8")
)

# Every package module that declares ``__all__`` (entry-point ``__main__`` modules are not imported).
EXPORTING_MODULES = sorted(
    name
    for name in map(_module_name, PACKAGE_DIR.rglob("*.py"))
    if not name.endswith(".__main__") and hasattr(importlib.import_module(name), "__all__")
)

# Imports the package and runs the front door with networkx unimportable:
# the runtime needs only the dependencies pyproject.toml declares.
NO_NETWORKX_SMOKE = """
import sys
sys.modules["networkx"] = None
import repro
g = repro.generators.erdos_renyi_graph(60, 0.3, seed=1, ensure_connected=True)
result = repro.sparsify(g, method="koutis", epsilon=0.5, seed=2)
assert 0 < result.sparsifier.num_edges <= g.num_edges
"""


def _load_example(name: str):
    """Import an example script as a module (examples/ is not a package)."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module_name", EXPORTING_MODULES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists {name} but it is missing"

    def test_runs_without_networkx(self):
        pythonpath = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", NO_NETWORKX_SMOKE],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_key_entry_points_are_callable(self):
        for name in (
            "parallel_sample",
            "parallel_sparsify",
            "certify_approximation",
            "baswana_sen_spanner",
            "t_bundle_spanner",
            "solve_laplacian",
            "solve_sdd",
            "spielman_srivastava_sparsify",
        ):
            assert callable(getattr(repro, name))

    def test_subpackages_importable(self):
        for module in (
            "repro.graphs",
            "repro.spanners",
            "repro.resistance",
            "repro.parallel",
            "repro.core",
            "repro.solvers",
            "repro.baselines",
            "repro.analysis",
            "repro.linalg",
            "repro.utils",
        ):
            importlib.import_module(module)

    def test_docstrings_present_on_public_functions(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type(repro)):
                assert obj.__doc__, f"{name} is missing a docstring"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "method_comparison.py",
        "distributed_sparsification.py",
        "sdd_solver_demo.py",
        "image_affinity_sparsification.py",
        "streaming_sparsification.py",
    ],
)
def test_example_scripts_run(script, capsys):
    module = _load_example(script)
    module.main()
    captured = capsys.readouterr()
    assert captured.out.strip(), f"{script} produced no output"


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_docstring_examples_run(module_name):
    results = doctest.testmod(importlib.import_module(module_name))
    assert results.attempted > 0
    assert results.failed == 0
