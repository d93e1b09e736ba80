"""The names perfbench/ traces or imports must exist in the package.

perfbench/layers.py wraps package functions by name, and the workloads
import them; a rename or removal there would otherwise surface only when
the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from kneserlab import cli, hamilton, morphisms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS_PATH = PERFBENCH / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(layers):
    for module, attr, _measure in layers.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_patched_methods_and_kernel_exist():
    assert callable(morphisms.VertexMap.verify)
    assert callable(hamilton._kernel.solve)
    assert callable(hamilton.kernel_name)
    assert all(callable(suite) for suite in cli._SUITES.values())


def test_kernel_signature_and_result():
    # layers.py wraps solve and adds result[2] to hamilton.kernel.nodes
    solve = hamilton._kernel.solve
    assert list(inspect.signature(solve).parameters) == [
        "neighbors", "start", "rank", "max_nodes", "max_seconds", "masks"]
    triangle = [(1, 2), (0, 2), (0, 1)]
    for max_nodes in (1, 10):  # a budget result and a cycle
        result = solve(triangle, 0, [0, 1, 2], max_nodes, 60.0)
        assert type(result) is tuple and len(result) == 3
        assert type(result[2]) is int and result[2] > 0
        assert solve(triangle, 0, [0, 1, 2], max_nodes, 60.0,
                     [0b110, 0b101, 0b011]) == result


def test_suite_names_match(layers):
    assert list(cli._SUITES) == layers.SUITES


def _optional_imports(tree):
    """The import statements inside a try that catches ImportError: a
    module that may be missing, such as a compiled kernel."""
    optional = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                isinstance(h.type, ast.Name) and h.type.id == "ImportError"
                for h in node.handlers):
            optional.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return optional


def _package_imports(path):
    """(module, name) for every name a file imports from kneserlab, with
    name None for a plain import of the module."""
    tree = ast.parse(path.read_text())
    optional = _optional_imports(tree)
    for node in ast.walk(tree):
        if id(node) in optional:
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "kneserlab"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kneserlab":
                    yield alias.name, None


def _resolves(module_name, name):
    """Whether module_name imports and has name, as an attribute or as a
    submodule."""
    try:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_imported_names_resolve():
    imports = [(path.name, module, name)
               for path in sorted(PERFBENCH.glob("*.py"))
               for module, name in _package_imports(path)]
    assert {("workloads.py", "kneserlab.decompose", name) for name in (
        "as_color_block", "classify_components", "delete_colors",
        "expected_census")} <= set(imports)
    assert [entry for entry in imports if not _resolves(*entry[1:])] == []


def test_import_check_sees_missing_names(tmp_path):
    (tmp_path / "bench.py").write_text(
        "from kneserlab.decompose import delete_colors, no_such_name\n"
        "import kneserlab.no_such_module\n"
        "try:\n"
        "    from kneserlab import _no_such_kernel\n"
        "except ImportError:\n"
        "    pass\n")
    imports = list(_package_imports(tmp_path / "bench.py"))
    assert imports == [("kneserlab.decompose", "delete_colors"),
                       ("kneserlab.decompose", "no_such_name"),
                       ("kneserlab.no_such_module", None)]
    assert [_resolves(*entry) for entry in imports] == [True, False, False]
    assert _resolves("kneserlab", "hamilton")
