"""The names perfbench/ traces must exist in the package.

perfbench/layers.py wraps package functions by name; a rename or removal
there would otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

from kneserlab import cli, hamilton, morphisms

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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


def test_suite_names_match(layers):
    assert list(cli._SUITES) == layers.SUITES
