"""Source and test-setup hygiene.

Every name a package module imports is read somewhere in that module:
an import left behind when its last reader goes is dead code that no
test would otherwise notice.  Names a module re-exports through
__all__, and the search statuses hamilton re-exports for its callers,
are read by other modules and count as used.

The package's modules import each other in one order: the module graph
has no cycle, and no module imports inside a function.

A failing Hypothesis test under the repository's pytest settings prints
its falsifying example and lets the run go on.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kneserlab"

# search statuses imported only so that callers can read them from hamilton
RE_EXPORTS = {"hamilton.py": {"EXHAUSTED_BUDGET"}}


def _imported(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} of every import in the module, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, including those inside quoted
    annotations, and the names listed in its __all__."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for part in ast.walk(ann) if ann is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= _read(ast.parse(part.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return read


def _unread_imports(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree) | RE_EXPORTS.get(path.name, set())
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path) == []


def test_detects_an_unread_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional, Sequence\n"
        "from itertools import chain as ch\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return os.sep and x\n"
    )
    assert _unread_imports(mod) == [("Sequence", 3), ("ch", 4)]


# ------------------------------------------------------------ import order

def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules this module imports, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.partition(".")[0] != "kneserlab":
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.partition(".")[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("kneserlab."))
    return out


def _function_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports made inside a function body."""
    return sorted(
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def _find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the directed graph as a closed list of nodes, or []."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str]:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return []

    for start in sorted(graph):
        cycle = visit(start)
        if cycle:
            return cycle
    return []


def _module_graph(src: Path) -> dict[str, set[str]]:
    return {path.stem: _package_imports(ast.parse(path.read_text()))
            for path in sorted(src.glob("*.py"))}


def test_package_import_graph_is_acyclic():
    graph = _module_graph(SRC)
    assert graph["cli"] >= {"decompose", "morphisms", "hamilton"}
    assert _find_cycle(graph) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert _function_imports(ast.parse(path.read_text())) == []


def test_detects_a_cycle_and_a_function_import(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text(
        "import os\n"
        "from kneserlab import c\n"
        "def f():\n"
        "    from . import a\n"
        "    return a, os\n"
    )
    (tmp_path / "c.py").write_text("import kneserlab.a\n")
    graph = _module_graph(tmp_path)
    assert graph == {"a": {"b"}, "b": {"a", "c"}, "c": {"a"}}
    assert _find_cycle(graph) == ["a", "b", "a"]
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert _function_imports(ast.parse((tmp_path / "b.py").read_text())) == [4]


# ----------------------------------------------------------- pytest setup

def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """The settings in pyproject.toml turn warnings into errors; a
    warning raised by the hypothesis plugin while it reports a failure
    must not end the pytest run before the example and later tests run."""
    (tmp_path / "test_planted.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "\n"
        "def test_after():\n"
        "    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out
