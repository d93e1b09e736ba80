"""Source hygiene: every name a package module imports is read somewhere
in that module.

An import left behind when its last reader goes is dead code that no
test would otherwise notice.  Names a module re-exports through
__all__, and the search statuses hamilton re-exports for its callers,
are read by other modules and count as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kneserlab"

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
