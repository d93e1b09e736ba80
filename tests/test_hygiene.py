"""Source and test-setup hygiene.

Every name a package module imports is read somewhere in that module:
an import left behind when its last reader goes is dead code that no
test would otherwise notice.  Names a module re-exports through
__all__, and the search statuses hamilton re-exports for its callers,
are read by other modules and count as used.

The package's modules import each other in one order: the module graph
has no cycle, and no module imports inside a function.

Every public module-level function and class is read somewhere in src/
or perfbench/ through its own module (imported by name from it, read as
an attribute of a name bound to it, or loaded bare inside it), or is
listed with the reason it stays.  So is every public method, property
and classmethod of a public class, read as an attribute of anything,
since a receiver's type is not known statically.  The package's
__init__.py only re-exports, so its imports and __all__ are no reader;
perfbench/layers.py's trace list is, because the benchmark patches those
functions by module and name.

Every defaulted parameter of a public function or public method in src/
is passed, by keyword or by position, by some call in src/ or
perfbench/, matched by name as members are, or is listed with the
reason it stays: a default that no caller changes is a constant.

A failing Hypothesis test under the repository's pytest settings prints
its falsifying example and lets the run go on.

Only decompose, hamilton and serialize write into a graph's memo, each
under the tags pinned for it, and each writer keys its entries by a tuple
headed by a string tag of its own, so two writers cannot collide on one
key.
"""

import ast
import importlib.util
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Iterator, Optional

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


# ------------------------------------------------------- public helpers

# public names nothing in src/ or perfbench/ reads, and why each stays
UNREAD_PUBLIC = {
    "serialize.graph_to_dict":
        "the plain reference that graph_to_json's output is tested against",
    "morphisms.perm_automorphism":
        "the permutation automorphism the tests use to check symmetry claims",
}

# public class members nothing in src/ or perfbench/ reads, and why each stays
UNREAD_MEMBERS: dict[str, str] = {}


def _public_definitions(src: Path) -> set[str]:
    """"module.name" of every public module-level function and class."""
    return {
        f"{path.stem}.{node.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _public_members(src: Path) -> set[str]:
    """"module.Class.name" of every public method, property and classmethod
    of a public module-level class; dunders are private here too."""
    return {
        f"{path.stem}.{node.name}.{item.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def _reader_paths(*dirs: Path) -> list[Path]:
    """The modules of the given directories that count as readers: a
    package's __init__.py only re-exports, so it reads nothing."""
    return [path for d in dirs for path in sorted(d.glob("*.py"))
            if path.name != "__init__.py"]


def _attributes_read_by(paths) -> set[str]:
    """Every attribute name the modules load, `x.name`."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _package_module(node: ast.ImportFrom) -> Optional[str]:
    """The package module a from-import names, "" for the package itself,
    None for a module outside the package."""
    if node.level:
        return node.module or ""
    head, _, module = (node.module or "").partition(".")
    return module if head == "kneserlab" else None


def _definitions_read_by(paths) -> set[str]:
    """"module.name" of every module-level name the modules read through
    its own module: imported by name from it, read as an attribute of a
    name bound to it, or loaded bare inside it."""
    stems = {path.stem for path in paths}
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        read |= {f"{path.stem}.{name}" for name in _read(tree)}
        bound = {}  # local name -> the package module it was imported as
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = _package_module(node)
            for alias in node.names if module is not None else ():
                if module:
                    read.add(f"{module}.{alias.name}")
                elif alias.name in stems:
                    bound[alias.asname or alias.name] = alias.name
        read |= {f"{bound[node.value.id]}.{node.attr}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in bound}
    return read


def _unread_public(src: Path, readers, traced=()) -> list[str]:
    """The public module-level functions and classes that no reader reads
    through their own module, and that the benchmark does not trace by
    "module.name".  A method call of the same name, `x.name()`, is no
    read: the module function is matched by module as well as by name."""
    read = _definitions_read_by(readers) | set(traced)
    return sorted(name for name in _public_definitions(src) if name not in read)


def _unread_members(src: Path, readers) -> list[str]:
    """The public class members that no reader loads as an attribute.
    Members are matched by name only: a receiver's type is not known
    statically, so `x.size` counts as a read of every member named size."""
    read = _attributes_read_by(readers)
    return sorted(name for name in _public_members(src)
                  if name.rpartition(".")[2] not in read)


@pytest.fixture(scope="module")
def bench_readers():
    """The package and perfbench modules that read the package, and the
    names perfbench/layers.py traces: the benchmark patches those by name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    traced = [f"{module.__name__.rpartition('.')[2]}.{attr}"
              for module, attr, _measure in layers.FUNCTIONS]
    return _reader_paths(SRC, ROOT / "perfbench"), traced


def test_every_public_helper_has_a_reader(bench_readers):
    readers, traced = bench_readers
    assert _unread_public(SRC, readers, traced) == sorted(UNREAD_PUBLIC)


def test_every_public_member_has_a_reader(bench_readers):
    readers, _traced = bench_readers
    assert _unread_members(SRC, readers) == sorted(UNREAD_MEMBERS)


def test_detects_an_unread_public_helper(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import exported, Unread\n"
        "__all__ = ['exported', 'Unread']\n"
    )
    (tmp_path / "a.py").write_text(
        "def exported(): pass\n"
        "def used(): pass\n"
        "def traced(): pass\n"
        "def _private(): pass\n"
        "def unread(): pass\n"
        "def complement(): pass\n"
        "def imported(): pass\n"
        "def local(): pass\n"
        "local()\n"
        "class Unread: pass\n"
        "class Used:\n"
        "    def __len__(self): return 0\n"
        "    def _own(self): pass\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    @classmethod\n"
        "    def make(cls): return cls()\n"
        "    def unread(self): pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import imported\n"
        "a.used()\n"
        "a.Used.make().called()\n"
        "a.Used.make().complement()\n"
        "size = 0\n"
    )
    readers = _reader_paths(tmp_path)
    assert [path.name for path in readers] == ["a.py", "b.py"]
    # complement is read only as a method of the same name
    assert _unread_public(tmp_path, readers, ["a.traced"]) == [
        "a.Unread", "a.complement", "a.exported", "a.unread"]
    assert _unread_members(tmp_path, readers) == [
        "a.Used.size", "a.Used.unread"]


# ------------------------------------------------------ defaulted parameters

# defaulted parameters that no call in src/ or perfbench/ passes, and why
# each stays
UNSET_DEFAULTS = {
    "graphs.graph_from_edges.family":
        "tests build family-tagged graphs by hand",
    "graphs.graph_from_edges.labeled":
        "tests build labeled graphs by hand",
    "morphisms.find_isomorphism.pin":
        "the Coxeter transitivity spot check pins the image of vertex 0",
    "morphisms.find_isomorphism.max_vertices":
        "the Coxeter transitivity spot check searches past the default cap",
}

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_functions(src: Path) -> Iterator[tuple[str, ast.FunctionDef, int]]:
    """(qualified name, definition, shift) of every public module-level
    function and every public method of a public class.  A call's first
    positional argument fills parameter `shift`: 1 for a method's self or
    cls, 0 for a function or a staticmethod."""
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, FUNCTION_DEFS):
                yield f"{path.stem}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, FUNCTION_DEFS)
                            and not item.name.startswith("_")):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        yield (f"{path.stem}.{node.name}.{item.name}", item,
                               int(not static))


def _defaulted_parameters(src: Path) -> list[tuple[str, str, str, Optional[int]]]:
    """(qualified name, function name, parameter, position) of every
    defaulted parameter of the public functions and methods; position is
    the parameter's place among a call's positional arguments, None for a
    keyword-only one."""
    out = []
    for qualname, func, shift in _public_functions(src):
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(f"{qualname}.{arg.arg}", func.name, arg.arg, pos - shift)
                for pos, arg in enumerate(positional) if pos >= first]
        out += [(f"{qualname}.{arg.arg}", func.name, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return out


def _arguments_passed(paths) -> tuple[dict[str, set], dict[str, float]]:
    """What the calls in the modules pass, by called name (`f(...)` and
    `x.f(...)` alike): the keywords, with None for a `**mapping`, and the
    most positional arguments of one call, infinite past a `*sequence`."""
    keywords: defaultdict[str, set] = defaultdict(set)
    widest: defaultdict[str, float] = defaultdict(int)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords[name] |= {kw.arg for kw in node.keywords}
            widest[name] = max(widest[name], math.inf if starred else len(node.args))
    return keywords, widest


def _unset_defaults(src: Path, readers) -> list[str]:
    """The defaulted parameters that no call in the readers passes, by
    keyword or by position.  Functions are matched by name only, as
    members are: `x.f(...)` counts as a call of every function and method
    named f."""
    keywords, widest = _arguments_passed(readers)
    return sorted(
        qualname for qualname, func, param, pos in _defaulted_parameters(src)
        if not (param in keywords[func] or None in keywords[func]
                or pos is not None and pos < widest[func]))


def test_every_defaulted_parameter_has_a_setter(bench_readers):
    readers, _traced = bench_readers
    assert _unset_defaults(SRC, readers) == sorted(UNSET_DEFAULTS)


def test_detects_an_unset_default(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, z=2, *, w=3, v=4): pass\n"
        "def spread(x=1): pass\n"
        "def mapped(x=1): pass\n"
        "def _private(x=1): pass\n"
        "class C:\n"
        "    def m(self, a=1, b=2): pass\n"
        "    @staticmethod\n"
        "    def s(a=1, b=2): pass\n"
        "    @classmethod\n"
        "    def c(cls, a=1): pass\n"
        "    def _own(self, a=1): pass\n"
        "class _Hidden:\n"
        "    def m(self, a=1): pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "a.f(0, 5, w=1)\n"
        "a.C().m(9)\n"
        "a.C.s(1)\n"
        "a.C.c(a=2)\n"
        "a.spread(*[1])\n"
        "a.mapped(**{})\n"
    )
    readers = _reader_paths(tmp_path)
    # m's b is unset: the receiver fills self, so 9 is a
    assert _unset_defaults(tmp_path, readers) == [
        "a.C.m.b", "a.C.s.b", "a.f.v", "a.f.z"]


# -------------------------------------------------------------- graph memo

# the modules that may write a graph's memo, each with its writers' tags
MEMO_MODULES = {"decompose.py": ["deleted", "piece"], "hamilton.py": ["frame"],
                "serialize.py": ["json"]}


def _memo_writes(path: Path) -> list[tuple[str, Optional[str]]]:
    """(writer, tag) of every store into some graph's memo, `x.memo[key] =
    ...`, in the module.  The writer is "module.function"; the tag is the
    string literal that heads the key tuple, written at the store or bound
    to the key's name in the same function, and None for any other key."""
    tree = ast.parse(path.read_text())
    writes = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        # the scope's own nodes: nested functions are scopes of their own
        nodes, todo = [], list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            nodes.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        nodes.sort(key=lambda node: (getattr(node, "lineno", 0),
                                     getattr(node, "col_offset", 0)))
        bound = {target.id: node.value for node in nodes
                 if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if not (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "memo"):
                continue
            key = node.slice
            if isinstance(key, ast.Name):
                key = bound.get(key.id)
            head = key.elts[0] if isinstance(key, ast.Tuple) and key.elts else None
            tag = (head.value if isinstance(head, ast.Constant)
                   and isinstance(head.value, str) else None)
            writes.append((f"{path.stem}.{getattr(scope, 'name', '')}", tag))
    return writes


def _memo_faults(paths) -> list[str]:
    """Every memo store outside MEMO_MODULES, every key without a string
    tag, and every tag that two writers share, in one module or two."""
    faults, writer_of = [], {}
    for path in paths:
        for writer, tag in _memo_writes(path):
            if path.name not in MEMO_MODULES:
                faults.append(f"{writer} writes a graph memo")
            if tag is None:
                faults.append(f"{writer} writes a key with no string tag")
            elif writer_of.setdefault(tag, writer) != writer:
                faults.append(f"{writer} reuses the tag {tag!r} of {writer_of[tag]}")
    return faults


def test_graph_memo_keys_cannot_collide():
    # a graph's memo is one dict shared by every module: each key tuple
    # starts with a tag that only one function writes, and only decompose,
    # hamilton and serialize write at all, each under its own tags
    assert _memo_faults(sorted(SRC.glob("*.py"))) == []
    for module, tags in MEMO_MODULES.items():
        assert sorted(tag for _, tag in _memo_writes(SRC / module)) == tags


def test_detects_a_colliding_memo_write(tmp_path):
    (tmp_path / "decompose.py").write_text(
        "def one(g):\n"
        "    key = ('piece', 1)\n"
        "    g.memo[key] = 1\n"
        "def two(g):\n"
        "    g.memo[('piece', 2)] = 2\n"
        "    g.memo[3] = 3\n"
    )
    (tmp_path / "other.py").write_text(
        "def three(g):\n"
        "    g.memo[('other',)] = 4\n"
    )
    (tmp_path / "serialize.py").write_text(
        "def four(g):\n"
        "    g.memo[('json',)] = 5\n"
        "def five(g):\n"
        "    key = ('piece', 6)\n"
        "    g.memo[key] = 6\n"
        "    g.memo['json'] = 7\n"
    )
    assert _memo_faults(sorted(tmp_path.glob("*.py"))) == [
        "decompose.two reuses the tag 'piece' of decompose.one",
        "decompose.two writes a key with no string tag",
        "other.three writes a graph memo",
        "serialize.five reuses the tag 'piece' of decompose.one",
        "serialize.five writes a key with no string tag",
    ]
