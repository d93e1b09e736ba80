"""The mutant list of tests/mutants.py still applies to the checkout."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import mutants
from mutants import MUTANTS, ROOT, main


@pytest.mark.parametrize("number", range(1, len(MUTANTS) + 1))
def test_old_text_occurs_once(number):
    mutant = MUTANTS[number - 1]
    text = Path(ROOT, mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def defined_tests(path):
    """Each test function of a test file: (class name or "", name)."""
    tree = ast.parse(Path(ROOT, path).read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.append(("", node.name))
        elif isinstance(node, ast.ClassDef):
            names += [(node.name, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(cls, name) for cls, name in names
            if name.startswith("test") and (not cls or cls.startswith("Test"))]


def resolve(args):
    """Check that a mutant's pytest arguments name tests that exist: each
    path, each ::Class and ::Class::test in it, and each -k word (a plain
    word, which must be a case-insensitive substring of a class or test
    name in those files)."""
    args = list(args)
    files, words = [], []
    while args:
        arg = args.pop(0)
        if arg == "-k":
            words.append(args.pop(0))
            continue
        assert not arg.startswith("-"), f"unhandled option {arg}"
        path, *parts = arg.split("::")
        assert Path(ROOT, path).is_file(), f"no file {path}"
        names = defined_tests(path)
        ids = {f"{cls}::{name}" if cls else name for cls, name in names}
        ids |= {cls for cls, _ in names}
        node = "::".join(parts).split("[")[0]  # drop a parameter id
        assert not parts or node in ids, f"{arg} is not defined"
        files.append(names)
    for word in words:
        assert word.isidentifier(), f"-k {word!r}: only plain words are checked"
        assert any(word.lower() in f"{cls} {name}".lower()
                   for names in files for cls, name in names), (
            f"-k {word} names no test")


@pytest.mark.parametrize("number", range(1, len(MUTANTS) + 1))
def test_subset_resolves(number):
    resolve(MUTANTS[number - 1].tests)


@pytest.mark.parametrize("args", [
    ("tests/test_nowhere.py",),
    ("tests/test_catalan.py::TestNowhere",),
    ("tests/test_catalan.py::TestNecklaces::test_nowhere",),
    ("tests/test_mutants.py::test_nowhere",),
    ("tests/test_catalan.py", "-k", "nowhere_at_all"),
])
def test_stale_subset_fails(args):
    with pytest.raises(AssertionError):
        resolve(args)


@pytest.mark.parametrize("argv", [
    ["0"], ["-1"], [str(len(MUTANTS) + 1)], ["x"], ["1", "1.5"], ["\u00b2"]])
def test_bad_number_exits_2(argv, monkeypatch, capsys):
    # a number outside 1..N names no mutant (0 and -1 would index the list
    # from its end); the run stops before any mutant is applied
    monkeypatch.setattr(mutants, "run", lambda mutant: pytest.fail("a mutant ran"))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"mutants.py: no mutant {argv[-1]!r}; the mutants are 1..{len(MUTANTS)}\n")


def test_bad_number_prints_no_traceback():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "mutants.py"), str(len(MUTANTS) + 1)],
        capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr
