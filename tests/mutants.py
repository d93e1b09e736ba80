"""Mutants of the exact code, and a runner that checks the tests kill them.

A mutant is one edit of a file under src/: its old text, which occurs
exactly once in the file, replaced by its new text.  For each mutant the
runner copies src/, tests/, conftest.py and pyproject.toml into a
temporary directory, applies the edit there, runs the mutant's test
subset with `pytest -x`, and prints whether the subset killed it (some
test failed) or the mutant survived, with the time it took.  An
equivalent mutant changes no outcome; it is listed with the reason, and
it is expected to survive.  The checkout itself is never edited.

    python tests/mutants.py          # every mutant
    python tests/mutants.py 1 4      # the first and the fourth

The exit status is 1 when a mutant is not killed (an equivalent one: does
not survive) and 0 otherwise.  tests/test_mutants.py checks only that
every old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "conftest.py", "pyproject.toml")


class Mutant(NamedTuple):
    file: str  # relative to the root of the checkout
    old: str
    new: str
    why: str
    tests: tuple[str, ...]  # pytest arguments: the subset that kills it
    equivalent: bool = False


MORPHISMS = "src/kneserlab/morphisms.py"
KERNEL = "src/kneserlab/_hamcore_py.py"

MUTANTS = [
    Mutant(
        MORPHISMS,
        "gains = ((s2 - tb2).bits, tb2.bits)  # W side, U side",
        "gains = (tb2.bits, (s2 - tb2).bits)  # W side, U side",
        "the block move's two gains swapped: each side gains the other's"
        " half, which is no vertex across parameters and the wrong side"
        " within one deletion",
        ("tests/test_morphisms.py::TestComponentIsos",),
    ),
    Mutant(
        "src/kneserlab/decompose.py",
        'key = ("piece", s.bits, min(tb.bits, (s - tb).bits))',
        'key = ("piece", s.bits, tb.bits)',
        "the piece keyed by the half that names it: the two halves of a"
        " class cut it twice",
        ("tests/test_decompose.py::TestGraphMemo",),
    ),
    Mutant(
        MORPHISMS,
        "if not are_vertex_indices(images, n) or len(set(images)) != n:",
        "if not are_vertex_indices(images, n):",
        "is_isomorphism without its bijection test: a map that wraps a"
        " graph twice around a padded target matches every row",
        ("tests/test_morphisms.py",),
    ),
    Mutant(
        MORPHISMS,
        "    with holding_families():\n        return _formula_map(",
        "    if True:\n        return _formula_map(",
        "the hold dropped from the block move: with n2 = n, odd(n) is"
        " built again for the target piece",
        ("tests/test_morphisms.py::TestComponentIsos",),
    ),
    Mutant(
        KERNEL,
        "            if verified == len(path):\n                verified -= 1",
        "            if verified == len(path):\n                verified -= 2",
        "a pop lowers `verified` by two: only slower, so only the pinned"
        " mask reads tell",
        ("tests/test_hamilton.py::TestConnectivityWork",),
    ),
    Mutant(
        KERNEL,
        "            if not seeds & unreached:\n                return True\n"
        "            if not frontier:\n                return False\n",
        "            if not frontier:\n                return not seeds & unreached\n",
        "the check passes only when its frontier empties: only slower, so"
        " only the pinned mask reads tell",
        ("tests/test_hamilton.py::TestConnectivityWork",),
    ),
    Mutant(
        KERNEL,
        "            verified = pending[mid]\n            lo = mid + 1",
        "            lo = mid + 1",
        "the binary search does not advance `verified`: only slower, so"
        " only the pinned mask reads tell",
        ("tests/test_hamilton.py::TestConnectivityWork",),
    ),
    Mutant(
        KERNEL,
        "        return -1, deepest",
        "        return -1, verified",
        "a passing check does not advance `verified`: only slower, so"
        " only the pinned mask reads tell",
        ("tests/test_hamilton.py::TestConnectivityWork",),
    ),
    Mutant(
        KERNEL,
        "    return min(max(nodes, max_nodes) + 1,\n"
        "               (nodes // _CLOCK_STRIDE + 1) * _CLOCK_STRIDE)",
        "    return (nodes // _CLOCK_STRIDE + 1) * _CLOCK_STRIDE",
        "the node budget read only when the clock is: a budget stops at"
        " the next clock stride, not at the first node past it",
        ("tests/test_hamilton.py", "-k", "budget_at_a_clock_stride"),
    ),
    Mutant(
        "src/kneserlab/hamilton.py",
        "if not are_vertex_indices(idxs, g.n_vertices) or len(set(idxs)) != len(idxs):",
        "if not are_vertex_indices(idxs, g.n_vertices):",
        "verify_cycle without its distinctness test: a closed walk that"
        " repeats vertices passes as a Hamiltonian cycle",
        ("tests/test_hamilton.py::TestVerifyCycle",),
    ),
    Mutant(
        MORPHISMS,
        "    if len(fibers) < dst.n_vertices:\n        sizes.add(0)\n",
        "",
        "verify_cover ignores target vertices with no preimage: the"
        " inclusion of one component of a disconnected target passes",
        ("tests/test_morphisms.py", "-k", "cover"),
    ),
    Mutant(
        KERNEL,
        "if len(path) == nv and on_start[tip]:",
        "if len(path) == nv:",
        "equivalent: the last vertex is taken only with two usable"
        " connections, and with every other vertex visited these are the"
        " tip and the start, so a full path always closes",
        ("tests/test_hamilton.py",),
        equivalent=True,
    ),
]


def run(mutant: Mutant) -> tuple[str, float, str]:
    """Apply the mutant to a temporary copy of the checkout and run its
    subset: "killed", "survived" or "error" (the subset could not run),
    the seconds it took, and the first test that failed ("" for none)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kneserlab-mutant-") as tmp:
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, Path(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tmp)
        target = Path(tmp, mutant.file)
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error", time.perf_counter() - start, ""
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True, check=False)
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    failed = next((line.split()[1] for line in done.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    return outcome, time.perf_counter() - start, failed


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    faults = 0
    for number in chosen:
        mutant = MUTANTS[number - 1]
        outcome, seconds, failed = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        faults += outcome != expected
        mark = " (equivalent)" if mutant.equivalent else ""
        by = f" by {failed}" if failed else ""
        print(f"[{number:2}] {outcome}{mark}{by} in {seconds:.1f} s:"
              f" {mutant.file}: {mutant.why}", flush=True)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
