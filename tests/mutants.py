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
not survive), 2 when an argument is not a mutant number in 1..N (N the
length of the list; nothing is run then), and 0 otherwise.
tests/test_mutants.py checks that every old text still occurs exactly
once, and that every test subset still names files, classes, tests and
-k words that exist.
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
CATALAN = "src/kneserlab/catalan.py"
CLI = "src/kneserlab/cli.py"
SERIALIZE = "src/kneserlab/serialize.py"
SUPER = "src/kneserlab/superstructure.py"
GRAPHS = "src/kneserlab/graphs.py"
HAMILTON = "src/kneserlab/hamilton.py"
DECOMPOSE = "src/kneserlab/decompose.py"

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
        DECOMPOSE,
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
        HAMILTON,
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
        CATALAN,
        "windows = [twice[i:i + m] for i in range(m)]",
        "windows = [twice[i:i + m] for i in range(m - 1)]",
        "necklaces cuts m - 1 windows: the least window of the first"
        " word met of a class may be the one left out; in canonical"
        " order on odd(2..8) it never is, so only reordered or partial"
        " lists tell",
        ("tests/test_catalan.py::TestNecklacesOncePerClass",),
    ),
    Mutant(
        CATALAN,
        "form_of.update(dict.fromkeys(windows, min(windows)))",
        "form_of.update(dict.fromkeys(windows, max(windows)))",
        "necklaces takes the greatest window: still one form per class,"
        " but not the least rotation",
        ("tests/test_catalan.py::TestNecklaces",),
    ),
    Mutant(
        CLI,
        "            if form in seen:\n                ok_neck = False\n"
        "                break\n",
        "",
        "the orbits suite does not check that forms differ: two orbits"
        " with one form pass the necklace bijection",
        ("tests/test_cli.py::TestOrbitsSuite",),
    ),
    Mutant(
        SERIALIZE,
        "_json_pieces(g, _MATCH_ROWS)) != len(text):",
        "_json_pieces(g, _MATCH_ROWS)) < 0:",
        "a text that holds the export and more is accepted and kept: the"
        " re-export of a text ending in two newlines is that text, not"
        " the canonical export",
        ("tests/test_serialize.py::TestImportKeepsItsText",),
    ),
    Mutant(
        SERIALIZE,
        "        return None\n    if _matched(",
        "        return None\n    g.memo[(\"json\",)] = text\n    if _matched(",
        "the text kept before it is matched: a declined text becomes the"
        " export of the family graph a caller holds",
        ("tests/test_serialize.py::TestImportKeepsItsText",),
    ),
    Mutant(
        CATALAN,
        "            j = index[w]\n            seen[j] = 1\n",
        "            j = index[w]\n",
        "orbits does not mark the vertices its walk reaches: each is the"
        " start of an orbit again, and the count is not Catalan's",
        ("tests/test_catalan.py::TestOrbits",),
    ),
    Mutant(
        CATALAN,
        "        out.append(tuple(sorted(orbit)))",
        "        out.append(tuple(orbit))",
        "an orbit listed in walk order, not ascending: the same sets,"
        " but not the pinned orbit lists",
        ("tests/test_catalan.py::TestOrbits",),
    ),
    Mutant(
        SUPER,
        "        if family_kind == ODD:\n"
        "            moved |= {x ^ s.bits for x in moved}\n",
        "",
        "the transposition rule without the odd graph's other half: an"
        " image that drops d names its class by the complement, so no"
        " odd-family pair is found moved and the criteria disagree",
        ("tests/test_superstructure.py::TestMetaGraphs",),
    ),
    Mutant(
        SUPER,
        "if bool(hi & bit) != bool(hi & d_bit)}",
        "if bool(hi & bit) == bool(hi & d_bit)}",
        "transpositions (a, d) taken only where they fix the half: every"
        " image has two elements more or fewer, no pair is found moved,"
        " and the criteria disagree",
        ("tests/test_superstructure.py::TestMetaGraphs",),
    ),
    Mutant(
        GRAPHS,
        "            for i in comp:\n                listed[i] = 1\n",
        "",
        "component_sets does not mark the vertices it has listed: every"
        " vertex starts a component of its own again",
        ("tests/test_graphs.py::TestComponents",),
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
    Mutant(
        CATALAN,
        "form_of.update(dict.fromkeys(windows, min(windows)))",
        "form_of[word] = min(windows)",
        "equivalent: the least window is recorded only under the word"
        " itself, so every other member of its class cuts the same m"
        " windows again and finds the same minimum; only slower",
        ("tests/test_catalan.py::TestNecklaces",
         "tests/test_catalan.py::TestNecklacesOncePerClass"),
        equivalent=True,
    ),
    Mutant(
        CATALAN,
        "while (w := ((w << 1) | (w >> (m - 1))) & full) != x:",
        "while (w := ((w >> 1) | (w << (m - 1))) & full) != x:",
        "equivalent: the walk rotates the other way, which reaches the"
        " same orbit, and each orbit is sorted before it is kept",
        ("tests/test_catalan.py::TestOrbits",),
        equivalent=True,
    ),
    Mutant(
        SUPER,
        "if bool(hi & bit) != bool(hi & d_bit)}",
        "}",
        "equivalent: the images the test drops have two elements more or"
        " fewer than a half, and so do their complements, while every"
        " half has k/2 elements; no pair's outcome changes",
        ("tests/test_superstructure.py::TestMetaGraphs",),
        equivalent=True,
    ),
    Mutant(
        SERIALIZE,
        "\n            or text[:at] != _head_text(family, family.ground)):",
        "):",
        "the head compare dropped: a head that names a family but is not"
        " its own builds the family before the text is declined",
        ("tests/test_serialize.py::TestExportReader",),
    ),
    Mutant(
        SERIALIZE,
        "if (len(text) < _least_export_bytes(family)\n            or ",
        "if (",
        "the length guard dropped: a short text that names a large"
        " family builds it before the text is declined",
        ("tests/test_serialize.py::TestExportReader",),
    ),
    Mutant(
        HAMILTON,
        "if j is not None and in_rem[j] and j in rows[i]:",
        "if j is not None and in_rem[j]:",
        "the connector test without its edge test: a connector that is a"
        " remainder vertex counts even when it is not x's neighbour",
        ("tests/test_hamilton.py::TestSpliceFrame",),
    ),
    Mutant(
        HAMILTON,
        "    if key not in odd_up.memo:\n"
        "        odd_up.memo[key] = SpliceFrame.of(odd_up)\n"
        "    return odd_up.memo[key]\n",
        "    if key not in globals():\n"
        "        globals()[key] = SpliceFrame.of(odd_up)\n"
        "    return globals()[key]\n",
        "the frame kept in one process-wide table under a key without n:"
        " every round after the first reads the first round's frame,"
        " whatever odd(n) it runs into",
        ("tests/test_hamilton.py::TestSpliceFrame",),
    ),
    Mutant(
        HAMILTON,
        "in_rem = [x & s_bits in (0, s_bits) for x in masks]",
        "in_rem = [x & s_bits == 0 for x in masks]",
        "the remainder counted on its trace-empty side alone: every"
        " connector still counts, but the remainder size drops by the"
        " vertices holding both colors of S",
        ("tests/test_hamilton.py::TestSpliceFrame",),
    ),
    Mutant(
        MORPHISMS,
        "        return bits | (1 << (2 * m - 1))\n",
        "        return bits | (1 << (2 * m))\n",
        "the embedding's small block gains 2m+1 in place of 2m: a small"
        " block and its complement's image meet, so the copy of"
        " middle(m) in odd(m+1) folds onto half its vertices",
        ("tests/test_hamilton.py::TestSpliceFrame",),
    ),
    Mutant(
        CATALAN,
        "if (n - 3) * count != (2 * n - 3) * k:",
        "if (n - 3) * count > (2 * n - 3) * k:",
        "the counting identity checked one way only: a pinned orbit count"
        " above the one a cubic excision removes passes",
        ("tests/test_catalan.py::TestExcision",),
    ),
    Mutant(
        CATALAN,
        "if not any(chosen & clash[ci] for ci in combo):",
        "if not any(chosen & clash[ci] & ~(1 << ci) for ci in combo):",
        "the independence test without an orbit's own bit: an orbit with"
        " an edge inside it counts as independent, so odd(4) has five"
        " independent orbits, not two",
        ("tests/test_catalan.py::TestExcision",),
    ),
    Mutant(
        CATALAN,
        "    if unions > UNION_CAP:\n",
        "    if k > UNION_CAP:\n",
        "the cap compared with the pinned orbit count, not with the unions"
        " of that many orbits: odd(6)'s C(42, 14) unions would be listed",
        ("tests/test_catalan.py::TestExcision::test_cap_counts_the_unions",),
    ),
    Mutant(
        SERIALIZE,
        "labs != g.label_table or g.labeled and set(map(type, labels)) - {int}:",
        "labs != g.label_table:",
        "the label compare without its int test: 5.0 for 5 and true for 1"
        " compare equal in a tuple, so an odd graph edge takes them",
        ("tests/test_serialize.py::TestFamilyClaim",),
    ),
    Mutant(
        SERIALIZE,
        "    if len(masks) != family.n_vertices:\n"
        "        raise ParameterError(\n"
        '            f"{family} has {family.n_vertices} vertices, not {len(masks)}")\n',
        "",
        "the vertex count not checked before the build: a one-vertex"
        " document that names odd(12) builds it before it is refused",
        ("tests/test_serialize.py::TestFamilyClaim",),
    ),
    Mutant(
        SERIALIZE,
        "if labs != g.label_table or g.labeled and ",
        "if g.labeled and ",
        "the label table not compared: an int label other than the implied"
        " one, and any label on an unlabeled family, is taken",
        ("tests/test_serialize.py::TestFamilyClaim",),
    ),
    Mutant(
        DECOMPOSE,
        "    if not piece.connected:\n"
        '        raise AssertionError(f"remainder piece of O_{n}({k}) is not connected")\n',
        "",
        "remainder_graph without its connectivity test: a piece of the"
        " right signature in two parts is returned",
        ("tests/test_decompose.py::TestRemainder",),
    ),
    Mutant(
        DECOMPOSE,
        "Counter(ISOLATED if len(ixs) == 1 else degree_signature(table, ixs)",
        "Counter(degree_signature(table, ixs)",
        "classify_components without the one-vertex rule: an isolated"
        " vertex reads as regular(0)",
        ("tests/test_decompose.py::TestCensus",),
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
    valid = range(1, len(MUTANTS) + 1)
    bad = [a for a in argv if not (a.isdecimal() and int(a) in valid)]
    if bad:
        print(f"mutants.py: no mutant {bad[0]!r}; the mutants are"
              f" 1..{len(MUTANTS)}", file=sys.stderr)
        return 2
    chosen = [int(a) for a in argv] or valid
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
