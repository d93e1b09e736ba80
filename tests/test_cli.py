"""Command-line interface: commands, formats, exit codes."""

import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kneserlab
from kneserlab import cli, graphs
from kneserlab import decompose as dec
from kneserlab.cli import main, run_suite
from kneserlab.graphs import Family, Report, build
from kneserlab.hamilton import SearchBudget
from kneserlab.serialize import graph_from_json, graph_to_json


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def sha256_prefix(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestBuild:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run(["build", "middle", "2", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 6

    def test_dot_output(self, capsys):
        code, out, _ = run(["build", "odd", "3", "--format", "dot"], capsys)
        assert code == 0
        assert out.count(" -- ") == 15
        assert out.count("label=") == 15

    def test_kneser_equals_odd_structurally(self, capsys):
        _, out_odd, _ = run(["build", "odd", "3"], capsys)
        _, out_kn, _ = run(["build", "kneser", "5", "2"], capsys)
        odd = json.loads(out_odd)
        kn = json.loads(out_kn)
        assert odd["vertices"] == kn["vertices"]
        assert [e[:2] for e in odd["edges"]] == [e[:2] for e in kn["edges"]]

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "graph.json"
        code, _, _ = run(["build", "odd", "3", "--out", str(target)], capsys)
        assert code == 0
        g = graph_from_json(target.read_text())
        assert g.n_vertices == 10

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "graph.json"
        code, out, err = run(["build", "odd", "3", "--out", str(target)], capsys)
        assert code == 2
        assert err.startswith(
            f"error: cannot write {target}: No such file or directory\n")
        assert out == ""

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(["build", "odd", "99"], capsys)
        assert code == 2
        assert "error" in err

    def test_unknown_family_exit_2(self, capsys):
        code, _, _ = run(["build", "frobnicate", "3"], capsys)
        assert code == 2


class TestDecompose:
    def test_census_table(self, capsys):
        code, out, _ = run(
            ["decompose", "odd", "5", "--colors", "6,7,8,9"], capsys
        )
        assert code == 0
        assert "regular(3)" in out
        assert "biregular(4,2)" in out
        rows = [line for line in out.splitlines() if "regular" in line]
        assert any("3" in row for row in rows)

    def test_odd_count_has_no_regular_row(self, capsys):
        code, out, _ = run(["decompose", "odd", "4", "--k", "3"], capsys)
        assert code == 0
        assert "\nregular" not in out

    def test_middle_family(self, capsys):
        code, out, _ = run(["decompose", "middle", "4", "--k", "2"], capsys)
        assert code == 0
        assert "regular(3)" in out

    def test_missing_selector_exit_2(self, capsys):
        code, _, _ = run(["decompose", "odd", "4"], capsys)
        assert code == 2

    def test_both_selectors_exit_2(self, capsys):
        # --k was dropped when --colors was given
        code, out, err = run(
            ["decompose", "odd", "4", "--colors", "6,7", "--k", "3"], capsys)
        assert code == 2
        assert err.startswith("error: need exactly one of --colors and --k")
        assert out == ""

    def test_pinned_table(self, capsys):
        code, out, _ = run(["decompose", "odd", "4", "--k", "4"], capsys)
        assert code == 0
        assert "isolated" in out and "biregular(3,1)" in out
        assert sha256_prefix(out) == "12cbe76099026a47"

    @pytest.mark.parametrize("family", ["kneser", "bikneser", "foo"])
    def test_family_outside_odd_and_middle_exit_2(self, family, capsys):
        code, out, err = run(["decompose", family, "4", "--k", "2"], capsys)
        assert code == 2
        assert err.startswith("error: decompose takes an odd or middle family")
        assert out == ""

    @pytest.mark.parametrize("argv,prefix", [
        (["o", "4", "--k", "3"], "f1d47a89e0776ccd"),
        (["b", "4", "--k", "2"], "b60b436f2dff9bf2"),
        (["middle-levels", "4", "--k", "2"], "b60b436f2dff9bf2"),
    ])
    def test_family_aliases(self, argv, prefix, capsys):
        code, out, _ = run(["decompose", *argv], capsys)
        assert code == 0
        assert sha256_prefix(out) == prefix

    @pytest.mark.parametrize("colors", ["1,x", "1,,2", "1,1"])
    def test_bad_colors_exit_2(self, colors, capsys):
        code, out, err = run(["decompose", "odd", "4", "--colors", colors], capsys)
        assert code == 2
        assert err.startswith("error: --colors")
        assert out == ""


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["covers", "identities", "distance", "orbits", "coxeter"]
    )
    def test_suites_pass(self, suite, capsys):
        code, out, _ = run(["verify", suite, "--max-n", "4"], capsys)
        assert code == 0, out
        assert "0 failed" in out

    @pytest.mark.parametrize("max_n", ["1", "2"])
    @pytest.mark.parametrize("suite", ["isomorphisms", "distance", "orbits"])
    def test_shallow_suite_skips(self, suite, max_n, capsys):
        # a suite whose checks all start at n = 3 says so, not an empty pass
        code, out, _ = run(["verify", suite, "--max-n", max_n], capsys)
        assert code == 0
        assert out.splitlines()[-1] == f"suite {suite}: 0 passed, 0 failed, 1 skipped"
        assert re.search(r"  skip  .*  needs max-n >= 3$", out, re.M), out

    def test_report_lines_carry_references(self, capsys):
        _, out, _ = run(["verify", "covers", "--max-n", "3"], capsys)
        assert "Simpson 1991" in out

    def test_all_bounded(self, capsys):
        code, out, _ = run(["verify", "all", "--max-n", "4"], capsys)
        assert code == 0, out
        assert "0 failed" in out

    @pytest.mark.parametrize(
        "suite,max_n", [("identities", "0"), ("all", "-1"), ("covers", "0")]
    )
    def test_bad_max_n_exit_2(self, suite, max_n, capsys):
        code, out, err = run(["verify", suite, "--max-n", max_n], capsys)
        assert code == 2
        assert err.startswith("error: --max-n")
        assert out == ""

    def test_run_suite_api(self):
        report = run_suite("identities", 10)
        assert report.exit_status == 0
        assert all(line.reference for line in report.lines)

    def test_all_suites_pass_at_default_depth(self):
        report = run_suite("all")
        failed = [line for line in report.lines if line.status == "FAIL"]
        assert report.exit_status == 0, failed
        assert len(report.lines) > 60

    def test_any_failed_line_flips_exit_status(self):
        from kneserlab.cli import RunReport

        report = RunReport("demo")
        report.add("good", "ref", True)
        assert report.exit_status == 0
        report.add("bad", "ref", False, "boom")
        assert report.exit_status == 1
        assert "FAIL" in report.render()

    def test_rows_are_reports_with_one_status(self):
        from kneserlab.cli import RunReport

        report = RunReport("demo")
        report.skip("later", "ref", "needs max-n >= 9")
        assert report.exit_status == 0
        report.add("falsy", "ref", None)  # any falsy outcome fails, never skips
        assert report.exit_status == 1
        report.add("truthy", "ref", 1)
        first = report.lines[0]
        assert (first.name, first.ok, first.reference, first.note) == (
            "later", None, "ref", "needs max-n >= 9")
        assert [line.status for line in report.lines] == ["skip", "FAIL", "pass"]
        assert report.render().endswith("1 passed, 1 failed, 1 skipped")

    @pytest.mark.parametrize(
        "depth,prefix,last",
        [
            (["--max-n", "64"], "1553bdd4eab4ca56", "93 passed, 0 failed, 0 skipped"),
            ([], "be020cfad88d6228", "86 passed, 0 failed, 0 skipped"),
            (["--max-n", "3"], "9b26f0a1a91cc5bf", "23 passed, 0 failed, 10 skipped"),
        ],
        ids=["max-n-64", "default", "max-n-3"],
    )
    def test_pinned_table(self, depth, prefix, last, capsys):
        code, out, _ = run(["verify", "all", *depth], capsys)
        assert code == 0
        assert out.splitlines()[-1] == f"suite all: {last}"
        assert sha256_prefix(out) == prefix

    def test_suites_are_plain_functions_filling_reports(self):
        # perfbench/layers.py times each _SUITES value as one call, so a suite
        # must do its work inside that call
        assert set(cli._SUITES) == {
            "covers", "decompose", "isomorphisms", "superstructure",
            "identities", "distance", "orbits", "coxeter",
        }
        for name, suite in cli._SUITES.items():
            assert not inspect.isgeneratorfunction(suite), name
            lines = run_suite(name, 3).lines
            assert lines and all(isinstance(line, Report) for line in lines), name

    def test_suites_hold_their_families(self, fresh_live, monkeypatch, capsys):
        # a pass constructs each family at most once: one hold spans every
        # suite (with nothing held a pass made 155 constructions of 24
        # families, and with one hold per suite 59)
        built = []
        for name in ("_build_kneser", "_build_bipartite_kneser"):
            construct = getattr(graphs, name)
            monkeypatch.setattr(
                graphs, name,
                lambda family, construct=construct:
                    built.append(family) or construct(family))
        code, _, _ = run(["verify", "all", "--max-n", "64"], capsys)
        assert code == 0
        assert len(built) == 22
        assert not graphs._holds

    def test_pass_cuts_each_class_once(self, fresh_live, monkeypatch, capsys):
        # the component-to-middle chains cut only their source class and
        # map each vertex through the block formulas (composing maps between
        # intermediate pieces made 130 block_component calls per pass); a
        # pass deletes colors from a family graph, or cuts a piece of it,
        # once through the graph's memo (a pass made 99 deletions and 98
        # subgraphs without it, each piece costing one of both, and 32
        # deletions and 87 cuts with one hold per suite).  remainder_graph
        # asks block_component again on every call, and gets the piece the
        # memo keeps.  A piece is cut from its graph's shared deletion, so
        # the two pieces whose deletion no census makes add one each: the
        # bottom level's odd(4) minus {4,5,6,7} and the identities' odd(2)
        # minus {2,3} (22 deletions when a piece was cut and its colors
        # dropped in one pass).  As in a fresh process, no graph outlives
        # the pass: a graph that a session fixture holds would carry its
        # memo into it.
        targets = [(dec, "block_component"), (dec, "delete_colors"),
                   (graphs.LabeledGraph, "subgraph")]
        calls = dict.fromkeys((name for _, name in targets), 0)
        modules = [module for module in list(sys.modules.values())
                   if getattr(module, "__name__", "").startswith("kneserlab")]
        for owner, name in targets:
            original = getattr(owner, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        code, _, _ = run(["verify", "all", "--max-n", "64"], capsys)
        assert code == 0
        assert calls == {"block_component": 60, "delete_colors": 24,
                         "subgraph": 72}


class TestHamilton:
    def test_petersen_negative_conclusive(self, capsys):
        code, out, _ = run(["hamilton", "odd", "3"], capsys)
        assert code == 0
        assert "non-Hamiltonian" in out

    def test_petersen_negative_with_requirement(self, capsys):
        code, _, _ = run(["hamilton", "odd", "3", "--require-cycle"], capsys)
        assert code == 1

    def test_odd4_cycle_file(self, tmp_path, capsys):
        target = tmp_path / "cycle.txt"
        code, out, _ = run(
            ["hamilton", "odd", "4", "--max-seconds", "60",
             "--cycle-out", str(target)],
            capsys,
        )
        assert code == 0
        assert "found" in out
        indices = [int(x) for x in target.read_text().split()]
        assert len(indices) == 35
        assert sorted(indices) == list(range(35))

    def test_unwritable_cycle_out_exit_2(self, tmp_path, capsys):
        # refused before the search: nothing is printed on stdout
        target = tmp_path / "missing" / "cycle.txt"
        code, out, err = run(
            ["hamilton", "odd", "4", "--cycle-out", str(target)], capsys)
        assert code == 2
        assert err.startswith(
            f"error: cannot write {target}: No such file or directory\n")
        assert out == ""

    def test_cycle_out_into_directory_exit_2(self, tmp_path, capsys):
        code, out, err = run(
            ["hamilton", "odd", "4", "--cycle-out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith(
            f"error: cannot write {tmp_path}: Is a directory\n")
        assert out == ""

    def test_cycle_out_under_a_file_exit_2(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        target = plain / "cycle.txt"
        code, out, err = run(
            ["hamilton", "odd", "4", "--cycle-out", str(target)], capsys)
        assert code == 2
        assert err.startswith(
            f"error: cannot write {target}: Not a directory\n")
        assert out == ""

    def test_no_cycle_writes_no_file(self, tmp_path, capsys):
        target = tmp_path / "cycle.txt"
        code, out, _ = run(
            ["hamilton", "odd", "3", "--cycle-out", str(target)], capsys)
        assert code == 0
        assert "non-Hamiltonian" in out
        assert not target.exists()

    def test_nan_time_budget_exit_2(self, capsys):
        code, out, err = run(
            ["hamilton", "odd", "3", "--max-seconds", "nan"], capsys)
        assert code == 2
        assert err.startswith("error: budget limits must be positive")
        assert out == ""

    def test_infinite_time_budget_runs(self, capsys):
        code, out, _ = run(
            ["hamilton", "odd", "3", "--max-seconds", "inf"], capsys)
        assert code == 0
        assert "non-Hamiltonian" in out

    def test_budget_exhaustion_exit_1(self, capsys):
        code, out, _ = run(
            ["hamilton", "odd", "5", "--max-nodes", "10"], capsys
        )
        assert code == 1
        assert "inconclusive" in out

    def test_pipeline(self, capsys):
        code, out, _ = run(["hamilton", "--pipeline", "5"], capsys)
        assert code == 0
        assert "single circuit of length 70" in out
        assert "remainder size: 56" in out

    def test_pipeline_ground_too_large_exit_2_before_building(
        self, capsys, monkeypatch
    ):
        # odd(33) has ground 65 > 63: the round must stop before it builds
        # middle(32) or any other graph
        from kneserlab import hamilton

        def refuse(family):
            pytest.fail(f"built {family}")

        monkeypatch.setattr(graphs, "build", refuse)
        monkeypatch.setattr(hamilton, "build", refuse)
        code, _, err = run(["hamilton", "--pipeline", "33"], capsys)
        assert code == 2
        assert "ground size must be in 1..63, got 65" in err

    def test_pipeline_prints_stage_times(self, capsys):
        code, out, _ = run(["hamilton", "--pipeline", "5", "--seed", "1"], capsys)
        assert code == 0
        line = next(x for x in out.splitlines() if "stage times" in x)
        stages = [part.split()[0] for part in line.split(": ", 1)[1].split(", ")]
        assert stages == ["search", "lift", "embed"]

    def test_missing_arguments_exit_2(self, capsys):
        code, _, _ = run(["hamilton"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [["odd", "3"], ["odd"], ["4"]])
    def test_pipeline_with_a_family_exit_2(self, argv, capsys):
        # the family and parameters were dropped in favour of the round
        code, out, err = run(["hamilton", *argv, "--pipeline", "4"], capsys)
        assert code == 2
        assert err.startswith("error: --pipeline takes no family or parameters")
        assert out == ""

    def test_pipeline_start_without_pipeline_exit_2(self, capsys):
        code, out, err = run(
            ["hamilton", "odd", "3", "--pipeline-start", "middle"], capsys)
        assert code == 2
        assert err.startswith("error: --pipeline-start needs --pipeline\n")
        assert out == ""

    def test_pipeline_start_middle(self, capsys):
        code, out, _ = run(
            ["hamilton", "--pipeline", "5", "--pipeline-start", "middle"], capsys)
        assert code == 0
        assert out.startswith("recursion pipeline into odd(5), starting from middle(4)")

    @pytest.mark.parametrize("flag", ["--cycle-out", "--require-cycle"])
    def test_pipeline_with_cycle_flags_exit_2(self, flag, tmp_path, capsys):
        # a round writes no cycle and proves nothing non-Hamiltonian
        flags = [flag, str(tmp_path / "cycle.txt")] if flag == "--cycle-out" else [flag]
        code, out, err = run(
            ["hamilton", "--pipeline", "4", *flags], capsys)
        assert code == 2
        assert err.startswith("error: --cycle-out and --require-cycle act on a"
                              " family search, not on --pipeline\n")
        assert out == ""
        assert not (tmp_path / "cycle.txt").exists()

    PINNED = {
        "odd-3": (["odd", "3"], [
            "odd(3): non-Hamiltonian (exhaustive search); 82 nodes, T"]),
        "odd-4-seed-1": (["odd", "4", "--seed", "1"], [
            "odd(4): Hamiltonian cycle found (58 nodes, T, python)"]),
        "pipeline-5": (["--pipeline", "5"], [
            "recursion pipeline into odd(5), starting from odd(4)",
            "  base odd(4) search: found (39 nodes, T, python)",
            "  embedded vertices in odd(5): 70",
            "  remainder size: 56 (even)",
            "  two-color connectors: 70 (complete: True,"
            " middle-vertex collisions: 35)",
            "  lift: single circuit of length 70",
            "  lifted cycle Hamiltonian in middle(4): True",
            "  stage times: search T, lift T, embed T",
            "  note: connector middle vertices collide in the remainder;"
            " any tour built from them would repeat vertices"
            " (simplicity violation)",
            "  note: embedded component and remainder partition the vertex set"]),
        "pipeline-5-middle": (["--pipeline", "5", "--pipeline-start", "middle"], [
            "recursion pipeline into odd(5), starting from middle(4)",
            "  base middle(4) search: found (237 nodes, T, python)",
            "  embedded vertices in odd(5): 70",
            "  remainder size: 56 (even)",
            "  two-color connectors: 70 (complete: True,"
            " middle-vertex collisions: 35)",
            "  lift: two antipodal circuits of length 70, 70",
            "  stage times: search T, embed T, lift T",
            "  note: connector middle vertices collide in the remainder;"
            " any tour built from them would repeat vertices"
            " (simplicity violation)",
            "  note: embedded component and remainder partition the vertex set"]),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pinned_text(self, case, capsys):
        # elapsed seconds and stage milliseconds vary run to run: masked as T
        argv, lines = self.PINNED[case]
        code, out, _ = run(["hamilton", *argv], capsys)
        assert code == 0
        assert re.sub(r"\d+\.\d+ ?m?s\b", "T", out) == "\n".join(lines) + "\n"

    def test_budget_defaults_are_search_budget_defaults(self):
        args = cli.make_parser().parse_args(["hamilton", "odd", "3"])
        budget = SearchBudget()
        assert (args.max_nodes, args.max_seconds, args.seed) == (
            budget.max_nodes, budget.max_seconds, budget.seed)

    @pytest.mark.parametrize("graph", [["kneser", "2", "1"], ["middle", "1"]])
    def test_two_vertices_non_hamiltonian(self, graph, capsys):
        code, out, _ = run(["hamilton", *graph], capsys)
        assert code == 0
        assert "non-Hamiltonian" in out
        code, _, _ = run(["hamilton", *graph, "--require-cycle"], capsys)
        assert code == 1


class TestOrbits:
    def test_counts(self, capsys):
        code, out, _ = run(["orbits", "4"], capsys)
        assert code == 0
        assert "5 rotation orbits" in out

    def test_necklaces_flag(self, capsys):
        code, out, _ = run(["orbits", "3", "--necklaces"], capsys)
        assert code == 0
        assert "00111" in out

    @pytest.mark.parametrize("n, prefix", [
        ("4", "53b3d5d8e78983d4"),
        ("6", "63c5236f4358389b"),
        ("8", "cff3b7d2098403f8"),
    ])
    def test_pinned_necklaces(self, n, prefix, capsys):
        code, out, _ = run(["orbits", n, "--necklaces"], capsys)
        assert code == 0
        assert sha256_prefix(out) == prefix


class TestOrbitsSuite:
    """The necklace-bijection row fails when the forms do not separate the
    orbits one to one."""

    def suite_with(self, monkeypatch, fake):
        monkeypatch.setattr(cli, "necklaces", fake)
        report = run_suite("orbits", 5)
        rows = {line.name: line.status for line in report.lines}
        assert report.exit_status == 1
        return rows

    def test_two_classes_merged_fail(self, monkeypatch):
        real = cli.necklaces

        def merged(n, masks):
            forms = real(n, masks)
            first, second = sorted(set(forms))[:2]
            return [first if form == second else form for form in forms]

        rows = self.suite_with(monkeypatch, merged)
        for n in (3, 4, 5):
            assert rows[f"orbit-count-odd({n})"] == "pass"
            assert rows[f"necklace-bijection-odd({n})"] == "FAIL"

    def test_one_orbit_split_fails(self, monkeypatch):
        real = cli.necklaces

        def split(n, masks):
            forms = real(n, masks)
            # vertex 0 gets another rotation of its orbit's form
            forms[0] = forms[0][1:] + forms[0][:1]
            return forms

        rows = self.suite_with(monkeypatch, split)
        for n in (3, 4, 5):
            assert rows[f"orbit-count-odd({n})"] == "pass"
            assert rows[f"necklace-bijection-odd({n})"] == "FAIL"


class TestSizeGuard:
    def test_family_too_large_to_list_exit_2(self):
        # odd(30) and middle(30) have C(59, 29), about 5.9e16, vertices per
        # level.  The commands run in a child whose address space is capped,
        # so that without the guard they would fail on memory at once
        # rather than list masks until the machine runs out
        commands = [["orbits", "30"], ["build", "odd", "30"],
                    ["decompose", "odd", "30", "--k", "2"],
                    ["hamilton", "odd", "30"], ["build", "middle", "30"]]
        code = "\n".join([
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
            "from kneserlab.cli import main",
            f"print([main(argv) for argv in {commands!r}])",
        ])
        src = os.path.dirname(os.path.dirname(kneserlab.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{[2] * len(commands)}\n"
        refusal = ("error: the 59132290782430712 29-subsets of [59] exceed"
                   " the limit of 4194304")
        assert done.stderr.count(refusal) == len(commands), done.stderr


class TestExport:
    def test_json_to_dot(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        code, _, _ = run(["build", "middle", "2", "--out", str(src)], capsys)
        assert code == 0
        code, out, _ = run(["export", str(src), "--format", "dot"], capsys)
        assert code == 0
        assert out.count(" -- ") == 6

    def test_json_reexport_identical(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        run(["build", "odd", "4", "--out", str(src)], capsys)
        code, out, _ = run(["export", str(src), "--format", "json"], capsys)
        assert code == 0
        assert out == src.read_text()

    @pytest.mark.parametrize("text", [
        None,  # no such file
        "{not json",
        '{"ground": 3, "vertices": [[1], [2]], "edges": [[0, 5, null]]}',
        '{"family": "odd", "params": [true], "ground": 1, "vertices": [[]],'
        ' "edges": []}',
    ], ids=["missing", "bad-json", "bad-edge", "bool-param"])
    def test_bad_input_exit_2(self, text, tmp_path, capsys):
        src = tmp_path / "g.json"
        if text is not None:
            src.write_text(text)
        code, out, err = run(["export", str(src)], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""

    @pytest.mark.parametrize("edge", ['{"0": 0, "1": 1, "2": null}', '"abc"'],
                             ids=["object", "string"])
    def test_edge_not_an_array_exit_2(self, edge, tmp_path, capsys):
        # an object edge has no item 0 for the column reads, and a string
        # edge would be read as its characters
        src = tmp_path / "g.json"
        src.write_text('{"ground": 3, "vertices": [[1], [2]], "edges": [%s]}' % edge)
        code, out, err = run(["export", str(src)], capsys)
        assert code == 2
        assert err.startswith(
            "error: malformed graph document: edges must be a list of arrays")
        assert out == ""

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_text("[" * 100_000)
        code, out, err = run(["export", str(src)], capsys)
        assert code == 2
        assert err.startswith("error: invalid JSON: ")
        assert out == ""

    def test_contradicted_family_exit_2(self, tmp_path, capsys):
        # odd(2) has 3 vertices, and label 7 lies outside the ground [3]
        src = tmp_path / "g.json"
        src.write_text('{"family": "odd", "params": [2], "ground": 3,'
                       ' "vertices": [[1], [2]], "edges": [[0, 1, 7]]}')
        code, out, err = run(["export", str(src), "--format", "json"], capsys)
        assert code == 2
        assert err.startswith("error: odd(2) has 3 vertices")
        assert out == ""


# ------------------------------------------------------------------ fuzz

FAMILY_ALIASES = sorted(cli._FAMILY_BUILDERS) + ["ODD", "frob"]
SMALL_INTS = st.integers(-2, 6).map(str)
COLOR_LISTS = st.one_of(
    st.sampled_from(["", ",", "1,,2", "a", "1,a", "1.5", "1;2", " 2 ", "--1"]),
    st.lists(st.integers(-2, 12), max_size=4).map(
        lambda xs: ",".join(map(str, xs))))
STRAY_FLAGS = st.sampled_from([
    "--bogus", "-x", "--k", "--colors", "--format", "--out", "--max-n",
    "--necklaces", "--require-cycle", "--pipeline", "--seed", "-h"])


@st.composite
def cli_vectors(draw, files):
    """An argument vector for cli.main: a subcommand (or an unknown one),
    its positionals from family aliases and ints in -2..6, some of its
    options with well-formed or malformed values, and stray flags.  A
    hamilton search is bounded by 200 nodes and 1 s, a verify pass by
    --max-n 3 or less; every output lands in files."""
    out = st.sampled_from(["-", str(files / "out.txt"),
                           str(files / "missing" / "out.txt")])
    fmt = st.sampled_from(["json", "dot", "edges", "xml"])
    ints = st.lists(SMALL_INTS, max_size=3)
    family = st.sampled_from(FAMILY_ALIASES)
    grammar = {
        "build": ([family, ints], [("--format", fmt), ("--out", out)]),
        "decompose": ([family, ints],
                      [("--colors", COLOR_LISTS), ("--k", SMALL_INTS)]),
        "verify": ([st.sampled_from(sorted(cli._SUITES) + ["all", "frob"])], []),
        "hamilton": ([st.lists(family, max_size=1), ints], [
            ("--pipeline", SMALL_INTS),
            ("--pipeline-start", st.sampled_from(["odd", "middle", "frob"])),
            ("--seed", SMALL_INTS), ("--cycle-out", out),
            ("--require-cycle", None)]),
        "orbits": ([ints], [("--necklaces", None)]),
        "export": ([st.sampled_from([str(files / name) for name in
                                     ("odd3.json", "bad.json", "none.json")])],
                   [("--format", fmt), ("--out", out)]),
        "frob": ([ints], []),
    }
    command = draw(st.sampled_from(sorted(grammar)))
    positionals, options = grammar[command]
    argv = [command]
    for part in positionals:
        drawn = draw(part)
        argv += drawn if isinstance(drawn, list) else [drawn]
    for flag, value in options:
        if draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    for stray in draw(st.lists(STRAY_FLAGS, max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), stray)
    if command == "hamilton":
        argv += ["--max-nodes", "200", "--max-seconds", "1"]
    elif command == "verify":
        argv += ["--max-n", str(draw(st.integers(-2, 3)))]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A directory holding an odd(3) export and a file that is not JSON."""
    files = tmp_path_factory.mktemp("fuzz")
    (files / "odd3.json").write_text(graph_to_json(build(Family.odd(3))))
    (files / "bad.json").write_text('{"ground": 3, "vertices": [[1], [')
    return files


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_vector_exits_0_1_or_2(self, fuzz_files, data):
        argv = data.draw(cli_vectors(fuzz_files))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error or -h
                code = exc.code
        assert code in (0, 1, 2)
