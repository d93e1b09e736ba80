"""Command-line interface: commands, formats, exit codes."""

import hashlib
import inspect
import json

import pytest

from kneserlab import cli
from kneserlab.cli import main, run_suite
from kneserlab.graphs import Report
from kneserlab.serialize import graph_from_json


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

    def test_pinned_table(self, capsys):
        code, out, _ = run(["decompose", "odd", "4", "--k", "4"], capsys)
        assert code == 0
        assert "isolated" in out and "biregular(3,1)" in out
        assert sha256_prefix(out) == "12cbe76099026a47"

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

    def test_missing_arguments_exit_2(self, capsys):
        code, _, _ = run(["hamilton"], capsys)
        assert code == 2

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
    ], ids=["missing", "bad-json", "bad-edge"])
    def test_bad_input_exit_2(self, text, tmp_path, capsys):
        src = tmp_path / "g.json"
        if text is not None:
            src.write_text(text)
        code, out, err = run(["export", str(src)], capsys)
        assert code == 2
        assert err.startswith("error: ")
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
