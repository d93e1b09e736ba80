"""JSON, DOT and CSV serialization; round-trip fidelity."""

import contextlib
import copy
import hashlib
import io
import json
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneserlab import cli, serialize, setcore
from kneserlab.decompose import delete_colors
from kneserlab.errors import ParameterError
from kneserlab.graphs import Family, build, graph_from_edges
from kneserlab.setcore import Block
from kneserlab.serialize import (
    graph_from_json,
    graph_to_dict,
    graph_to_dot,
    graph_to_edge_csv,
    graph_to_json,
    render,
)


def family_instances(max_vertices=200):
    """Every family instance within the vertex bound, over a small grid."""
    out = []
    for n in range(1, 7):
        for fam in (Family.odd(n), Family.middle_levels(n)):
            g = build(fam)
            if g.n_vertices <= max_vertices:
                out.append(g)
    for n in range(2, 11):
        for k in range(1, n):
            for fam in (Family.kneser(n, k), Family.bipartite_kneser(n, k)):
                g = build(fam)
                if g.n_vertices <= max_vertices:
                    out.append(g)
    return out


class TestJsonRoundTrip:
    def test_known_document_shape(self, middle2):
        data = json.loads(graph_to_json(middle2))
        assert data["family"] == "middle"
        assert data["params"] == [2]
        assert data["ground"] == 3
        assert len(data["vertices"]) == 6
        assert all(len(e) == 3 for e in data["edges"])

    def test_bit_identical_for_all_small_instances(self):
        checked = 0
        for g in family_instances(200):
            text = graph_to_json(g)
            back = graph_from_json(text)
            assert back == g
            assert graph_to_json(back) == text
            checked += 1
        assert checked >= 30

    def test_edges_sorted_by_index_pair(self, odd4):
        data = json.loads(graph_to_json(odd4))
        pairs = [(u, v) for u, v, _ in data["edges"]]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)

    @staticmethod
    def _doc(**fields):
        data = {"ground": 3, "vertices": [[1], [2]], "edges": [[0, 1, None]]}
        data.update(fields)
        return json.dumps(data)

    def test_malformed_document_rejected(self):
        with pytest.raises(ParameterError):
            graph_from_json("{}")
        graph_from_json(self._doc())  # the base document is well formed
        for text in [
            "{not json",
            "[1, 2]",
            self._doc(edges=[[0, 5, None]]),
            self._doc(edges=[[-1, 0, None]]),
            self._doc(edges=[[0, "1", None]]),
            self._doc(edges=[[0, [1], None]]),
            self._doc(edges=[[0, 1]]),
            self._doc(vertices=5),
            self._doc(vertices=[[1], [7]]),
            self._doc(family="odd", params=["x"]),
            # JSON booleans where the schema wants an int
            self._doc(family="odd", params=[True], ground=1, vertices=[[]],
                      edges=[]),
            graph_to_json(build(Family.kneser(3, 1))).replace(
                '"params": [3, 1]', '"params": [3, true]'),
            self._doc(ground=True, vertices=[[1]], edges=[]),
            self._doc(vertices=[[True], [2]]),
            self._doc(edges=[[False, True, None]]),
        ]:
            with pytest.raises(ParameterError):
                graph_from_json(text)

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000],
                             ids=["arrays", "objects"])
    def test_nesting_too_deep_rejected(self, text):
        with pytest.raises(ParameterError, match="^invalid JSON: "):
            graph_from_json(text)

    @pytest.mark.parametrize("fields, match", [
        ({"edges": [[0, 1, None], [1, 0, None]]}, "duplicate edge"),
        ({"edges": [[1, 1, None]]}, "self-loop"),
        ({"vertices": [[2], [1]]}, "canonical order"),
        ({"vertices": [[1], [1]]}, "duplicate vertices"),
        ({"vertices": [[1], [1.0]]}, "malformed"),
        ({"vertices": [[1], [0]]}, "malformed"),
        ({"ground": 0, "vertices": [], "edges": []}, "malformed"),
        ({"ground": True, "vertices": [[1]], "edges": []}, "malformed"),
        ({"vertices": [[True], [2]]}, "malformed"),
        ({"edges": [[0, True, None]]}, "endpoints must be vertex indices"),
        ({"edges": [[0, 1.0, None]]}, "endpoints must be vertex indices"),
        ({"family": "odd", "params": [True], "ground": 1, "vertices": [[]],
          "edges": []}, "malformed"),
        ({"edges": [{"0": 0, "1": 1, "2": None}]}, "malformed"),
        ({"edges": ["abc"]}, "malformed"),
        ({"vertices": [[1], {"2": 2}]}, "malformed"),
        ({"vertices": [[1], "2"]}, "malformed"),
        ({"edges": {"0": [0, 1, None]}}, "malformed"),
        ({"family": 5}, "^malformed graph document: family must be null or a string$"),
        ({"family": "odd", "params": 5},
         "^malformed graph document: params must be a list$"),
    ], ids=["duplicate-edge", "self-loop", "order", "duplicate-vertex",
            "float-element", "zero-element", "ground-0", "bool-ground",
            "bool-element", "bool-endpoint", "float-endpoint", "bool-param",
            "object-edge", "string-edge", "object-vertex", "string-vertex",
            "object-edges", "int-family", "int-params"])
    def test_structural_faults_rejected(self, fields, match):
        with pytest.raises(ParameterError, match=match):
            graph_from_json(self._doc(**fields))

    def test_repeated_element_read_as_one(self):
        # as Block.from_elements reads it: [2, 2] is the block {2}
        g = graph_from_json(self._doc(vertices=[[1], [2, 2]]))
        assert [v.elements() for v in g.vertices] == [(1,), (2,)]

    def test_family_less_graph_round_trips(self, odd3):
        deleted = delete_colors(odd3, [4, 5])
        piece = deleted.subgraph(deleted.component_sets[0])
        assert piece.family is None
        text = graph_to_json(piece)
        back = graph_from_json(text)
        assert back == piece
        assert graph_to_json(back) == text


def base_documents():
    """Small interchange documents, one per family and one family-less."""
    odd3 = build(Family.odd(3))
    deleted = delete_colors(odd3, [4, 5])
    piece = deleted.subgraph(deleted.component_sets[0])
    graphs = [odd3, build(Family.middle_levels(3)), build(Family.kneser(5, 2)),
              build(Family.bipartite_kneser(5, 2)), piece]
    return [json.loads(graph_to_json(g)) for g in graphs]


BASE_DOCUMENTS = base_documents()
FIELDS = ("family", "params", "ground", "vertices", "edges")


def reference_graph(data):
    """What graph_from_edges builds from a document, read field by field."""
    family = None
    if data["family"] is not None:
        family = Family(data["family"], *data["params"])
    ground = data["ground"]
    vertices = [Block.from_elements(elems, ground) for elems in data["vertices"]]
    labeled = family.kind in ("odd", "middle") if family else None
    return graph_from_edges(ground, vertices, [tuple(e) for e in data["edges"]],
                            family=family, labeled=labeled)


@st.composite
def mutated_documents(draw):
    """A base document with a few endpoints, elements, labels or fields
    replaced by bad or other values, and edges dropped or swapped."""
    data = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    n = len(data["vertices"])
    values = st.one_of(
        st.sampled_from([-1, n, 2 ** 70, True, 1.0, "1", [], None]),
        st.integers(0, max(n - 1, 0)))
    for _ in range(draw(st.integers(1, 3))):
        edges, vertices = data.get("edges"), data.get("vertices")
        kind = draw(st.sampled_from(
            ["endpoint", "element", "label", "field", "row", "drop", "swap"]))
        if kind == "field":
            data[draw(st.sampled_from(FIELDS))] = draw(values)
        elif kind == "row":
            # a whole edge or vertex becomes an object or a string
            rows = draw(st.sampled_from([edges, vertices]))
            if isinstance(rows, list) and rows:
                at = draw(st.integers(0, len(rows) - 1))
                keyed = dict(zip("012", rows[at])) if isinstance(rows[at], list) else {}
                rows[at] = draw(st.sampled_from([keyed, "abc", ""]))
        elif kind == "element":
            if isinstance(vertices, list) and vertices:
                elems = draw(st.sampled_from(vertices))
                if isinstance(elems, list) and elems:
                    elems[draw(st.integers(0, len(elems) - 1))] = draw(values)
        elif isinstance(edges, list) and edges:
            e = draw(st.integers(0, len(edges) - 1))
            if kind == "drop":
                del edges[e]
            elif kind == "swap":
                f = draw(st.integers(0, len(edges) - 1))
                edges[e], edges[f] = edges[f], edges[e]
            elif isinstance(edges[e], list) and len(edges[e]) == 3:
                at = 2 if kind == "label" else draw(st.sampled_from([0, 1]))
                edges[e][at] = draw(values)
    return data


class TestImportDifferential:
    """graph_from_json either refuses a document with ParameterError or
    returns the graph graph_from_edges builds from the same fields."""

    @staticmethod
    def _check(data):
        try:
            g = graph_from_json(json.dumps(data))
        except ParameterError:
            return False
        assert g == reference_graph(data)
        return True

    def test_base_documents_accepted(self):
        assert all(map(self._check, BASE_DOCUMENTS))

    @given(mutated_documents())
    @example({**BASE_DOCUMENTS[0],
              "edges": [[-1, 4, 3], *BASE_DOCUMENTS[0]["edges"][1:]]})
    @settings(max_examples=300, deadline=None)
    def test_refused_or_same_as_graph_from_edges(self, data):
        self._check(data)

    @pytest.mark.parametrize("end", [0, 1])
    def test_negative_endpoint_not_read_as_last_vertex(self, end):
        # a list lookup would read -1 as vertex n-1, so the column keeps
        # its parsed ints and the import names the edge
        data = copy.deepcopy(BASE_DOCUMENTS[4])
        last = len(data["vertices"]) - 1
        edge = next(e for e in data["edges"] if e[1] == last)
        edge[end] = -1
        shown = tuple(edge[:2])
        with pytest.raises(ParameterError, match=re.escape(
                f"edge {shown}: endpoints must be vertex indices 0..{last}")):
            graph_from_json(json.dumps(data))


def whole_document_graph(text):
    """The graph of the text parsed as one document: the reference reader."""
    return serialize._parsed_graph(text)


def outcome(read, text):
    """The graph read returns for text, or the message it refuses it with."""
    try:
        return read(text)
    except ParameterError as exc:
        return f"ParameterError: {exc}"


def unusual_label_text(labels):
    """A family-less document on a 4-cycle whose edges carry labels."""
    edges = [[0, 1], [0, 2], [1, 3], [2, 3]]
    return json.dumps({
        "family": None, "params": [], "ground": 2,
        "vertices": [[], [1], [2], [1, 2]],
        "edges": [[u, v, lab] for (u, v), lab in zip(edges, labels)]}) + "\n"


def without_family(text):
    """The export text with "family": null, "params": [] in its head."""
    return '{"family": null, "params": []' + text[text.index(', "ground": '):]


class TestParsedReader:
    """A text that is not the exact export of the family it names is parsed
    as one document, whatever its layout."""

    def test_exports_without_family(self):
        for g in family_instances(200):
            bare = without_family(graph_to_json(g))
            assert serialize._family_export(bare) is None
            back = graph_from_json(bare)
            assert back.family is None
            assert (back.masks, back.neighbor_table, back.label_table) == (
                g.masks, g.neighbor_table, g.label_table)

    def test_indented_and_edges_first(self):
        odd3 = build(Family.odd(3))
        data = json.loads(graph_to_json(odd3))
        head = {k: v for k, v in data.items() if k != "edges"}
        assert graph_from_json(json.dumps(data, indent=2)) == odd3
        assert graph_from_json(json.dumps({"edges": data["edges"], **head})) == odd3

    def test_string_labels_holding_row_separators(self):
        text = unusual_label_text(["a], [b", "]", "], [", "[0, 1, 2], [3"])
        assert graph_from_json(text).label_between(0, 1) == "a], [b"

    def test_last_edges_key_wins(self):
        odd3 = graph_to_json(build(Family.odd(3)))
        edges = json.loads(odd3)["edges"]
        twice = odd3.rstrip()[:-1] + ', "edges": ' + json.dumps(edges[1:]) + "}"
        with pytest.raises(ParameterError, match=re.escape(
                "odd(3) has 15 edges, not 14")):
            graph_from_json(twice)
        first = odd3.replace('"edges": [', '"edges": [[0, 1, 2]], "edges": [', 1)
        assert graph_from_json(first) == build(Family.odd(3))


def forbid(monkeypatch, *names):
    """Patch each named serialize function to record its call and refuse;
    the list of calls is returned."""
    calls = []

    def refusing(name):
        def refuse(*args):
            calls.append(name)
            raise ParameterError(f"{name} is not called here")
        return refuse

    for name in names:
        monkeypatch.setattr(serialize, name, refusing(name))
    return calls


class TestExportReader:
    """graph_from_json returns build(family) for graph_to_json's bytes of
    the family a document names, without parsing past the head; any other
    text gives the outcome of the text parsed whole."""

    @staticmethod
    def _same(text):
        got = outcome(graph_from_json, text)
        assert got == outcome(whole_document_graph, text)
        return got

    def test_exports_come_back_as_the_family(self):
        for g in family_instances(200):
            back = self._same(graph_to_json(g))
            assert back == build(g.family)
            assert back is g  # held by the list, so build returns it

    def test_trailing_whitespace(self, fresh_live):
        # only graph_to_json's tail is matched: json.dumps's text, which
        # ends at the brace, and one with more whitespace are parsed whole;
        # the graph is built afresh, so no other test's import is in its memo
        g = build(Family.middle_levels(3))
        text = graph_to_json(g)
        assert text[:-1] == json.dumps(serialize.graph_to_dict(g))
        for changed in (text[:-1], text + " \t\r\n"):
            assert serialize._family_export(changed) is None
            back = self._same(changed)
            assert back is g  # the parse reader returns build(family)
            assert ("json",) not in back.memo
            assert graph_to_json(back) == text

    @pytest.mark.parametrize("tail", ["x", "\f", "\u3000"], ids=repr)
    def test_text_after_the_closing_brace(self, tail):
        # a form feed and an ideographic space are str whitespace, not JSON's
        text = graph_to_json(build(Family.odd(4))) + tail
        assert serialize._family_export(text) is None
        assert self._same(text).startswith("ParameterError: invalid JSON: ")

    def test_changed_ground_digit(self, monkeypatch):
        # the offsets stay aligned, so only the head compare declines it,
        # before the family is built
        text = graph_to_json(build(Family.odd(3)))
        changed = text.replace('"ground": 5', '"ground": 6', 1)
        assert len(changed) == len(text) and changed != text
        calls = forbid(monkeypatch, "build")
        assert serialize._family_export(changed) is None
        assert self._same(changed) == (
            "ParameterError: odd(3) lives on ground [5], not [6]")
        assert calls == []

    @pytest.mark.parametrize("fam, vertex, changed, message", [
        # in the first compared block of vertices
        (Family.odd(5), "[[1, 2, 3, 4], ", "[[1, 2, 3, 5], ", "duplicate vertices"),
        # in the second of odd(7)'s 1716 vertices
        (Family.odd(7), ", [8, 9, 10, 11, 12, 13]]", ", [8, 9, 10, 11, 12, 14]]",
         "malformed graph document: element 14 outside ground [13]"),
    ], ids=["first", "last"])
    def test_changed_vertex_builds_once(self, fam, vertex, changed, message,
                                        monkeypatch):
        # the whole text is matched against the built family's export
        text = graph_to_json(build(fam))
        assert text.count(vertex) == 1
        changed = text.replace(vertex, changed)
        built = []

        def counted(family):
            built.append(family)
            return build(family)

        monkeypatch.setattr(serialize, "build", counted)
        assert serialize._family_export(changed) is None
        assert built == [fam]
        assert self._same(changed) == f"ParameterError: {message}"

    def test_changed_label_in_the_last_block(self):
        g = build(Family.middle_levels(7))  # 3432 rows, edges in four blocks
        text = graph_to_json(g)
        u, v, lab = list(g.edges())[-1]
        assert u >= 3 * serialize._MATCH_ROWS
        assert serialize._family_export(text) is g
        tail = f"[{u}, {v}, {lab}]]}}\n"
        assert text.endswith(tail)
        changed = text[:-len(tail)] + f"[{u}, {v}, {lab % 13 + 1}]]}}\n"
        assert serialize._family_export(changed) is None
        assert self._same(changed) == (
            "ParameterError: an edge label is not the one middle(7) implies")

    @pytest.mark.parametrize("fam", [
        Family.odd(12),
        Family.bipartite_kneser(24, 12),  # 2,704,156 vertices, no edges
    ], ids=str)
    def test_short_text_builds_nothing(self, fam, monkeypatch):
        calls = forbid(monkeypatch, "build")
        text = json.dumps({
            "family": fam.kind, "params": list(fam.params), "ground": fam.ground,
            "vertices": [[e] for e in range(1, fam.ground + 1)], "edges": [],
        }, separators=(", ", ": ")) + "\n"
        assert len(text) < 300
        assert self._same(text) == (
            f"ParameterError: {fam} has {fam.n_vertices} vertices, not {fam.ground}")
        assert calls == []

    def test_padded_head_builds_nothing(self, monkeypatch):
        # 220 vertices of degree 84: padding the exact head to one byte per
        # vertex and per edge is far short of the least export
        fam = Family.kneser(12, 3)
        n_edges = fam.n_vertices * 84 // 2
        head = serialize._head_text(fam, fam.ground)
        text = f'{head}, "vertices": {" " * (fam.n_vertices + n_edges)}'
        assert serialize._least_export_bytes(fam) > len(text)
        calls = forbid(monkeypatch, "build")
        assert self._same(text).startswith("ParameterError: invalid JSON: ")
        assert calls == []

    def test_family_over_the_subset_limit(self, fresh_live, monkeypatch):
        # build returns a held family without listing its subsets, so its
        # export is accepted; a family it must construct is refused by the
        # limit, and the text parsed whole is refused with build's message
        g = build(Family.odd(4))  # 35 vertices
        text = graph_to_json(g)
        monkeypatch.setattr(setcore, "MAX_SUBSETS", 10)
        assert serialize._family_export(text) is g
        fresh_live.clear()
        assert serialize._family_export(text) is None
        assert self._same(text) == (
            "ParameterError: the 35 3-subsets of [7] exceed the limit of 10")


def dict_export(g):
    """The export of g written through graph_to_dict and json.dumps, not
    through graph_to_json."""
    return json.dumps(graph_to_dict(g), separators=(", ", ": ")) + "\n"


EDGES_OPEN, EDGES_CLOSE = '"edges": [[', "]]}\n"


def swap_edge_rows(text, i, j):
    """The text with its edge rows i and j swapped."""
    head, rows = text.split(EDGES_OPEN)
    rows = rows.removesuffix(EDGES_CLOSE).split("], [")
    rows[i], rows[j] = rows[j], rows[i]
    return head + EDGES_OPEN + "], [".join(rows) + EDGES_CLOSE


KEPT_TEXT_FAMILIES = [
    Family.odd(5), Family.middle_levels(4), Family.kneser(7, 3),
    Family.bipartite_kneser(5, 2),
    Family.kneser(5, 3),  # no two 3-subsets of [5] are disjoint: no edges
]


class TestImportKeepsItsText:
    """A text that the export reader accepts is graph_to_json's bytes of
    the graph it gives, so graph_to_json returns that text while the graph
    lives."""

    @pytest.mark.parametrize("fam", KEPT_TEXT_FAMILIES, ids=str)
    def test_reexport_is_the_imported_text(self, fam, fresh_live):
        text = graph_to_json(build(fam))
        assert graph_to_json(graph_from_json(text)) is text

    @pytest.mark.parametrize("fam", KEPT_TEXT_FAMILIES, ids=str)
    def test_kept_text_is_a_fresh_export(self, fam, fresh_live):
        text = dict_export(build(fam))
        g = graph_from_json(text)
        assert g.memo[("json",)] is text
        fresh_live.clear()  # build constructs the family again
        fresh = build(fam)
        assert fresh is not g and ("json",) not in fresh.memo
        assert graph_to_json(fresh) == text

    @pytest.mark.parametrize("tail", ["", "\n\n"], ids=repr)
    def test_other_tail_reexports_the_canonical_text(self, tail, fresh_live):
        text = graph_to_json(build(Family.middle_levels(4)))
        changed = text[:-1] + tail
        g = graph_from_json(changed)
        assert g.family == Family.middle_levels(4)
        assert ("json",) not in g.memo
        assert graph_to_json(g) == text != changed

    def test_swapped_edge_rows_store_nothing(self, fresh_live):
        g = build(Family.odd(5))  # held, so the compare builds this graph
        text = graph_to_json(g)
        changed = swap_edge_rows(text, 3, 4)
        assert changed != text
        assert serialize._family_export(changed) is None
        back = graph_from_json(changed)
        assert back is g  # the parse reader returns build(family)
        assert ("json",) not in g.memo and ("json",) not in back.memo
        assert graph_to_json(back) == graph_to_json(g) == text

    def test_import_into_a_held_graph(self, fresh_live):
        fam = Family.odd(5)
        g = build(fam)
        text = dict_export(g)
        assert graph_from_json(text) is g  # build returns the held graph
        assert g.memo[("json",)] is text
        fresh_live.clear()
        assert graph_to_json(g) == graph_to_json(build(fam))


FUZZ_EXPORTS = [graph_to_json(build(fam)) for fam in (
    Family.odd(3), Family.odd(4), Family.odd(5), Family.middle_levels(2),
    Family.middle_levels(3), Family.middle_levels(4), Family.kneser(6, 2),
    Family.bipartite_kneser(5, 2))]
# mostly the characters an export is made of, so that edits often keep it
# close to valid JSON
FUZZ_CHARS = st.one_of(st.sampled_from('0123456789[], "{}:-.e\n'),
                       st.characters(blacklist_categories=("Cs",)))


@st.composite
def edited_exports(draw):
    """A family's export with one character deleted, inserted or replaced,
    two edge rows swapped, its tail cut off, or junk appended."""
    text = draw(st.sampled_from(FUZZ_EXPORTS))
    edit = draw(st.sampled_from(
        ["delete", "insert", "replace", "swap", "truncate", "append"]))
    at = draw(st.integers(0, len(text) - 1))
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "insert":
        return text[:at] + draw(FUZZ_CHARS) + text[at:]
    if edit == "replace":
        return text[:at] + draw(FUZZ_CHARS) + text[at + 1:]
    if edit == "truncate":
        return text[:at]
    if edit == "append":
        return text + draw(st.text(FUZZ_CHARS, min_size=1, max_size=8))
    last = text.split(EDGES_OPEN)[1].count("], [")
    return swap_edge_rows(text, draw(st.integers(0, last)), draw(st.integers(0, last)))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json-fuzz") / "graph.json"


class TestExportTextFuzz:
    @given(text=edited_exports())
    @example(text=FUZZ_EXPORTS[0])
    @settings(max_examples=100, deadline=None)
    def test_edited_export(self, fuzz_path, text):
        # the export reader gives the whole-document reader's outcome; it
        # accepts exactly the exports, and keeps an accepted text as the
        # graph's export; the command line refuses what both refuse
        # without raising
        TestExportReader._same(text)
        g = serialize._family_export(text)
        assert (g is not None) == (text in FUZZ_EXPORTS)
        assert g is None or graph_to_json(g) is text
        fuzz_path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["export", str(fuzz_path), "--format", "json"])
        assert code in (0, 2)


# any JSON value, kept small
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4)
SMALL_INTS = st.integers(-2, 9)


# plausible values under each key: mostly well typed, often out of range
PLAUSIBLE = {
    "family": st.sampled_from(
        [None, "odd", "middle", "kneser", "bikneser", "petersen"]),
    "params": st.lists(SMALL_INTS, max_size=3),
    "ground": SMALL_INTS,
    "vertices": st.one_of(
        st.sets(st.integers(0, 63), max_size=6).map(
            lambda masks: [Block(x, 6).elements() for x in sorted(masks)]),
        st.lists(st.lists(SMALL_INTS, max_size=3), max_size=6)),
    "edges": st.lists(st.one_of(
        st.tuples(SMALL_INTS, SMALL_INTS, st.one_of(SMALL_INTS, JSON_SCALARS)).map(list),
        st.lists(st.one_of(SMALL_INTS, JSON_SCALARS), max_size=4)), max_size=6),
}


@st.composite
def random_documents(draw):
    """The JSON text of a document not made from an export: a plausible
    family, params list, ground, vertex list and edge list under the five
    keys, with up to two keys dropped or given a random value; or a random
    value for the whole document."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(JSON_VALUES))
    data = {key: draw(PLAUSIBLE[key]) for key in FIELDS}
    for key in draw(st.lists(st.sampled_from(FIELDS), max_size=2, unique=True)):
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(JSON_VALUES)
    return json.dumps(data)


class TestRandomJsonFuzz:
    @given(text=random_documents())
    @settings(max_examples=100, deadline=None)
    def test_refused_with_parameter_error_or_read(self, fuzz_path, text):
        with contextlib.suppress(ParameterError):
            graph_from_json(text)
        fuzz_path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["export", str(fuzz_path), "--format", "json"])
        assert code in (0, 2)


def import_peak_share(text):
    """The traced peak of graph_from_json(text) over that of json.loads of
    the same text, and the graph it returns."""
    tracemalloc.start()
    try:
        json.loads(text)
        document_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g = graph_from_json(text)
        import_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return import_peak / document_peak, g


class TestImportMemory:
    def test_peak_stays_near_the_parsed_document(self):
        # a family's own export is compared with the rebuilt family, a
        # block of rows at a time, and nothing past its head is parsed
        for n in (8, 9):
            share, g = import_peak_share(graph_to_json(build(Family.odd(n))))
            assert g.family == Family.odd(n)
            assert share < 0.9, n

    def test_parsed_document_dies_before_the_rows(self):
        # a text with no family is parsed whole: the endpoints are mapped
        # to shared index ints and the document is dropped before the
        # neighbour rows are made.  This read 1.30 on odd(8); keeping the
        # document alive through the rows read 1.68
        export = graph_to_json(build(Family.odd(8)))
        share, g = import_peak_share(without_family(export))
        assert g.family is None and g.n_vertices == Family.odd(8).n_vertices
        assert share <= 1.4

    def test_family_built_after_the_rows(self, fresh_live):
        # a text that names a family but is not its export is parsed whole,
        # and the family is built only after the rows are made.  This read
        # 1.34 on odd(8); building the family before the parse and holding
        # it through the parse read 1.70
        changed = swap_edge_rows(graph_to_json(build(Family.odd(8))), 3, 4)
        assert not fresh_live  # nothing holds odd(8)
        share, g = import_peak_share(changed)
        assert g.family == Family.odd(8)
        assert share <= 1.4


class TestExportMemory:
    def test_peak_stays_near_the_text(self):
        # the edge text is written in blocks of rows, three pieces per
        # edge, and every piece is joined once: this reads 2.10, six
        # pieces per edge read 2.34, and one list of six pieces per edge
        # for the whole graph 5.17
        g = build(Family.odd(9))
        tracemalloc.start()
        try:
            text = graph_to_json(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 2753647
        assert peak < 2.3 * len(text)


class TestNoBlockMade:
    def test_build_delete_export_import(self, monkeypatch):
        # the construct path reads masks and row tables only: no Block is
        # made; the vertices view, read afterwards, checks each Block it
        # makes
        made = []
        checked = Block.__post_init__
        s = Block.from_elements([2, 5], 9)

        def count_checked(self):
            made.append(self)
            checked(self)

        monkeypatch.setattr(Block, "__post_init__", count_checked)
        g = build(Family.middle_levels(5))
        d = delete_colors(g, s)
        back = graph_from_json(graph_to_json(g))
        assert graph_to_json(back) == graph_to_json(g)
        assert made == []
        assert "vertices" not in vars(d) and "vertices" not in vars(back)
        assert len(d.vertices) == 252 and made == list(d.vertices)


def sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedExport:
    """Export bytes pinned from the object-by-object writer that preceded
    the mask-based one: (length, SHA-256 prefix)."""

    @pytest.mark.parametrize("fam, length, digest", [
        (Family.odd(6), 28728, "7abbb4e6518cc971"),
        (Family.middle_levels(5), 12880, "df9b58959f45fbe0"),
        (Family.kneser(7, 3), 1542, "b75d7d4dccf4809c"),
        (Family.bipartite_kneser(7, 2), 3864, "066149988745df1a"),
        # several edge and compare blocks
        (Family.odd(8), 605091, "7f0e2ecd692154c9"),
        (Family.middle_levels(7), 280857, "cc13bb3f7748dbaa"),
        # neighbours that differ in several elements, picked by complement
        (Family.kneser(10, 3), 35385, "18ca1ec2fdf7c3e7"),
        (Family.bipartite_kneser(9, 3), 30723, "3b3ecf4d79f3e161"),
    ], ids=str)
    def test_json(self, fam, length, digest):
        text = graph_to_json(build(fam))
        assert (len(text), sha16(text)) == (length, digest)

    def test_vertex_text_across_slice_boundaries(self):
        # elements on each side of every 10-bit slice of a mask over [63]
        sides = [e for edge in range(10, 63, 10) for e in (edge, edge + 1)]
        lists = [[e] for e in (1, *sides, 63)] + [sides, list(range(1, 64))]
        g = graph_from_edges(63, [Block.from_elements(x, 63) for x in lists], [])
        lists.sort(key=lambda x: sum(1 << (e - 1) for e in x))
        assert graph_to_json(g) == (
            '{"family": null, "params": [], "ground": 63, "vertices": '
            + json.dumps(lists) + ', "edges": []}\n')

    def test_dot_and_edge_csv(self, odd4):
        dot, csv = graph_to_dot(odd4), graph_to_edge_csv(odd4)
        assert (len(dot), sha16(dot)) == (2643, "ef497ee04a001eba")
        assert (len(csv), sha16(csv)) == (530, "c0e39536fd1ba266")

    def test_text_is_the_dict_document(self, odd3):
        deleted = delete_colors(odd3, [4, 5])
        pieces = [deleted.subgraph(ixs) for ixs in deleted.component_sets]
        unusual_labels = graph_from_edges(
            4, [Block(3, 4), Block(0, 4), Block(8, 4)],
            [(2, 0, "x"), (1, 2, True), (0, 1, 2.5)],
        )
        for g in family_instances(200) + pieces + [unusual_labels]:
            assert graph_to_json(g) == dict_export(g)


class TestFamilyClaim:
    """A document that names a family must hold that family's graph."""

    FOUND = ('{"family": "odd", "params": [2], "ground": 3,'
             ' "vertices": [[1], [2]], "edges": [[0, 1, 7]]}')

    def test_contradicting_document_rejected(self):
        with pytest.raises(ParameterError, match="vertices"):
            graph_from_json(self.FOUND)

    @staticmethod
    def _doc(fam):
        return json.loads(graph_to_json(build(fam)))

    @staticmethod
    def _rejects(data, match):
        with pytest.raises(ParameterError, match=match):
            graph_from_json(json.dumps(data))

    def test_ground(self):
        data = self._doc(Family.odd(3))
        data["ground"] = 6
        self._rejects(data, "ground")

    def test_vertex_count(self):
        data = self._doc(Family.kneser(5, 2))
        data["vertices"].pop()  # {4,5} is last and has no edges above it
        data["edges"] = [e for e in data["edges"] if 9 not in e[:2]]
        self._rejects(data, "vertices")

    def test_block_size(self):
        data = self._doc(Family.kneser(5, 2))
        data["vertices"][-1] = [1, 2, 3, 4, 5]  # still last in colex order
        self._rejects(data, "vertices")

    def test_non_adjacent_edge(self):
        data = self._doc(Family.odd(3))
        v = data["vertices"]
        # {1,2} and {1,3} intersect; the pair is no edge of the document
        data["edges"][0][:2] = [v.index([1, 2]), v.index([1, 3])]
        self._rejects(data, "the edges at vertex 0 are not those of odd")
        data = self._doc(Family.middle_levels(3))
        v = data["vertices"]
        # neither of {1,2} and {1,3,4} contains the other
        data["edges"][0][:2] = [v.index([1, 2]), v.index([1, 3, 4])]
        self._rejects(data, "the edges at vertex 0 are not those of middle")

    @pytest.mark.parametrize("label", [None, 1, 1.0, 99])
    def test_wrong_label(self, label):
        data = self._doc(Family.odd(3))
        if data["edges"][0][2] == label:
            label = 2
        data["edges"][0][2] = label
        self._rejects(data, "label")

    def test_label_on_unlabeled_family(self):
        data = self._doc(Family.kneser(5, 2))
        data["edges"][0][2] = 1
        self._rejects(data, "label")

    def test_edge_count(self):
        data = self._doc(Family.bipartite_kneser(5, 1))
        data["edges"].pop()
        self._rejects(data, "edges")

    def test_family_instances_accepted(self):
        # each export, and its document with the edge list reversed and no
        # closing newline, which the parse reader reads: both give the
        # instance build returns, held by the list
        for g in family_instances(200):
            text = graph_to_json(g)
            assert graph_from_json(text) == g
            data = json.loads(text)
            data["edges"].reverse()
            back = graph_from_json(json.dumps(data))
            assert back == build(g.family) and back is g

    @pytest.mark.parametrize("value, same", [(5, 5.0), (1, True)], ids=repr)
    def test_label_of_another_type(self, value, same):
        # equal to the implied label, so only the int test refuses it
        data = self._doc(Family.odd(3))
        edge = next(e for e in data["edges"] if e[2] == value)
        edge[2] = same
        self._rejects(data, "label")

    def test_vertex_count_before_the_build(self, monkeypatch):
        fam = Family.odd(12)
        calls = forbid(monkeypatch, "build")
        data = {"family": "odd", "params": [12], "ground": 23,
                "vertices": [[1]], "edges": []}
        self._rejects(data, re.escape(f"{fam} has {fam.n_vertices} vertices, not 1"))
        assert calls == []


class TestDot:
    def test_well_formed(self, odd3):
        text = graph_to_dot(odd3)
        assert text.startswith('graph "odd_3" {')
        assert text.rstrip().endswith("}")
        node_lines = re.findall(r'^  "[0-9-]+";$', text, flags=re.M)
        edge_lines = re.findall(
            r'^  "[0-9-]+" -- "[0-9-]+" \[label=\d+\];$', text, flags=re.M
        )
        assert len(node_lines) == 10
        assert len(edge_lines) == 15

    def test_unlabeled_edges_have_no_attribute(self):
        g = build(Family.kneser(4, 1))
        text = graph_to_dot(g)
        assert "label=" not in text

    def test_each_vertex_named_once(self, odd4, monkeypatch):
        named = []
        node_name = serialize._node_name

        def counted(v):
            named.append(v)
            return node_name(v)

        monkeypatch.setattr(serialize, "_node_name", counted)
        graph_to_dot(odd4)
        assert named == list(odd4.vertices)

    def test_empty_block_named_zero(self):
        g = build(Family.middle_levels(1))
        text = graph_to_dot(g)
        assert '"0" -- "1"' in text


class TestCsv:
    def test_header_and_rows(self, odd3):
        lines = graph_to_edge_csv(odd3).strip().split("\n")
        assert lines[0] == "u,v,label"
        assert len(lines) == 16
        u, v, lab = lines[1].split(",")
        assert int(u) < int(v)
        assert lab.isdigit()

    def test_unlabeled_leaves_column_empty(self):
        g = build(Family.kneser(4, 1))
        lines = graph_to_edge_csv(g).strip().split("\n")
        assert all(line.endswith(",") for line in lines[1:])


class TestRender:
    def test_unknown_format_rejected(self, odd3):
        with pytest.raises(ParameterError):
            render(odd3, "yaml")
