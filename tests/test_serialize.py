"""JSON, DOT and CSV serialization; round-trip fidelity."""

import hashlib
import json
import re
import tracemalloc

import pytest

from kneserlab.decompose import delete_colors
from kneserlab.errors import ParameterError
from kneserlab.graphs import Family, build
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
    ], ids=["duplicate-edge", "self-loop", "order", "duplicate-vertex",
            "float-element", "zero-element", "ground-0", "bool-ground",
            "bool-element", "bool-endpoint", "float-endpoint", "bool-param"])
    def test_structural_faults_rejected(self, fields, match):
        with pytest.raises(ParameterError, match=match):
            graph_from_json(self._doc(**fields))

    def test_repeated_element_read_as_one(self):
        # as Block.from_elements reads it: [2, 2] is the block {2}
        g = graph_from_json(self._doc(vertices=[[1], [2, 2]]))
        assert [v.elements() for v in g.vertices] == [(1,), (2,)]

    def test_family_less_graph_round_trips(self, odd3):
        from kneserlab.decompose import delete_colors
        from kneserlab.graphs import components

        piece = components(delete_colors(odd3, [4, 5]))[0]
        assert piece.family is None
        text = graph_to_json(piece)
        back = graph_from_json(text)
        assert back == piece
        assert graph_to_json(back) == text


class TestImportMemory:
    def test_peak_stays_near_the_parsed_document(self):
        # the parsed document is freed before the rows are built, so the
        # import peaks well under twice the document alone
        text = graph_to_json(build(Family.odd(8)))
        tracemalloc.start()
        try:
            json.loads(text)
            document_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            g = graph_from_json(text)
            import_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_vertices == 6435
        assert import_peak < 2 * document_peak


class TestNoBlockMade:
    def test_build_delete_export_import(self, monkeypatch):
        # the construct path reads masks and row tables only: no Block is
        # made, neither checked nor trusted
        made = []
        trusted, checked = Block._trusted.__func__, Block.__post_init__
        s = Block.from_elements([2, 5], 9)

        def count_trusted(cls, masks, m):
            made.append("trusted")
            return trusted(cls, masks, m)

        def count_checked(self):
            made.append("checked")
            checked(self)

        monkeypatch.setattr(Block, "_trusted", classmethod(count_trusted))
        monkeypatch.setattr(Block, "__post_init__", count_checked)
        g = build(Family.middle_levels(5))
        d = delete_colors(g, s)
        back = graph_from_json(graph_to_json(g))
        assert graph_to_json(back) == graph_to_json(g)
        assert made == []
        assert "vertices" not in vars(d) and "vertices" not in vars(back)
        assert len(d.vertices) == 252 and made == ["trusted"]


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
    ], ids=str)
    def test_json(self, fam, length, digest):
        text = graph_to_json(build(fam))
        assert (len(text), sha16(text)) == (length, digest)

    def test_dot_and_edge_csv(self, odd4):
        dot, csv = graph_to_dot(odd4), graph_to_edge_csv(odd4)
        assert (len(dot), sha16(dot)) == (2643, "ef497ee04a001eba")
        assert (len(csv), sha16(csv)) == (530, "c0e39536fd1ba266")

    def test_text_is_the_dict_document(self, odd3):
        from kneserlab.decompose import delete_colors
        from kneserlab.graphs import components, graph_from_edges

        pieces = components(delete_colors(odd3, [4, 5]))
        unusual_labels = graph_from_edges(
            4, [Block(3, 4), Block(0, 4), Block(8, 4)],
            [(2, 0, "x"), (1, 2, True), (0, 1, 2.5)],
        )
        for g in family_instances(200) + pieces + [unusual_labels]:
            want = json.dumps(graph_to_dict(g), separators=(", ", ": ")) + "\n"
            assert graph_to_json(g) == want


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
        self._rejects(data, "sizes")

    def test_non_adjacent_edge(self):
        data = self._doc(Family.odd(3))
        v = data["vertices"]
        # {1,2} and {1,3} intersect; the pair is no edge of the document
        data["edges"][0][:2] = [v.index([1, 2]), v.index([1, 3])]
        self._rejects(data, "intersecting")
        data = self._doc(Family.middle_levels(3))
        v = data["vertices"]
        # neither of {1,2} and {1,3,4} contains the other
        data["edges"][0][:2] = [v.index([1, 2]), v.index([1, 3, 4])]
        self._rejects(data, "contains")

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
        for g in family_instances(200):
            assert graph_from_json(graph_to_json(g)) == g


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
