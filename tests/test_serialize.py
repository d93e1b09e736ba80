"""JSON, DOT and CSV serialization; round-trip fidelity."""

import json
import re

import pytest

from kneserlab.errors import ParameterError
from kneserlab.graphs import Family, build
from kneserlab.serialize import (
    graph_from_json,
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
        ]:
            with pytest.raises(ParameterError):
                graph_from_json(text)

    def test_family_less_graph_round_trips(self, odd3):
        from kneserlab.decompose import delete_colors
        from kneserlab.graphs import components

        piece = components(delete_colors(odd3, [4, 5]))[0]
        assert piece.family is None
        text = graph_to_json(piece)
        back = graph_from_json(text)
        assert back == piece
        assert graph_to_json(back) == text


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
