"""Two-color paths, component meta-graphs, bottom-level structure."""

import pytest

from kneserlab.decompose import block_component, canonical_colors
from kneserlab.errors import DegenerateCaseError, ParameterError
from kneserlab.graphs import Family, build, girth
from kneserlab.morphisms import find_isomorphism
from kneserlab.setcore import Block, apply_perm, Perm, binomial
from kneserlab.superstructure import (
    bottom_level,
    build_l,
    build_m,
    middle_components,
    two_color_path,
)

b = Block.from_elements


def all_two_step_paths(g, start, end):
    """Oracle: every middle vertex completing start -> x -> end."""
    si, ei = g.index_of(start), g.index_of(end)
    return [
        g.vertices[x]
        for x in g.neighbors(si)
        if g.has_edge(x, ei)
    ]


class TestTwoColorPath:
    def test_example_against_brute_force(self, odd3):
        v = b([1, 2], 5)
        path = two_color_path(odd3, v, 1, 3)
        w = path.blocks()[-1]
        assert w == apply_perm(Perm.transposition(5, 1, 3), v)
        middles = all_two_step_paths(odd3, v, w)
        assert path.blocks()[1] in middles
        assert sorted(path.labels) == [1, 3]

    def test_both_absent_degenerate(self, odd3):
        with pytest.raises(DegenerateCaseError):
            two_color_path(odd3, b([1, 2], 5), 4, 5)

    def test_both_present_degenerate(self, odd3):
        with pytest.raises(DegenerateCaseError):
            two_color_path(odd3, b([1, 2], 5), 1, 2)

    def test_larger_case(self, odd4):
        path = two_color_path(odd4, b([1, 2, 3], 7), 3, 7)
        assert path.blocks()[-1] == b([1, 2, 7], 7)
        assert sorted(path.labels) == [3, 7]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_vertex_and_color_pair(self, n):
        # labels run (outside, inside) and the middle vertex is the
        # complement of v | w, for every v and every a < b split by v
        g = build(Family.odd(n))
        m = 2 * n - 1
        paths = 0
        for v in g.vertices:
            for a in range(1, m + 1):
                for c in range(a + 1, m + 1):
                    if (a in v) == (c in v):
                        continue
                    inside, outside = (a, c) if a in v else (c, a)
                    path = two_color_path(g, v, a, c)
                    first, mid, w = path.blocks()
                    assert first == v
                    assert w == v - b([inside], m) | b([outside], m)
                    assert mid == (v | w).complement()
                    assert path.labels == (outside, inside)
                    paths += 1
        assert paths == g.n_vertices * (n - 1) * n

    def test_vertex_over_another_ground_rejected(self, odd3):
        v = b([1, 2], 5)
        with pytest.raises(ParameterError):
            two_color_path(odd3, Block(v.bits, 7), 1, 3)
        with pytest.raises(ParameterError):
            odd3.index_of(Block(v.bits, 7))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_middle_vertex_lies_in_top_remainder(self, n):
        # with the two canonical colors, the connector's middle vertex
        # avoids both, landing in the empty-trace class
        g = build(Family.odd(n))
        colors = canonical_colors(n, 2)
        a, c = colors.elements()
        piece = block_component(n, colors, Block.empty(2 * n - 1))
        remainder = set(piece.graph.vertices)
        hits = 0
        for v in g.vertices:
            if (a in v) == (c in v):
                continue
            mid = two_color_path(g, v, a, c).blocks()[1]
            assert mid in remainder
            hits += 1
        assert hits > 0


class TestMiddleComponents:
    def test_ids_examples(self):
        ids44 = middle_components(4, 4)
        assert [c.label.elements() for c in ids44] == [(1,), (2,), (3,)]
        ids32 = middle_components(3, 2)
        assert [c.label.elements() for c in ids32] == [()]
        ids66 = middle_components(6, 6)
        assert len(ids66) == 10
        assert all(c.label.card == 2 for c in ids66)

    def test_bijective_with_subsets(self):
        ids = middle_components(6, 6)
        labels = {c.label for c in ids}
        assert len(labels) == binomial(5, 2)

    def test_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            middle_components(4, 3)


class TestMetaGraphs:
    def test_triangle_cases(self):
        for n in (4, 5):
            sg = build_m(n, 4)
            assert sg.graph.n_vertices == 3
            assert sg.graph.n_edges == 3
            assert sg.iso.verified
            assert sg.criteria_agree

    def test_petersen_case(self):
        sg = build_m(6, 6)
        assert sg.graph.n_vertices == 10
        assert sg.graph.n_edges == 15
        assert girth(sg.graph) == 5
        assert sg.iso.verified
        assert sg.criteria_agree

    def test_m_is_independent_of_n(self):
        a = build_m(4, 4).graph
        c = build_m(5, 4).graph
        iso = find_isomorphism(a, c)
        assert iso is not None and iso.verified

    def test_l_cases(self):
        sg = build_l(4, 2)
        assert sg.graph.n_vertices == 2 and sg.graph.n_edges == 1
        assert sg.iso.verified and sg.criteria_agree
        for n in (5, 6):
            sg = build_l(n, 4)
            assert sg.graph.n_vertices == 6 and sg.graph.n_edges == 6
            assert sg.iso.verified and sg.criteria_agree

    def test_l_is_independent_of_n(self):
        a = build_l(5, 4).graph
        c = build_l(6, 4).graph
        assert find_isomorphism(a, c) is not None


class TestBottomLevel:
    @pytest.mark.parametrize(
        "n,far,copies,target_super",
        [
            (2, 2, 1, 1),
            (3, 6, 1, 1),
            (4, 18, 3, 2),
            (5, 60, 3, 2),
            (6, 200, 10, 3),
        ],
    )
    def test_census_and_meta(self, n, far, copies, target_super):
        v = b(list(range(1, n)), 2 * n - 1)
        bl = bottom_level(n, v)
        assert bl.census.ok, bl.census.failures[:3]
        assert bl.census.details["far_vertices"] == far
        assert bl.census.details["components"] == copies
        assert bl.superstructure.target == Family.odd(target_super)
        assert bl.superstructure.iso.verified

    def test_closed_form_count(self):
        for n in (2, 3, 4, 5, 6):
            v = b(list(range(1, n)), 2 * n - 1)
            bl = bottom_level(n, v)
            want = binomial(2 * (n // 2) - 1, n // 2 - 1)
            assert bl.census.details["components"] == want

    def test_independent_of_base_vertex(self, odd4):
        results = set()
        for v in [odd4.vertices[0], odd4.vertices[7], odd4.vertices[-1]]:
            bl = bottom_level(4, v)
            assert bl.census.ok
            results.add(
                (bl.census.details["far_vertices"],
                 bl.census.details["components"])
            )
        assert len(results) == 1
