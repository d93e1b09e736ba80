"""Two-color paths, component meta-graphs, bottom-level structure."""

import hashlib
from itertools import combinations

import pytest

from kneserlab.decompose import block_component, canonical_colors
from kneserlab.errors import DegenerateCaseError, ParameterError
from kneserlab.graphs import MIDDLE_LEVELS, ODD, Family, build, girth
from kneserlab.morphisms import find_isomorphism
from kneserlab.setcore import Block, binomial
from kneserlab import superstructure
from kneserlab.superstructure import (
    bottom_level,
    build_l,
    build_m,
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
        assert w == b([2, 3], 5)  # v with the colors 1 and 3 swapped
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
        remainder = set(piece.vertices)
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
        labels44 = build_m(4, 4).graph.vertices
        assert [v.elements() for v in labels44] == [(1,), (2,), (3,)]
        labels32 = build_m(3, 2).graph.vertices
        assert [v.elements() for v in labels32] == [()]
        labels66 = build_m(6, 6).graph.vertices
        assert len(labels66) == 10
        assert all(v.card == 2 for v in labels66)

    def test_bijective_with_subsets(self):
        labels = set(build_m(6, 6).graph.vertices)
        assert len(labels) == binomial(5, 2)

    def test_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            build_m(4, 3)

    @pytest.mark.parametrize("kind,max_n", [(ODD, 5), (MIDDLE_LEVELS, 4)])
    def test_halves_match_the_partitions(self, kind, max_n):
        # for every nonempty even S, the halves read off the components
        # are the k/2-subsets of S: those holding d for an odd graph, all
        # of them for a middle levels graph
        sets = 0
        for n in range(2, max_n + 1):
            m = 2 * n - 1
            for k in range(2, m, 2):
                for chosen in combinations(range(1, m + 1), k):
                    s = b(chosen, m)
                    d = chosen[0]
                    want = sorted(
                        b(t, m).bits for t in combinations(chosen, k // 2)
                        if kind == MIDDLE_LEVELS or d in t
                    )
                    got = superstructure._component_halves(n, s, kind)
                    assert sorted(got) == want
                    sets += 1
        assert sets == {ODD: 336, MIDDLE_LEVELS: 81}[kind]


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


def _super_facts(sg):
    g = sg.graph
    return (g.ground, g.masks, g.neighbor_table, g.label_table, str(sg.target),
            sg.criteria_agree, sg.iso.images, sg.iso.verified, sg.iso.name)


def _meta_facts():
    """Every output of build_m and build_l for n <= 6 and k in -1..2n,
    errors included, and of bottom_level at four vertices of odd(n) for
    n = 2..6."""
    facts = []
    for n in range(1, 7):
        for k in range(-1, 2 * n + 1):
            for builder in (build_m, build_l):
                try:
                    fact = _super_facts(builder(n, k))
                except ParameterError as exc:
                    fact = (type(exc).__name__, str(exc))
                facts.append((builder.__name__, n, k, fact))
    for n in range(2, 7):
        vertices = build(Family.odd(n)).vertices
        nv = len(vertices)
        for i in sorted({0, nv // 3, 2 * nv // 3, nv - 1}):
            bl = bottom_level(n, vertices[i])
            c = bl.census
            fact = (c.name, c.ok, sorted(c.details.items()), c.failures,
                    _super_facts(bl.superstructure))
            facts.append(("bottom_level", n, vertices[i].bits, fact))
    return facts


def test_meta_graph_pin():
    # digest of the graphs, maps, flags, censuses and error messages; it
    # was taken from the earlier Block-based meta-graph code
    facts = _meta_facts()
    assert len(facts) == 127
    assert hashlib.sha256(repr(facts).encode()).hexdigest()[:16] == "62510332d163603f"
