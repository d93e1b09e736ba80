"""Color-deletion subgraphs, block components, censuses, remainders."""

import weakref
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserlab import decompose as dec
from kneserlab.decompose import (
    ISOLATED,
    block_component,
    canonical_colors,
    classify_components,
    delete_colors,
    expected_census,
    regular_component_partitions,
    remainder_graph,
    shared_deletion,
    trace_classes,
    verify_disjointness,
)
from kneserlab.errors import ParameterError, UnlabeledGraphError
from kneserlab.graphs import (
    Family,
    LabeledGraph,
    build,
    degree_profile,
    degree_signature,
    girth,
    graph_from_edges,
    holding_families,
)
from kneserlab.morphisms import middle_class_to_middle, middle_component_census
from kneserlab.setcore import Block, binomial

b = Block.from_elements


class TestDeleteColors:
    def test_edge_counts(self, odd3):
        d = delete_colors(odd3, [4, 5])
        assert d.n_vertices == 10
        assert d.n_edges == 9  # 15 minus 3 edges per deleted color

    def test_empty_deletion_is_identity(self, odd3):
        d = delete_colors(odd3, [])
        assert d.n_edges == odd3.n_edges
        assert list(d.edges()) == list(odd3.edges())

    def test_all_colors_leaves_edgeless(self, middle2):
        d = delete_colors(middle2, [1, 2, 3])
        assert d.n_vertices == 6
        assert d.n_edges == 0

    def test_unlabeled_rejected(self):
        g = build(Family.kneser(5, 2))
        with pytest.raises(UnlabeledGraphError):
            delete_colors(g, [1])

    def test_deleting_composes_as_union(self, odd4):
        # removing S then T equals removing S | T
        s, t = [6, 7], [5, 6]
        once = delete_colors(odd4, set(s) | set(t))
        twice = delete_colors(delete_colors(odd4, s), t)
        assert list(once.edges()) == list(twice.edges())

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_deleting_composes_randomized(self, odd4, data):
        universe = list(range(1, 8))
        s = data.draw(st.sets(st.sampled_from(universe), max_size=4))
        t = data.draw(st.sets(st.sampled_from(universe), max_size=4))
        once = delete_colors(odd4, s | t)
        twice = delete_colors(delete_colors(odd4, s), t)
        assert list(once.edges()) == list(twice.edges())

    @staticmethod
    def _check_against_edge_filter(g, s):
        d = delete_colors(g, s)
        want = [e for e in g.edges() if e[2] not in s]
        assert list(d.edges()) == want
        # both ends of every kept edge, as an independent build has them
        ref = graph_from_edges(g.ground, g.vertices, want, labeled=True)
        assert d.neighbor_table == ref.neighbor_table
        assert d.label_table == ref.label_table
        assert d.masks == g.masks and d.labeled and d.family is None

    @pytest.mark.parametrize("name", ["odd5", "middle4"])
    def test_every_two_colors_matches_edge_filter(self, name, request):
        g = request.getfixturevalue(name)
        for s in combinations(range(1, g.ground + 1), 2):
            self._check_against_edge_filter(g, set(s))

    @given(st.sets(st.integers(1, 7)))
    @settings(max_examples=25, deadline=None)
    def test_matches_edge_filter_randomized(self, odd4, s):
        self._check_against_edge_filter(odd4, s)


class TestDeletedSubgraph:
    """A class piece is cut from the color-deleted graph: deleting then
    cutting gives what cutting then deleting gives."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_two_step_cut_for_every_class(self, n):
        g = build(Family.odd(n))
        for k in range(n + 1):
            s = canonical_colors(n, k)
            classes = trace_classes(g, s)
            for i in range(k + 1):
                for combo in combinations(s.elements(), i):
                    t = b(combo, 2 * n - 1)
                    members = classes.get(t.bits, [])
                    if t != s - t:  # S empty: T = S - T, one class listed once
                        members = members + classes.get((s - t).bits, [])
                    assert block_component(n, s, t) == delete_colors(
                        g.subgraph(members), s)

    def test_middle_class_matches_two_step_cut(self, middle4):
        for k in (2, 4):
            s = canonical_colors(4, k)
            classes = trace_classes(middle4, s)
            for combo in combinations(s.elements(), k // 2):
                t = b(combo, 7)
                assert middle_class_to_middle(4, s, t).source == delete_colors(
                    middle4.subgraph(classes[t.bits]), s)

    def test_color_outside_ground_rejected(self, odd3):
        with pytest.raises(ParameterError):
            delete_colors(odd3, [6])
        with pytest.raises(ParameterError):
            delete_colors(odd3, b([1], 7))

    @pytest.mark.parametrize("indices", [[0, 0, 5], [-1, 2], [0, 99], [0, True],
                                         [0, 1.0], [0, "1"]])
    def test_bad_vertex_indices_rejected(self, odd3, indices):
        # a repeated index would make rows that are not symmetric, and a
        # list lookup would read -1 as the last vertex
        with pytest.raises(ParameterError, match="distinct vertex indices"):
            odd3.subgraph(indices)


class TestGraphMemo:
    def test_public_deletion_stores_nothing(self, odd4):
        g = delete_colors(odd4, [])  # a fresh graph with an empty memo
        for colors in ([], [7], [5, 6, 7]):
            delete_colors(g, colors)
        assert g.memo == {}
        shared = shared_deletion(g, [6, 7])
        assert shared == delete_colors(g, [6, 7])
        assert shared_deletion(g, b([6, 7], 7)) is shared
        assert list(g.memo) == [("deleted", b([6, 7], 7).bits)]

    def test_repeated_piece_in_a_hold_is_cut_once(self, fresh_live, monkeypatch):
        cuts = []
        cut = LabeledGraph.subgraph
        monkeypatch.setattr(LabeledGraph, "subgraph",
                            lambda *args: cuts.append(args) or cut(*args))
        with holding_families():
            first = block_component(6, [8, 9, 10, 11], [8, 11])
            assert block_component(6, b([8, 9, 10, 11], 11), [11, 8]) is first
            other = block_component(6, [8, 9, 10, 11], [9, 10])
        assert len(cuts) == 1  # {8, 11} and {9, 10} name one class
        assert other is first

    def test_memo_entries_freed_with_their_graph(self):
        g = build(Family.odd(7))
        refs = [weakref.ref(block_component(7, [12, 13], [12])),
                weakref.ref(shared_deletion(g, [12, 13]))]
        assert all(ref() is not None for ref in refs)
        del g
        assert [ref() for ref in refs] == [None, None]


class TestBlockComponent:
    def test_regular_piece_is_hexagon(self):
        piece = block_component(3, [4, 5], [4])
        assert piece.n_vertices == 6
        assert degree_profile(piece) == ("regular", 2)
        assert girth(piece) == 6

    def test_empty_t_is_star(self):
        piece = block_component(3, [4, 5], [])
        assert piece.n_vertices == 4
        assert degree_profile(piece) == ("biregular", 3, 1)

    def test_full_deletion_single_vertex(self):
        piece = block_component(3, [3, 4, 5], [])
        assert piece.n_vertices == 1
        assert piece.vertices[0] == b([1, 2], 5)
        # no vertex of odd(3) holds all of S, so the piece has one side
        classes = trace_classes(build(Family.odd(3)), [3, 4, 5])
        assert b([3, 4, 5], 5).bits not in classes

    def test_cut_reads_no_degrees(self, fresh_live, monkeypatch):
        # a piece is the cut graph itself, kept in odd(5)'s memo: no degree
        # census is taken at the cut
        calls = []
        profile = dec.degree_profile
        monkeypatch.setattr(dec, "degree_profile",
                            lambda g: calls.append(g) or profile(g))
        g = build(Family.odd(5))
        s = canonical_colors(5, 4)
        for i in range(3):
            for combo in combinations(s.elements(), i):
                t = b(combo, 9)
                piece = block_component(5, s, t)
                assert type(piece) is LabeledGraph
                assert g.memo[("piece", s.bits, min(t.bits, (s - t).bits))] is piece
        assert calls == []

    def test_t_outside_s_rejected(self):
        with pytest.raises(ParameterError):
            block_component(3, [4, 5], [1])

    @pytest.mark.parametrize("n,k,i", [(4, 2, 1), (5, 3, 1), (5, 4, 2), (6, 4, 1)])
    def test_biregular_signature_formula(self, n, k, i):
        s = canonical_colors(n, k)
        t = b(s.elements()[:i], 2 * n - 1)
        piece = block_component(n, s, t)
        want = (n - i, n - k + i)
        if want[0] == want[1]:
            assert degree_profile(piece) == ("regular", want[0])
        else:
            assert degree_profile(piece) == ("biregular", max(want), min(want))

    @pytest.mark.parametrize("n,colors,t", [
        (4, [5, 6, 7], [6]), (4, [1, 3], [3]), (5, [2, 4, 6, 8], [2, 8]),
        (5, [9], []), (3, [], []), (3, [3, 4, 5], [3, 4, 5]),
    ])
    def test_matches_whole_graph_deletion(self, n, colors, t):
        # reference: delete from the whole graph, then take the class
        g = build(Family.odd(n))
        s, tb = b(colors, 2 * n - 1), b(t, 2 * n - 1)
        members = [i for i, v in enumerate(g.vertices) if v & s in (tb, s - tb)]
        piece = block_component(n, s, tb)
        assert piece == delete_colors(g, s).subgraph(members)
        classes = trace_classes(g, s)
        for side in (tb, s - tb):
            assert classes.get(side.bits, []) == [
                i for i, v in enumerate(g.vertices) if v & s == side]

    def test_class_union_covers_vertex_set(self, odd4):
        # every vertex lies in exactly one partition-class piece
        s = canonical_colors(4, 3)
        seen = {}
        for i in range(4):
            for combo in combinations(s.elements(), i):
                t = b(combo, 7)
                piece = block_component(4, s, t)
                for v in piece.vertices:
                    seen.setdefault(v, set()).add(
                        frozenset((t.bits, (s - t).bits))
                    )
        assert set(seen) == set(odd4.vertices)
        assert all(len(classes) == 1 for classes in seen.values())


class TestTraceClasses:
    @pytest.mark.parametrize("fam", [Family.odd(4), Family.middle_levels(4)], ids=str)
    @pytest.mark.parametrize("colors", [[], [7], [6, 7], [1, 4, 6], [2, 3, 5, 7]])
    def test_partition_matches_inline_filter(self, fam, colors):
        g = build(fam)
        s = b(colors, g.ground)
        classes = trace_classes(g, s)
        members = sorted(i for ixs in classes.values() for i in ixs)
        assert members == list(range(g.n_vertices))
        for trace, ixs in classes.items():
            t = Block(trace, g.ground)
            assert t <= s
            assert ixs == [i for i, v in enumerate(g.vertices) if v & s == t]


class TestCensus:
    def test_small_example(self, odd3):
        census = classify_components(delete_colors(odd3, [4, 5]))
        assert census.counts == {("regular", 2): 1, ("biregular", 3, 1): 1}

    def test_fiveminusfour(self):
        g = delete_colors(build(Family.odd(5)), canonical_colors(5, 4))
        census = classify_components(g)
        assert census.counts == {
            ("regular", 3): 3,
            ("biregular", 4, 2): 4,
            ("biregular", 5, 1): 1,
        }

    def test_odd_deletion_count_has_no_regular(self):
        for n, k in [(4, 3), (5, 3)]:
            g = delete_colors(build(Family.odd(n)), canonical_colors(n, k))
            census = classify_components(g)
            assert not any(sig[0] == "regular" for sig in census.counts)

    @pytest.mark.parametrize(
        "n,k", [(3, 2), (4, 2), (5, 2), (6, 2), (5, 4), (6, 4), (4, 3), (5, 3)]
    )
    def test_matches_closed_form(self, n, k):
        g = delete_colors(build(Family.odd(n)), canonical_colors(n, k))
        assert classify_components(g).counts == expected_census(n, k)

    def test_full_deletion_has_isolated_entry(self, odd3):
        census = classify_components(delete_colors(odd3, [3, 4, 5]))
        assert census.counts[ISOLATED] == 1
        assert census.counts == expected_census(3, 3)

    def test_census_invariant_under_color_choice(self, odd4):
        reference = classify_components(
            delete_colors(odd4, canonical_colors(4, 2))
        )
        for combo in combinations(range(1, 8), 2):
            census = classify_components(delete_colors(odd4, combo))
            assert census.counts == reference.counts

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_census_depends_only_on_size(self, odd5, data):
        k = data.draw(st.integers(1, 4))
        s = data.draw(
            st.sets(st.sampled_from(list(range(1, 10))), min_size=k, max_size=k)
        )
        census = classify_components(delete_colors(odd5, s))
        reference = classify_components(
            delete_colors(odd5, canonical_colors(5, k))
        )
        assert census.counts == reference.counts

    def test_middle_family_census(self, middle4):
        census = classify_components(
            delete_colors(middle4, canonical_colors(4, 2))
        )
        assert census.counts == expected_census(4, 2, "middle")
        assert census.counts[("regular", 3)] == 2


class TestComponentSignature:
    """A component's census key is read from the whole graph's rows; it
    must agree with the profile of each component cut out as a subgraph."""

    @staticmethod
    def _assert_agrees(g):
        wants = Counter()
        for comp in g.component_sets:
            if len(comp) == 1:
                wants[ISOLATED] += 1
                continue
            want = degree_profile(g.subgraph(comp))
            assert degree_signature(g.neighbor_table, comp) == want
            wants[want] += 1
        assert classify_components(g).counts == wants

    @pytest.mark.parametrize(
        "fam",
        [Family.odd(4), Family.odd(5), Family.odd(6),
         Family.middle_levels(4), Family.middle_levels(5)],
        ids=str,
    )
    def test_matches_subgraph_profile(self, fam):
        g = build(fam)
        colors = range(1, g.ground + 1)
        for size in (1, 2):
            for s in combinations(colors, size):
                self._assert_agrees(delete_colors(g, s))

    def test_hand_made_components(self):
        # a triangle, a star K(1,3), a path on four vertices (two degrees,
        # but its middle edge joins two degree-2 vertices), a spider with
        # degrees 1, 2 and 3, and an isolated vertex
        edges = [(0, 1), (1, 2), (0, 2),
                 (3, 4), (3, 5), (3, 6),
                 (7, 8), (8, 9), (9, 10),
                 (11, 12), (12, 13), (12, 14), (14, 15)]
        g = graph_from_edges(
            5, [Block(bits, 5) for bits in range(1, 18)],
            [(i, j, 1 + (i + j) % 5) for i, j in edges],
        )
        assert g.labeled
        self._assert_agrees(g)
        assert degree_signature(g.neighbor_table, [7, 8, 9, 10]) == ("irregular",)
        assert classify_components(g).counts == {
            ISOLATED: 1, ("regular", 2): 1, ("biregular", 3, 1): 1,
            ("irregular",): 2,
        }


class TestRemainder:
    @pytest.mark.parametrize("n,k,size", [(3, 2, 4), (4, 2, 15), (5, 2, 56)])
    def test_sizes(self, n, k, size):
        r = remainder_graph(n, k)
        assert r.n_vertices == size
        assert degree_profile(r) == ("biregular", n, n - k)

    def test_remainder_size_closed_form(self):
        for n in range(3, 6):
            r = remainder_graph(n, 2)
            assert r.n_vertices == binomial(2 * (n - 1), n - 2)

    def test_uniqueness_of_top_biregular_piece(self):
        # count C(k,0) = 1: exactly one (n, n-k)-biregular component
        g = delete_colors(build(Family.odd(5)), canonical_colors(5, 3))
        census = classify_components(g)
        assert census.counts[("biregular", 5, 2)] == 1

    def test_built_and_checked_once_per_odd_graph(self, monkeypatch):
        # each call asks block_component for the piece, which odd(7)'s memo
        # keeps, and checks it again
        calls = []
        cut = dec.block_component
        monkeypatch.setattr(
            dec, "block_component", lambda *args: calls.append(args) or cut(*args))
        g = build(Family.odd(7))
        first = remainder_graph(7, 2)
        assert remainder_graph(7, 2) is first
        assert degree_profile(remainder_graph(7, 3)) == ("biregular", 7, 4)
        assert len(calls) == 3
        ref = weakref.ref(first)
        del first, g
        assert ref() is None  # the piece lives and dies with odd(7)

    def test_checks_run_when_computed(self, fresh_live, monkeypatch):
        # a bad piece planted in odd(7)'s memo, two vertices and no edges,
        # is refused on every call that reads it
        g = build(Family.odd(7))
        piece = remainder_graph(7, 2)
        (key,) = (key for key in g.memo if key[0] == "piece")
        assert g.memo[key] is piece
        g.memo[key] = graph_from_edges(13, list(piece.vertices[:2]), [])
        for _ in range(2):
            with pytest.raises(AssertionError,
                               match=r"is regular\(0\), expected biregular\(7,5\)"):
                remainder_graph(7, 2)
        # with its degrees read as the right signature, the same piece
        # fails the connectivity check
        with monkeypatch.context() as patch:
            patch.setattr(dec, "degree_profile", lambda g: ("biregular", 7, 5))
            with pytest.raises(AssertionError, match="is not connected"):
                remainder_graph(7, 2)
        # a piece depends only on odd(7): once the graph is gone, the piece
        # is cut again and passes
        del g, piece
        piece = remainder_graph(7, 2)
        assert degree_profile(piece) == ("biregular", 7, 5)
        assert piece.n_vertices == binomial(12, 5)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ParameterError):
            remainder_graph(3, 3)
        with pytest.raises(ParameterError):
            remainder_graph(3, 0)


class TestDisjointness:
    def test_three_color_classes_separate(self):
        rep = verify_disjointness(4, [5, 6, 7])
        assert rep.ok, rep.failures[:3]

    def test_half_size_complement_swaps_sides(self):
        s = b([6, 7], 7)
        one, two = block_component(4, s, b([6], 7)), block_component(4, s, b([7], 7))
        g = build(Family.odd(4))
        classes = trace_classes(g, s)
        u, w = classes[b([6], 7).bits], classes[b([7], 7).bits]
        assert u and w
        assert all(g.vertices[i] & s == b([6], 7) for i in u)
        assert one.masks == two.masks == tuple(
            g.masks[i] for i in sorted(u + w))

    def test_four_color_classes_separate(self):
        rep = verify_disjointness(5, [6, 7, 8, 9])
        assert rep.ok, rep.failures[:3]

    def test_perturbed_half_class_fails(self, monkeypatch):
        # a half-size class missing one vertex is a proper part of its
        # component in the color-deleted graph; a check that compared the
        # class's sides with themselves passed it
        real = dec.trace_classes

        def perturbed(g, colors):
            classes = real(g, colors)
            classes[b([6, 7], 9).bits] = classes[b([6, 7], 9).bits][1:]
            return classes

        monkeypatch.setattr(dec, "trace_classes", perturbed)
        rep = verify_disjointness(5, [6, 7, 8, 9])
        assert not rep.ok
        assert rep.failures == [("{6,7}", "{8,9}", "class is not one component")]


def _partitions_by_dedup(n, s):
    """Every half-size T of S, one per unordered {T, S-T}: of each pair
    the lexicographically smaller on its element tuple."""
    if s.card % 2:
        return []
    seen, out = set(), []
    for c in combinations(s.elements(), s.card // 2):
        t = b(c, 2 * n - 1)
        key = frozenset((t.bits, (s - t).bits))
        if key in seen:
            continue
        seen.add(key)
        out.append(min((t, s - t), key=Block.elements))
    return out


class TestRegularComponentPartitions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dedup_reference(self, n):
        m = 2 * n - 1
        for bits in range(1 << m):
            s = Block(bits, m)
            assert regular_component_partitions(s) == _partitions_by_dedup(n, s)

    def test_edge_cases(self):
        assert regular_component_partitions(Block.empty(5)) == [Block.empty(5)]
        assert regular_component_partitions(b([1, 4, 5], 5)) == []
        assert regular_component_partitions(b([2, 3, 4, 5], 5)) == [
            b([2, 3], 5), b([2, 4], 5), b([2, 5], 5)]


class TestMiddleComponentCensus:
    def test_odd_families(self):
        rep = middle_component_census(4, 2, "odd")
        assert rep.ok and rep.details["found_regular"] == 1
        rep = middle_component_census(5, 4, "odd")
        assert rep.ok and rep.details["found_regular"] == 3

    def test_middle_family_doubles(self):
        rep = middle_component_census(4, 2, "middle")
        assert rep.ok and rep.details["found_regular"] == 2

    def test_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            middle_component_census(4, 3, "odd")
