"""Family construction, labels, degrees, distances, components, girth."""

import sys
import tracemalloc
import weakref
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserlab import graphs, hamilton
from kneserlab.decompose import ISOLATED, component_signature, delete_colors
from kneserlab.errors import NotAdjacentError, ParameterError
from kneserlab.graphs import (
    Family,
    PathSeq,
    bfs_distances,
    build,
    degree_profile,
    expected_family_degree,
    girth,
    graph_from_edges,
    verify_distance_formula,
)
from kneserlab.morphisms import perm_automorphism
from kneserlab.serialize import graph_from_json, graph_to_json
from kneserlab.setcore import Block, Perm, binomial

b = Block.from_elements


def label(g, u, v):
    """The color of the edge between the vertices u and v of g."""
    return g.label_between(g.index_of(u), g.index_of(v))


def dist(g, u, v):
    """The BFS distance from the vertex u of g to v, -1 if unreachable."""
    return bfs_distances(g, g.index_of(u))[g.index_of(v)]


class TestFamily:
    def test_one_parameter_identities(self):
        # odd(n) and kneser(2n-1, n-1) have identical vertices and edges
        o3 = build(Family.odd(3))
        k52 = build(Family.kneser(5, 2))
        assert o3.vertices == k52.vertices
        assert list(o3.edges()) != list(k52.edges())  # labels differ
        assert [(u, v) for u, v, _ in o3.edges()] == [
            (u, v) for u, v, _ in k52.edges()
        ]
        m2 = build(Family.middle_levels(2))
        bk31 = build(Family.bipartite_kneser(3, 1))
        assert m2.vertices == bk31.vertices
        assert [(u, v) for u, v, _ in m2.edges()] == [
            (u, v) for u, v, _ in bk31.edges()
        ]

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Family.kneser(3, 0)
        with pytest.raises(ParameterError):
            Family.kneser(3, 3)
        with pytest.raises(ParameterError):
            Family.odd(0)
        with pytest.raises(ParameterError):
            Family.odd(33)  # ground 65 exceeds the bitmask cap


class TestBuild:
    def test_petersen(self, odd3):
        assert odd3.n_vertices == 10
        assert odd3.n_edges == 15
        assert degree_profile(odd3) == ("regular", 3)
        assert girth(odd3) == 5

    def test_smallest_middle_levels(self):
        g = build(Family.middle_levels(1))
        assert [v.elements() for v in g.vertices] == [(), (1,)]
        assert g.n_edges == 1

    def test_triangle(self):
        g = build(Family.kneser(3, 1))
        assert g.n_vertices == 3
        assert g.n_edges == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_size_and_edge_count(self, n):
        o = build(Family.odd(n))
        m = build(Family.middle_levels(n))
        assert o.n_vertices == binomial(2 * n - 1, n - 1)
        assert m.n_vertices == 2 * binomial(2 * n - 1, n - 1)
        assert 2 * o.n_edges == n * o.n_vertices
        assert 2 * m.n_edges == n * m.n_vertices

    def test_vertices_in_colex_order(self, odd4):
        bits = [v.bits for v in odd4.vertices]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)

    def test_adjacency_symmetric_no_loops(self, middle3):
        for i in range(middle3.n_vertices):
            row, labels = middle3.neighbor_table[i], middle3.label_table[i]
            assert len(row) == len(labels)
            for j, lab in zip(row, labels):
                assert j != i
                assert middle3.label_between(j, i) == lab


def tables(rows):
    """(neighbour table, label table) of rows of (neighbour, label) pairs."""
    return (tuple(tuple(j for j, _ in row) for row in rows),
            tuple(tuple(lab for _, lab in row) for row in rows))


def reference_build(fam):
    """The family by brute force over all vertex pairs: blocks of the
    defining sizes in mask order; Kneser-type blocks adjacent when
    disjoint and distinct, bipartite ones when one properly contains the
    other; odd labels the element outside u | v, middle labels the
    element of u ^ v."""
    m = fam.ground
    k = fam.n - 1 if fam.kind in ("odd", "middle") else fam.k
    sizes = {k} if fam.kind in ("kneser", "odd") else {k, m - k}
    verts = [x for x in range(1 << m) if bin(x).count("1") in sizes]
    rows = []
    for u in verts:
        row = []
        for j, v in enumerate(verts):
            if fam.kind in ("kneser", "odd"):
                adjacent = u & v == 0 and u != v
            else:
                adjacent = u & v in (u, v) and u != v
            if not adjacent:
                continue
            label = None
            if fam.kind == "odd":
                label = ((1 << m) - 1 ^ (u | v)).bit_length()
            elif fam.kind == "middle":
                label = (u ^ v).bit_length()
            row.append((j, label))
        rows.append(tuple(row))
    return verts, tuple(rows)


REFERENCE_FAMILIES = (
    [Family.odd(n) for n in range(1, 7)]
    + [Family.middle_levels(n) for n in range(1, 6)]
    + [Family.kneser(n, k) for n in range(2, 9) for k in range(1, n)]
    + [Family.bipartite_kneser(n, k) for n in range(2, 8) for k in range(1, n)]
)


class TestReferenceBuilder:
    @pytest.mark.parametrize("fam", REFERENCE_FAMILIES, ids=str)
    def test_build_matches_brute_force(self, fam):
        g = build(fam)
        verts, adj = reference_build(fam)
        assert [v.bits for v in g.vertices] == verts
        assert all(v.m == fam.ground for v in g.vertices)
        assert (g.neighbor_table, g.label_table) == tables(adj)
        assert g.labeled == (fam.kind in ("odd", "middle"))
        # the closed forms an imported document is checked against
        assert fam.n_vertices == len(verts)
        assert {bin(x).count("1") for x in verts} == set(fam.block_sizes)
        assert {len(row) for row in adj} == {expected_family_degree(fam)}

    def test_degenerate_instances(self):
        k1 = build(Family.odd(1))  # K1, no self-loop
        assert (k1.neighbor_table, k1.label_table) == tables(((),))
        k2 = build(Family.middle_levels(1))
        assert (k2.neighbor_table, k2.label_table) == tables((((1, 1),), ((0, 1),)))
        for n, k in [(2, 1), (4, 2), (6, 3)]:  # 2k = n: no containments
            g = build(Family.bipartite_kneser(n, k))
            assert g.n_vertices == binomial(n, k) and g.n_edges == 0


class TestBuildMemory:
    def test_peak_stays_near_the_tables(self, fresh_live):
        # the rows come from combinations tuples, and odd labels are those
        # tuples: the traced peak of constructing odd(9) read 1.55 of the
        # tables it leaves alive, and 1.81 with the low-bit columns
        tracemalloc.start()
        try:
            g = build(Family.odd(9))
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_vertices == 24310
        assert peak <= 1.7 * live


class TestLiveInstance:
    def test_same_instance_while_held(self, odd3):
        g = build(Family.bipartite_kneser(7, 2))
        assert build(Family.bipartite_kneser(7, 2)) is g
        assert build(Family.odd(3)) is odd3
        # same vertex set, different family: a different graph
        assert build(Family.kneser(5, 2)).family == Family.kneser(5, 2)

    def test_dropped_graph_is_freed(self):
        # no collector run: dropping the last reference must free the graph
        fam = Family.bipartite_kneser(8, 3)
        g = build(fam)
        assert g.index and g.vertices  # cached views must not keep it alive
        ref = weakref.ref(g)
        del g
        assert ref() is None
        assert build(fam).n_vertices == 2 * binomial(8, 3)

    def test_hold_keeps_graphs_until_it_closes(self):
        fam, other = Family.bipartite_kneser(8, 2), Family.bipartite_kneser(8, 3)
        with graphs.holding_families():
            with graphs.holding_families():  # the same graph, held twice
                ref = weakref.ref(build(fam))
            assert ref() is not None
            assert build(fam) is ref()
            other_ref = weakref.ref(build(other))
            assert other_ref() is not None
        assert ref() is None and other_ref() is None
        assert not graphs._holds


class TestEdgeLabels:
    def test_examples(self, odd3, odd4, middle2):
        assert label(odd3, b([1, 2], 5), b([3, 4], 5)) == 5
        assert label(middle2, b([1], 3), b([1, 2], 3)) == 2
        assert label(odd4, b([1, 2, 3], 7), b([4, 5, 6], 7)) == 7

    def test_label_is_the_missing_element(self, odd4):
        full = Block((1 << 7) - 1, 7)
        for i, j, lab in odd4.edges():
            u, v = odd4.vertices[i], odd4.vertices[j]
            missing = full - (u | v)
            assert missing.card == 1
            assert lab == missing.elements()[0]

    def test_middle_label_is_symmetric_difference(self, middle3):
        for i, j, lab in middle3.edges():
            u, v = middle3.vertices[i], middle3.vertices[j]
            assert (u ^ v).elements() == (lab,)

    def test_every_absent_color_appears_once(self, odd4):
        # the n labels at a vertex are exactly the colors of its complement
        for i in range(odd4.n_vertices):
            v = odd4.vertices[i]
            labels = sorted(odd4.label_table[i])
            assert labels == list(v.complement().elements())

    def test_non_adjacent_raises(self, odd3):
        with pytest.raises(NotAdjacentError):
            label(odd3, b([1, 2], 5), b([1, 3], 5))


class TestDegreeProfile:
    def test_regular_families(self, odd4):
        assert degree_profile(odd4) == ("regular", 4)
        g = build(Family.kneser(7, 2))
        assert degree_profile(g) == ("regular", binomial(5, 2))

    @pytest.mark.parametrize(
        "fam",
        [Family.kneser(7, 2), Family.kneser(6, 2), Family.bipartite_kneser(7, 2),
         Family.bipartite_kneser(7, 3), Family.odd(4), Family.middle_levels(4)],
    )
    def test_closed_form_degree(self, fam):
        from kneserlab.graphs import expected_family_degree

        g = build(fam)
        assert degree_profile(g) == (
            "regular", expected_family_degree(fam)
        )

    def test_star_is_biregular(self):
        star = graph_from_edges(
            4,
            [b([1], 4), b([2], 4), b([3], 4), b([4], 4)],
            [(0, 1, None), (0, 2, None), (0, 3, None)],
        )
        assert degree_profile(star) == ("biregular", 3, 1)

    def test_single_vertex_regular_zero(self):
        g = graph_from_edges(3, [b([1], 3)], [])
        assert degree_profile(g) == ("regular", 0)

    def test_irregular(self):
        g = graph_from_edges(
            4,
            [b([1], 4), b([2], 4), b([3], 4), b([4], 4)],
            [(0, 1, None), (1, 2, None), (2, 3, None), (0, 2, None)],
        )
        assert degree_profile(g) == ("irregular",)


class TestDistance:
    def test_examples(self, odd3):
        assert dist(odd3, b([1, 2], 5), b([3, 4], 5)) == 1
        assert dist(odd3, b([1, 2], 5), b([1, 3], 5)) == 2

    def test_intersection_two_in_odd5(self, odd5):
        u = b([1, 2, 3, 4], 9)
        v = b([1, 2, 5, 6], 9)
        assert (u & v).card == 2
        assert dist(odd5, u, v) == 4

    def test_unreachable_is_minus_one(self):
        g = graph_from_edges(3, [b([1], 3), b([2], 3)], [])
        assert dist(g, b([1], 3), b([2], 3)) == -1

    def test_triangle_inequality_sampled(self, odd4):
        dists = [bfs_distances(odd4, i) for i in range(odd4.n_vertices)]
        n = odd4.n_vertices
        for u in range(0, n, 5):
            for v in range(0, n, 7):
                for w in range(0, n, 3):
                    assert dists[u][v] <= dists[u][w] + dists[w][v]

    def test_zero_distance_only_on_equal(self, odd3):
        for i in range(odd3.n_vertices):
            dist = bfs_distances(odd3, i)
            assert [j for j, d in enumerate(dist) if d == 0] == [i]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_distance_formula(self, n):
        rep = verify_distance_formula(n)
        assert rep.ok, rep.failures
        assert rep.details["diameter"] == n - 1


def brute_force_distance_report(g, n):
    """(ok, details, failures) of the distance rule on g from one BFS per
    vertex and set intersections per pair, in the checker's pair order."""
    verts = g.vertices
    failures = []
    diameter = 0
    for i, u in enumerate(verts):
        dist = {i: 0}
        queue = deque([i])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for j in range(i + 1, len(verts)):
            v = verts[j]
            c = len(set(u.elements()) & set(v.elements()))
            want = min(2 * (n - 1 - c), 2 * c + 1)
            got = dist.get(j, -1)
            diameter = max(diameter, got)
            if got != want:
                failures.append((str(u), str(v), c, got, want))
    details = {"pairs": len(verts) * (len(verts) - 1) // 2,
               "diameter": diameter, "expected_diameter": n - 1}
    return not failures and diameter == n - 1, details, failures


def _perturbed(g, kind):
    """g with one edge removed, one chord added or vertex 0 cut off."""
    edges = list(g.edges())
    if kind == "remove-first":
        del edges[0]
    elif kind == "remove-middle":
        del edges[len(edges) // 2]
    elif kind == "isolate":
        edges = [e for e in edges if 0 not in e[:2]]
    else:
        pairs = [(i, j) for i in range(g.n_vertices)
                 for j in range(i + 1, g.n_vertices) if not g.has_edge(i, j)]
        i, j = pairs[0] if kind == "chord-first" else pairs[-1]
        edges.append((i, j, None))
    return graph_from_edges(g.ground, g.vertices, edges, labeled=True)


class TestDistanceFailurePath:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_spheres_match_without_per_pair_loop(self, n):
        assert graphs._rule_diameter(build(Family.odd(n)), n) == n - 1

    @pytest.mark.parametrize("kind", ["remove-first", "remove-middle",
                                      "chord-first", "chord-last", "isolate"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_report_matches_brute_force(self, n, kind, monkeypatch):
        g = _perturbed(build(Family.odd(n)), kind)
        monkeypatch.setattr(graphs, "build", lambda family: g)
        assert graphs._rule_diameter(g, n) is None
        rep = verify_distance_formula(n)
        ok, details, failures = brute_force_distance_report(g, n)
        assert failures  # every perturbation breaks the rule somewhere
        assert (rep.ok, rep.details, rep.failures) == (ok, details, failures)


class TestVertexIndex:
    def test_keyed_by_mask(self, odd4):
        assert odd4.index == {v.bits: i for i, v in enumerate(odd4.vertices)}
        for i, v in enumerate(odd4.vertices):
            assert odd4.index_of(v) == i
        masks = [v.bits for v in odd4.vertices][::-1]
        assert odd4.mask_indices(masks) == list(range(odd4.n_vertices))[::-1]

    def test_other_ground_or_missing_vertex_rejected(self, odd3):
        same_mask = Block(b([1, 2], 5).bits, 7)
        for v in (same_mask, b([1, 2, 3], 5)):
            with pytest.raises(ParameterError):
                odd3.index_of(v)
        with pytest.raises(ParameterError):
            odd3.mask_indices([b([1, 2], 5).bits, b([1, 2, 3], 5).bits])


class TestGraphFromEdges:
    VERTS = [b([1], 4), b([2], 4), b([3], 4), b([4], 4)]

    def test_vertex_over_another_ground_rejected(self):
        with pytest.raises(ParameterError):
            graph_from_edges(4, self.VERTS[:3] + [b([4], 5)], [])

    def test_rows_sorted_from_any_edge_order(self):
        edges = [(0, 1, 1), (0, 3, 2), (1, 2, 3), (2, 3, 4), (1, 3, None)]
        want = graph_from_edges(4, self.VERTS, edges)
        assert want.neighbor_table[1] == (0, 2, 3)
        assert want.label_table[1] == (1, 3, None)
        shuffled = [(j, i, lab) for i, j, lab in reversed(edges)]
        got = graph_from_edges(4, self.VERTS, shuffled)
        assert got.neighbor_table == want.neighbor_table
        assert got.label_table == want.label_table
        # vertices given out of order are sorted and the edges remapped
        back = graph_from_edges(4, self.VERTS[::-1],
                                [(3 - i, 3 - j, lab) for i, j, lab in edges])
        assert back.neighbor_table == want.neighbor_table
        assert back.label_table == want.label_table

    @pytest.mark.parametrize("edges", [
        [(0, 1, None), (1, 2, None), (0, 1, None)],
        [(0, 1, None), (2, 3, None), (1, 0, 5)],
        [(2, 2, None)],
        [(0, 4, None)],
        [(0, -1, None)],
    ], ids=["duplicate", "duplicate-reversed", "self-loop", "out-of-range",
            "negative"])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ParameterError):
            graph_from_edges(4, self.VERTS, edges)


class TestComponents:
    def test_connected_odd(self, odd3):
        assert odd3.component_sets == (tuple(range(odd3.n_vertices)),)
        assert odd3.connected

    def test_edgeless(self):
        g = graph_from_edges(3, [b([1], 3), b([2], 3), b([3], 3)], [])
        assert g.component_sets == ((0,), (1,), (2,))
        assert not g.connected

    def test_two_component_example(self, odd3):
        comps = delete_colors(odd3, [4, 5]).component_sets
        assert sorted(map(len, comps)) == [4, 6]
        # ordered by smallest contained vertex
        firsts = [c[0] for c in comps]
        assert firsts == sorted(firsts)

    def test_connected_is_cached(self, odd3):
        # connected reads the cached partition, which has no search of its own
        assert odd3.connected
        assert "component_sets" in vars(odd3)
        assert odd3.component_sets == (tuple(range(10)),)
        deleted = delete_colors(odd3, [4, 5])
        assert not deleted.connected
        assert deleted.component_sets is deleted.component_sets
        assert graph_from_edges(3, [], []).connected  # no vertices

    def test_peak_holds_levels_not_the_graph(self):
        # odd(8) minus two colors: two components of 3432 and 3003.  Three
        # BFS levels as sets and a bytearray of listed vertices read 0.43 of
        # one set of every vertex; a set of the vertices seen and one of the
        # component read 1.06
        g = delete_colors(build(Family.odd(8)), [3, 11])
        tracemalloc.start()
        try:
            comps = g.component_sets
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(map(len, comps)) == [3432, 3003]
        assert peak < 0.6 * sys.getsizeof(set(range(g.n_vertices)))


class TestSubgraph:
    @pytest.mark.parametrize("name", ["odd4", "middle3"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force_induced(self, name, request, data):
        g = request.getfixturevalue(name)
        chosen = data.draw(st.sets(st.integers(0, g.n_vertices - 1)))
        given_order = data.draw(st.permutations(sorted(chosen)))
        sub = g.subgraph(given_order)
        order = sorted(chosen)
        assert sub.masks == tuple(g.masks[i] for i in order)
        rows = [[(x, g.label_between(i, j)) for x, j in enumerate(order)
                 if g.has_edge(i, j)] for i in order]
        assert (sub.neighbor_table, sub.label_table) == tables(rows)
        assert sub.labeled == g.labeled and sub.family is None


CUT_GRAPHS = {
    "odd3": Family.odd(3), "odd4": Family.odd(4), "odd5": Family.odd(5),
    "middle2": Family.middle_levels(2), "middle3": Family.middle_levels(3),
    "middle4": Family.middle_levels(4), "kneser": Family.kneser(5, 2),
    "bikneser": Family.bipartite_kneser(5, 2),
    "edgeless": Family.bipartite_kneser(4, 2),  # both sides are 2-blocks
}


@st.composite
def cuts(draw, g):
    """A vertex index list of g, in any order, and a color set of its
    ground; each may be empty or full."""
    n = g.n_vertices
    chosen = draw(st.one_of(
        st.just([]), st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), unique=True)))
    colors = draw(st.one_of(
        st.just(set()), st.just(set(range(1, g.ground + 1))),
        st.sets(st.integers(1, g.ground))))
    return chosen, colors


def color_cut(g, chosen, colors):
    """The subgraph of g on the chosen vertex indices, minus the edges
    whose label lies in colors when g is labeled."""
    if g.labeled:
        g = delete_colors(g, colors)
    return g.subgraph(chosen)


class TestCutAndPartition:
    """LabeledGraph.subgraph against a rebuild from the edge list, and
    component_sets against a BFS of every component, on labeled and
    unlabeled graphs."""

    @pytest.mark.parametrize("name", list(CUT_GRAPHS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_cut_matches_edge_filter(self, name, data):
        g = build(CUT_GRAPHS[name])
        chosen, colors = data.draw(cuts(g))
        order = sorted(chosen)
        new = {i: x for x, i in enumerate(order)}
        want = graph_from_edges(
            g.ground, [g.vertices[i] for i in order],
            [(new[i], new[j], lab) for i, j, lab in g.edges()
             if i in new and j in new and lab not in colors],
            labeled=g.labeled)
        assert color_cut(g, chosen, colors) == want

    @pytest.mark.parametrize("name", list(CUT_GRAPHS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_components_partition_the_cut(self, name, data):
        g = build(CUT_GRAPHS[name])
        chosen, colors = data.draw(cuts(g))
        sub = color_cut(g, chosen, colors)
        comps = sub.component_sets
        members = sorted(i for comp in comps for i in comp)
        assert members == list(range(sub.n_vertices))
        assert all(comp == tuple(sorted(comp)) for comp in comps)
        firsts = [comp[0] for comp in comps]
        assert firsts == sorted(set(firsts))
        for comp in comps:
            # reached from its first vertex, and nothing else is
            dist = bfs_distances(sub, comp[0])
            assert [i for i, d in enumerate(dist) if d >= 0] == list(comp)
        assert sub.connected == (len(comps) <= 1)


class TestNeighborTable:
    def test_matches_neighbors_and_is_cached(self, odd4):
        table = odd4.neighbor_table
        assert table == tuple(odd4.neighbors(i) for i in range(35))
        assert odd4.neighbor_table is table


def masks_graphs():
    """Built families, a color cut and a JSON round trip."""
    fams = ([Family.odd(n) for n in range(1, 7)]
            + [Family.middle_levels(n) for n in range(1, 6)]
            + [Family.kneser(7, 3), Family.bipartite_kneser(5, 2)])
    out = [build(f) for f in fams]
    odd5 = build(Family.odd(5))
    out.append(delete_colors(odd5, {1}).subgraph(range(0, odd5.n_vertices, 2)))
    out.append(graph_from_json(graph_to_json(odd5)))
    return out


class TestNeighborMasks:
    def test_bits_are_the_neighbor_rows(self):
        for g in masks_graphs():
            masks = g.neighbor_masks
            assert len(masks) == g.n_vertices
            for i, row in enumerate(g.neighbor_table):
                assert [y for y in range(g.n_vertices) if masks[i] >> y & 1] == list(row)
            assert g.neighbor_masks is masks

    def test_searches_share_one_table(self, fresh_live, monkeypatch):
        # the import returns the live odd(4) while one is held, and another
        # test may have made its masks; an empty live table makes it afresh
        g = graph_from_json(graph_to_json(build(Family.odd(4))))
        assert "neighbor_masks" not in vars(g)
        passed = []
        solve = hamilton._kernel.solve

        def recording(*args, **kwargs):
            passed.append(kwargs["masks"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(hamilton._kernel, "solve", recording)
        for seed in range(8):
            hamilton.find_hamiltonian_cycle(g, hamilton.SearchBudget(seed=seed))
        assert len(passed) == 8
        assert all(masks is g.neighbor_masks for masks in passed)


class TestGirth:
    def test_examples(self, odd3):
        assert girth(odd3) == 5
        tri = build(Family.kneser(3, 1))
        assert girth(tri) == 3
        star = graph_from_edges(
            4,
            [b([1], 4), b([2], 4), b([3], 4), b([4], 4)],
            [(0, 1, None), (0, 2, None), (0, 3, None)],
        )
        assert girth(star) is None

    def test_middle_levels_girth(self, middle3):
        assert girth(middle3) == 6


def indices(g, blocks):
    return [g.index_of(v) for v in blocks]


class TestPathSeq:
    def test_labels_collected(self, odd3):
        p = PathSeq.from_indices(
            odd3, indices(odd3, [b([1, 2], 5), b([3, 4], 5), b([1, 5], 5)]),
            closed=False)
        assert p.length == 2
        assert p.labels == (5, 2)

    def test_invalid_step_raises(self, odd3):
        with pytest.raises(NotAdjacentError):
            PathSeq.from_indices(odd3, indices(odd3, [b([1, 2], 5), b([1, 3], 5)]),
                                 closed=False)

    def test_invalid_closing_step_raises(self, odd3):
        path = [b([1, 2], 5), b([3, 4], 5), b([1, 5], 5)]
        with pytest.raises(NotAdjacentError):
            PathSeq.from_indices(odd3, indices(odd3, path), closed=True)

    def test_single_vertex(self, odd3):
        for closed in (False, True):
            p = PathSeq.from_indices(odd3, [4], closed=closed)
            assert (p.indices, p.labels) == ((4,), ())

    def test_closed_includes_closing_label(self, middle2):
        cyc = [b([1], 3), b([1, 2], 3), b([2], 3), b([2, 3], 3),
               b([3], 3), b([1, 3], 3)]
        p = PathSeq.from_indices(middle2, indices(middle2, cyc), closed=True)
        assert p.length == 6
        assert sorted(p.labels) == [1, 1, 2, 2, 3, 3]


class TestIndexRange:
    """-1 must not alias the last vertex, nor n fail with a bare IndexError."""

    @pytest.mark.parametrize("bad", [-1, 10], ids=["minus-one", "n"])
    def test_out_of_range_indices_raise(self, odd3, bad):
        j = odd3.neighbor_table[-1][0]  # a neighbour of the last vertex
        for i, k in ((bad, j), (j, bad)):
            with pytest.raises(ParameterError):
                odd3.has_edge(i, k)
            with pytest.raises(ParameterError):
                odd3.label_between(i, k)
        for read in (odd3.neighbors, lambda i: bfs_distances(odd3, i)):
            with pytest.raises(ParameterError, match="outside 0..9"):
                read(bad)
        for closed in (False, True):
            with pytest.raises(ParameterError):
                PathSeq.from_indices(odd3, [bad, j], closed=closed)
            with pytest.raises(ParameterError):
                PathSeq.from_indices(odd3, [j, bad], closed=closed)

    @pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_non_int_indices_raise(self, bad):
        g = build(Family.odd(2))  # the triangle: every pair is an edge
        for closed in (False, True):
            with pytest.raises(ParameterError, match="not an int"):
                PathSeq.from_indices(g, [0, bad, 2], closed=closed)
        for i, k in ((bad, 2), (0, bad)):
            for read in (g.has_edge, g.label_between):
                with pytest.raises(ParameterError, match="not an int"):
                    read(i, k)
        for read in (g.neighbors, lambda i: bfs_distances(g, i)):
            with pytest.raises(ParameterError, match="not an int"):
                read(bad)


# labels of any hashable kind, and vertices over a ground of 4 in any order
ODD_LABELS = st.one_of(
    st.none(), st.integers(-3, 300), st.booleans(), st.text(max_size=2),
    st.floats(allow_nan=False), st.tuples(st.integers(0, 2)),
)


@st.composite
def small_graphs(draw):
    """(graph, {(i, j): label} in both directions, over graph indices)."""
    masks = draw(st.lists(st.integers(0, 15), unique=True, max_size=8))
    n = len(masks)
    if n > 1 and draw(st.booleans()):
        # a complete bipartite graph, biregular unless its sides match, and
        # perhaps one edge short of it
        cut = draw(st.integers(1, n - 1))
        ends = {(i, j) for i in range(cut) for j in range(cut, n)}
        ends -= draw(st.sets(st.sampled_from(sorted(ends)), max_size=1))
    elif n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        ends = draw(st.sets(pairs.filter(lambda e: e[0] < e[1]), max_size=16))
    else:
        ends = set()
    edges = [(i, j, draw(ODD_LABELS)) for i, j in sorted(ends)]
    edges = [(j, i, lab) if draw(st.booleans()) else (i, j, lab)
             for i, j, lab in draw(st.permutations(edges))]
    g = graph_from_edges(4, [Block(x, 4) for x in masks], edges)
    at = {x: i for i, x in enumerate(sorted(masks))}
    want = {}
    for i, j, lab in edges:
        want[at[masks[i]], at[masks[j]]] = want[at[masks[j]], at[masks[i]]] = lab
    return g, want


def reference_signature(nbrs: dict, members: list) -> tuple:
    """Degree classification from the degree set and a BFS 2-colouring:
    biregular when every component splits into two non-empty colour
    classes, each of one degree, the two degrees the graph's two."""
    degrees = {len(nbrs[i]) for i in members}
    if len(degrees) == 1:
        return ("regular", degrees.pop())
    if len(degrees) != 2:
        return ("irregular",)
    color = {}
    for s in members:
        if s in color:
            continue
        color[s] = 0
        classes = ([s], [])
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    classes[color[y]].append(y)
                    queue.append(y)
                elif color[y] == color[x]:
                    return ("irregular",)
        side_degrees = [{len(nbrs[x]) for x in side} for side in classes]
        if (not all(side_degrees) or any(len(d) > 1 for d in side_degrees)
                or side_degrees[0] == side_degrees[1]):
            return ("irregular",)
    return ("biregular", max(degrees), min(degrees))


class TestAgainstBruteForce:
    @given(data=st.data(), case=small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_edge_queries(self, data, case):
        g, want = case
        n = g.n_vertices
        assert {(i, j): lab for i, j, lab in g.edges()} == {
            (i, j): lab for (i, j), lab in want.items() if i < j}
        for i in range(n):
            for j in range(n):
                assert g.has_edge(i, j) == ((i, j) in want)
                if (i, j) in want:
                    assert g.label_between(i, j) == want[i, j]
                else:
                    with pytest.raises(NotAdjacentError):
                        g.label_between(i, j)
            for bad in (-1, n):
                with pytest.raises(ParameterError):
                    g.has_edge(i, bad)
                with pytest.raises(ParameterError):
                    g.label_between(bad, i)
        if n == 0:
            return
        walk = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        closed = data.draw(st.booleans())
        steps = list(zip(walk, walk[1:]))
        if closed and len(walk) > 1:
            steps.append((walk[-1], walk[0]))
        if all(step in want for step in steps):
            p = PathSeq.from_indices(g, walk, closed=closed)
            assert p.indices == tuple(walk)
            assert p.labels == tuple(want[step] for step in steps)
        else:
            with pytest.raises(NotAdjacentError):
                PathSeq.from_indices(g, walk, closed=closed)

    @given(case=small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_degree_classifiers(self, case):
        g, want = case
        nbrs = {i: {j for (x, j) in want if x == i} for i in range(g.n_vertices)}
        assert degree_profile(g) == reference_signature(
            nbrs, list(range(g.n_vertices)))
        for comp in g.component_sets:
            expected = (ISOLATED if len(comp) == 1
                        else reference_signature(nbrs, comp))
            assert component_signature(g, comp) == expected


def transitivity_witness(g, u, v):
    """An automorphism carrying u to v, built from the ground permutation
    mapping the set u onto the set v (order-preserving on u and on its
    complement)."""
    assert u.card == v.card
    pairs = list(zip(u.elements(), v.elements()))
    pairs += list(zip(u.complement().elements(), v.complement().elements()))
    images = [0] * g.ground
    for a, b in pairs:
        images[a - 1] = b
    return perm_automorphism(g, Perm(tuple(images)))


class TestVertexTransitivity:
    @pytest.mark.parametrize("fam", [Family.odd(3), Family.middle_levels(3)])
    def test_witness_carries_u_to_v(self, fam):
        g = build(fam)
        us = [g.vertices[0], g.vertices[3], g.vertices[-1]]
        vs = [g.vertices[-1], g.vertices[1], g.vertices[0]]
        for u, v in zip(us, vs):
            if u.card != v.card:
                continue
            w = transitivity_witness(g, u, v)
            assert w.verify()
            assert w.target.vertices[w.images[w.source.index_of(u)]] == v
