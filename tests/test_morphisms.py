"""Explicit maps: verification, covers, swaps, component isos, lifting."""

import hashlib

import pytest

from kneserlab.decompose import canonical_colors, delete_colors
from kneserlab.errors import DegenerateCaseError, ParameterError
from kneserlab.graphs import Family, PathSeq, build, girth, graph_from_edges
from kneserlab.morphisms import (
    VertexMap,
    biregular_cross_iso,
    biregular_internal_iso,
    color_swap_iso,
    cover_map,
    embed_indices,
    embed_middle_in_odd,
    find_isomorphism,
    generic_double_cover,
    is_isomorphism,
    is_morphism,
    kappa,
    kappa_preserves_labels,
    lift_circuit,
    middle_class_to_middle,
    middle_component_iso,
    perm_automorphism,
    regular_component_to_middle,
    verify_cover,
)
from kneserlab.setcore import Block, Perm

b = Block.from_elements


def identity_map(g):
    return VertexMap(g, g, tuple(range(g.n_vertices)), kind="isomorphism")


def fibers(vmap):
    """{target vertex: the source vertices mapped onto it}."""
    out = {}
    for i, j in enumerate(vmap.images):
        out.setdefault(vmap.target.vertices[j], []).append(vmap.source.vertices[i])
    return out


def compose(outer, inner):
    """outer after inner (inner runs first)."""
    assert inner.target is outer.source
    images = tuple(outer.images[j] for j in inner.images)
    return VertexMap(inner.source, outer.target, images)


def brute_force_cycle(g, length, start=0):
    """Oracle: find a simple closed walk of the given length by DFS."""
    path = [start]
    seen = {start}

    def dfs():
        if len(path) == length:
            return g.has_edge(path[-1], path[0])
        for y in g.neighbors(path[-1]):
            if y not in seen:
                path.append(y)
                seen.add(y)
                if dfs():
                    return True
                seen.discard(y)
                path.pop()
        return False

    assert dfs(), f"no cycle of length {length}"
    return PathSeq.from_indices(g, path, closed=True)


class TestMorphismPredicates:
    def test_identity(self, odd3):
        assert is_morphism(odd3, odd3, identity_map(odd3).images)
        assert is_isomorphism(odd3, odd3, identity_map(odd3).images)

    def test_constant_map_fails(self, odd3):
        const = [0] * odd3.n_vertices
        assert not is_morphism(odd3, odd3, const)

    def test_partial_map_rejected(self, odd3):
        partial = [0]
        with pytest.raises(ParameterError):
            is_morphism(odd3, odd3, partial)

    def test_size_mismatch_never_isomorphism(self, odd3, middle2):
        images = [0] * odd3.n_vertices
        assert not is_isomorphism(odd3, middle2, images)

    def test_non_injective_morphism_not_isomorphism(self, middle2):
        km = kappa(2)
        assert is_morphism(middle2, middle2, km.images)
        squash = list(km.images)
        squash[0] = km.images[1]
        assert not is_isomorphism(middle2, middle2, squash)


class TestCoverMap:
    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3), (9, 4)])
    def test_verified_double_cover(self, n, k):
        cm = cover_map(n, k)
        rep = verify_cover(cm, expected_fiber=2)
        assert rep.ok, rep.failures
        assert rep.details["fiber"] == 2

    def test_formula(self):
        cm = cover_map(5, 2)
        assert cm.apply(b([1, 2], 5)) == b([1, 2], 5)
        assert cm.apply(b([1, 2, 3], 5)) == b([4, 5], 5)

    def test_fibers_are_complement_pairs(self):
        cm = cover_map(7, 3)
        for target, fiber in fibers(cm).items():
            assert len(fiber) == 2
            lo, hi = sorted(fiber, key=lambda x: x.card)
            assert hi == lo.complement()
            assert target in fiber or target == lo.complement()

    def test_degenerate_half_split_rejected(self):
        with pytest.raises(DegenerateCaseError):
            cover_map(4, 2)

    def test_kappa_is_not_a_double_cover(self, middle2):
        km = kappa(2)
        km.kind = "covering"
        rep = verify_cover(km, expected_fiber=2)
        assert not rep.ok  # fiber is 1, not 2


class TestKappa:
    def test_small_example(self):
        assert kappa(2).apply(b([1], 3)) == b([2, 3], 3)

    def test_involution(self, middle4):
        km = kappa(4)
        assert km.verify()
        twice = compose(km, km)
        assert all(twice.apply(v) == v for v in middle4.vertices)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_label_preserving(self, n):
        rep = kappa_preserves_labels(n)
        assert rep.ok, rep.failures[:3]

    def test_specific_edge_relabeling(self, middle3):
        km = kappa(3)
        u, v = b([1, 2], 5), b([1, 2, 3], 5)
        assert km.apply(u) == b([3, 4, 5], 5)
        assert km.apply(v) == b([4, 5], 5)


class TestPermAutomorphism:
    def test_transposition_fixes_expected(self, odd3):
        pa = perm_automorphism(odd3, Perm.transposition(5, 1, 2))
        assert pa.verify()
        for fixed in [b([3, 4], 5), b([3, 5], 5), b([4, 5], 5)]:
            assert pa.apply(fixed) == fixed

    def test_full_cycle_fixes_nothing(self, middle3):
        pa = perm_automorphism(middle3, Perm.cycle(5, range(1, 6)))
        assert pa.verify()
        assert all(pa.apply(v) != v for v in middle3.vertices)

    def test_identity(self, odd3):
        pa = perm_automorphism(odd3, Perm.identity(5))
        assert pa.verify()
        assert all(pa.apply(v) == v for v in odd3.vertices)


class TestColorSwap:
    def test_verified_examples(self):
        assert color_swap_iso(3, [4, 5], [1, 2]).verify()
        assert color_swap_iso(4, [5, 6, 7], [1, 6, 7]).verify()

    def test_same_set_is_identity(self, odd3):
        cs = color_swap_iso(3, [4, 5], [4, 5])
        assert cs.verify()
        assert all(cs.apply(v) == v for v in cs.source.vertices)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            color_swap_iso(3, [4, 5], [1])


class TestComponentIsos:
    def test_internal_same_size(self):
        vmap = biregular_internal_iso(5, 4, [6], [7])
        assert vmap.verify()
        vmap = biregular_internal_iso(5, 4, [6, 7], [6, 8])
        assert vmap.verify()

    def test_internal_identity(self):
        vmap = biregular_internal_iso(5, 4, [6], [6])
        assert vmap.verify()
        assert all(vmap.apply(v) == v for v in vmap.source.vertices)

    def test_internal_complement_pair_rejected(self):
        with pytest.raises(ParameterError):
            biregular_internal_iso(5, 4, [6, 7], [8, 9])  # T1 = S - T2

    def test_cross_parameter(self):
        assert biregular_cross_iso(4, 2, [], 5, 4, [6]).verify()
        assert biregular_cross_iso(3, 2, [], 4, 4, [4]).verify()

    def test_cross_same_parameters_identity(self):
        vmap = biregular_cross_iso(4, 2, [6], 4, 2, [6])
        assert vmap.verify()
        assert all(vmap.apply(v) == v for v in vmap.source.vertices)

    def test_cross_signature_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            biregular_cross_iso(4, 2, [], 5, 4, [6, 7])


class TestMiddleComponentIso:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_verified(self, m):
        vmap = middle_component_iso(m)
        assert vmap.verify()
        assert vmap.target.n_vertices == vmap.source.n_vertices

    def test_explicit_images(self):
        vmap = middle_component_iso(2)
        assert vmap.apply(b([1, 4], 5)) == b([1], 3)
        assert vmap.apply(b([2, 4], 5)) == b([2], 3)
        assert vmap.apply(b([3, 4], 5)) == b([3], 3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_embed_is_inverse(self, m):
        emb = embed_middle_in_odd(m)
        assert emb.verify()  # injective morphism
        assert len(set(emb.images)) == len(emb.images)
        iso = middle_component_iso(m)
        for w in emb.source.vertices:
            assert iso.apply(emb.apply(w)) == w

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_embed_indices_match_the_map(self, m):
        emb = embed_middle_in_odd(m)
        src, dst = emb.source, emb.target
        order = list(range(src.n_vertices))[::-1]
        got = embed_indices(src, dst, order)
        assert [dst.vertices[j] for j in got] == [
            emb.apply(src.vertices[i]) for i in order
        ]

    def test_embed_indices_needs_middle_and_next_odd(self, odd3, odd4, middle3):
        with pytest.raises(ParameterError):
            embed_indices(middle3, odd3, [0])
        with pytest.raises(ParameterError):
            embed_indices(odd3, odd4, [0])

    def test_embed_examples(self):
        emb = embed_middle_in_odd(2)
        assert emb.apply(b([1], 3)) == b([1, 4], 5)
        assert emb.apply(b([1, 2], 3)) == b([3, 5], 5)

    def test_embed_image_is_regular_component(self, odd4):
        emb = embed_middle_in_odd(3)
        image = {emb.apply(v) for v in emb.source.vertices}
        deleted = delete_colors(odd4, canonical_colors(4, 2))
        regular = [c for c in deleted.component_sets if len(c) == 20]
        assert len(regular) == 1
        assert image == {deleted.vertices[i] for i in regular[0]}

    def test_chain_to_middle_noncanonical_colors(self):
        vmap = regular_component_to_middle(4, b([1, 2], 7), b([1], 7))
        assert vmap.verify()

    def test_middle_class_chain(self, middle4):
        s, t = canonical_colors(4, 2), b([6], 7)
        vmap = middle_class_to_middle(4, s, t)
        assert vmap.verify()
        assert vmap.target.family == Family.middle_levels(3)
        # the class cut from its piece equals the class cut from the
        # whole-graph deletion
        members = [
            middle4.index_of(v) for v in middle4.vertices if (v & s) == t
        ]
        whole = delete_colors(middle4, s).subgraph(members)
        assert vmap.source.vertices == whole.vertices
        assert vmap.source.neighbor_table == whole.neighbor_table
        assert vmap.source.label_table == whole.label_table


def map_pairs(vmap):
    """Sorted (source mask, image mask) pairs of a map."""
    src, dst = vmap.source.vertices, vmap.target.vertices
    return sorted((src[i].bits, dst[j].bits) for i, j in enumerate(vmap.images))


def mapping_digest(vmap):
    return hashlib.sha256(repr(map_pairs(vmap)).encode()).hexdigest()[:16]


# (n, S, T, digest of the map): every class the verify suites and
# middle_component_census send down the chains, plus every half T of the
# canonical S and of S = [k] for the census parameters with even k
REGULAR_CHAIN_PINS = [
    (3, [1, 2], [1], "8c70bf35f8fd2b19"),
    (3, [1, 2], [2], "4481c185f3c4486f"),
    (3, [4, 5], [4], "2ece7a60a66c9179"),
    (3, [4, 5], [5], "bebd5ba3451b1057"),
    (4, [1, 2], [1], "22c1fbd07bacb0eb"),
    (4, [1, 2], [2], "5e72a7e4e2fdca23"),
    (4, [4, 5, 6, 7], [4, 5], "bec8dea220e1343d"),
    (4, [4, 5, 6, 7], [4, 6], "2c20312de9738cbe"),
    (4, [4, 5, 6, 7], [5, 6], "9d8236eea0a481d6"),
    (4, [6, 7], [6], "f74bdb71372ea82d"),
    (4, [6, 7], [7], "be1ecb2e773b9ee2"),
    (5, [1, 2], [1], "181ceedccbe5fd47"),
    (5, [1, 2], [2], "cd4d64a2567e9f72"),
    (5, [1, 2, 3, 4], [1, 2], "4f37dbe58a079ba7"),
    (5, [1, 2, 3, 4], [1, 3], "74d9f96385d84899"),
    (5, [1, 2, 3, 4], [1, 4], "d0999b83b9f738db"),
    (5, [1, 2, 3, 4], [2, 3], "47b3c70123fb750f"),
    (5, [1, 2, 3, 4], [2, 4], "cf3d7b18ef3660f2"),
    (5, [1, 2, 3, 4], [3, 4], "ad048f1823308ec7"),
    (5, [6, 7, 8, 9], [6, 7], "2ba6e060fc71a2da"),
    (5, [6, 7, 8, 9], [6, 8], "4f5a13cfddfa1433"),
    (5, [6, 7, 8, 9], [6, 9], "90e3a1e269185b26"),
    (5, [6, 7, 8, 9], [7, 8], "26a8addc9b7e5371"),
    (5, [6, 7, 8, 9], [7, 9], "eb2e5d848b6070ad"),
    (5, [6, 7, 8, 9], [8, 9], "fa779c07bd661829"),
    (5, [8, 9], [8], "07f79ed988054352"),
    (5, [8, 9], [9], "367e23e0ba911083"),
    (6, [1, 2], [1], "f0796a9bbb6d13e4"),
    (6, [1, 2], [2], "6bc9b863cc88368e"),
    (6, [1, 2, 3, 4], [1, 2], "af1d2c952070ce9e"),
    (6, [1, 2, 3, 4], [1, 3], "8c6406c975bd05d0"),
    (6, [1, 2, 3, 4], [1, 4], "ad541fa990baf95f"),
    (6, [1, 2, 3, 4], [2, 3], "1eca5842340cc049"),
    (6, [1, 2, 3, 4], [2, 4], "26a593fb90246419"),
    (6, [1, 2, 3, 4], [3, 4], "65e33694aca20d94"),
    (6, [8, 9, 10, 11], [8, 9], "98b1cf81a4e718e5"),
    (6, [8, 9, 10, 11], [8, 10], "608a5d1f83f504a7"),
    (6, [8, 9, 10, 11], [8, 11], "35bc76dbe6229eae"),
    (6, [8, 9, 10, 11], [9, 10], "18cc82bb4c3d3a56"),
    (6, [8, 9, 10, 11], [9, 11], "ffefcedbba1a2d64"),
    (6, [8, 9, 10, 11], [10, 11], "85e063e689c9ce18"),
    (6, [10, 11], [10], "2134520677386961"),
    (6, [10, 11], [11], "f0a763ddfc6f6a7e"),
]

MIDDLE_CLASS_PINS = [
    (3, [4, 5], [4], "118d0131c744873b"),
    (3, [4, 5], [5], "6a98bca87e08ee01"),
    (4, [6, 7], [6], "2eeb4bd359c107c9"),
    (4, [6, 7], [7], "94b801bb0c98eec6"),
    (5, [6, 7, 8, 9], [6, 7], "12a8c1ef780b3690"),
    (5, [6, 7, 8, 9], [6, 8], "0ea11336dcc49b4c"),
    (5, [6, 7, 8, 9], [6, 9], "5e58554c39aab5c2"),
    (5, [6, 7, 8, 9], [7, 8], "f5795c7b01e07c61"),
    (5, [6, 7, 8, 9], [7, 9], "0891ffa2a7f412cf"),
    (5, [6, 7, 8, 9], [8, 9], "c7224408bc47d0c2"),
    (5, [8, 9], [8], "031c342f3b8ac5c5"),
    (5, [8, 9], [9], "ba7ba8db1d7baa8c"),
]


class TestChainPins:
    """The chains send each vertex through the block formulas in turn; the
    maps are pinned to the ones composed from the intermediate graphs."""

    @pytest.mark.parametrize("n,s,t,digest", REGULAR_CHAIN_PINS)
    def test_regular_component_to_middle(self, n, s, t, digest):
        vmap = regular_component_to_middle(n, s, t)
        assert mapping_digest(vmap) == digest
        assert vmap.verify()

    @pytest.mark.parametrize("n,s,t,digest", MIDDLE_CLASS_PINS)
    def test_middle_class_to_middle(self, n, s, t, digest):
        vmap = middle_class_to_middle(n, s, t)
        assert mapping_digest(vmap) == digest
        assert vmap.verify()


class TestLiftCircuit:
    def test_odd_base_gives_single_doubled(self, odd3, middle3):
        c5 = brute_force_cycle(odd3, 5)
        lift = lift_circuit(c5)
        assert lift.kind == "single"
        assert lift.circuits[0].length == 10
        assert lift.circuits[0].closed

    def test_even_base_splits_in_two(self, odd3, middle3):
        c6 = brute_force_cycle(odd3, 6)
        lift = lift_circuit(c6)
        assert lift.kind == "pair"
        assert [c.length for c in lift.circuits] == [6, 6]
        assert lift.antipodal
        first, second = lift.circuits
        assert [x.complement() for x in first.blocks()] == list(second.blocks())
        cm = cover_map(5, 2)
        base = list(c6.blocks())
        for circuit in lift.circuits:
            assert [cm.apply(x) for x in circuit.blocks()] == base

    def test_projection_reproduces_base(self, odd3, middle3):
        cm = cover_map(5, 2)
        c5 = brute_force_cycle(odd3, 5)
        lifted = lift_circuit(c5).circuits[0]
        projected = [cm.apply(x) for x in lifted.blocks()]
        base = list(c5.blocks())
        assert projected == base + base

    def test_starts_at_lex_smaller_preimage(self, odd3, middle3):
        c5 = brute_force_cycle(odd3, 5)
        lifted = lift_circuit(c5).circuits[0]
        v0 = c5.blocks()[0]
        lo = min(v0, v0.complement(), key=Block.elements)
        assert lifted.blocks()[0] == lo

    def test_open_walk_rejected(self, odd3):
        p = PathSeq.from_blocks(odd3, [b([1, 2], 5), b([3, 4], 5)], closed=False)
        with pytest.raises(ParameterError):
            lift_circuit(p)

    def test_non_simple_closed_walks_lift_and_project(self, odd3, middle3):
        import random

        cm = cover_map(5, 2)
        rng = random.Random(11)
        walks_found = 0
        for _ in range(200):
            walk = [0]
            for _step in range(rng.randrange(3, 12)):
                walk.append(rng.choice(odd3.neighbors(walk[-1])))
            if walk[-1] != walk[0] or not odd3.has_edge(walk[-2], walk[-1]):
                continue
            walk.pop()  # closing edge is implicit
            if len(set(walk)) == len(walk):
                continue  # want genuinely non-simple walks here
            walks_found += 1
            seq = PathSeq.from_indices(odd3, walk, closed=True)
            lift = lift_circuit(seq)
            base = list(seq.blocks())
            expect_single = len(walk) % 2 == 1
            assert (lift.kind == "single") == expect_single
            for circuit in lift.circuits:
                assert circuit.closed
                projected = [cm.apply(x) for x in circuit.blocks()]
                assert projected == (base + base if expect_single else base)
        assert walks_found >= 5


def lift_cases():
    """(graph, cycle indices) on odd(3..5): short cycles found by DFS and
    seeded Hamiltonian cycles, each also from its first vertex without
    element 1, whose lift starts at the complement."""
    from kneserlab.hamilton import SearchBudget, find_hamiltonian_cycle

    for n, lengths, seeds in ((3, (5, 6, 8, 9), ()), (4, (6, 7), (1, 2)),
                              (5, (6, 9), (1, 2))):
        g = build(Family.odd(n))
        cycles = [brute_force_cycle(g, length).indices for length in lengths]
        for seed in seeds:
            found = find_hamiltonian_cycle(
                g, SearchBudget(max_nodes=20_000, seed=seed))
            cycles.append(found.cycle.indices)
        for c in cycles:
            k = next(i for i, x in enumerate(c) if not g.vertices[x].bits & 1)
            yield g, list(c)
            yield g, list(c[k:] + c[:k])


def lift_digest(lift) -> str:
    facts = (lift.kind, lift.antipodal, [
        (str(c.graph.family), c.indices, c.closed, c.labels)
        for c in lift.circuits
    ])
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


class TestLiftPins:
    """lift_circuit's circuits, indices and labels, as the Block-based
    lift computed them before the lift moved onto masks."""

    DIGESTS = [
        "70dce222fcaabb98", "a3eb0c9c2ccf5345", "a13c9b4de06b9968",
        "b63b9ca501320025", "94fa2229120af2c0", "e1d6adc4ce4cb7e3",
        "01056d357d145b5e", "0dee4d29765c5561", "8ebd138f49d5a084",
        "d5da65899c2bf4f8", "56581a563a669b15", "424730d3d115fbfe",
        "1a95416df5c5666a", "eeb915c5cb351cb3", "01b63a4d3589f46b",
        "a33842347472486f", "db7115b907e55ddb", "5148f06ba581b33e",
        "5070bd3707c84547", "6095d2052dd9336d", "3f1fd77a820db425",
        "673663479a52ed93", "1bc195fe0f06e058", "45b35e3a866b3719",
    ]

    def test_lifts_unchanged(self):
        got = [
            lift_digest(lift_circuit(PathSeq.from_indices(g, c, closed=True)))
            for g, c in lift_cases()
        ]
        assert got == self.DIGESTS


# (maps checked, digest of their (source mask, image mask) pairs in the
# order checked) for every map the suite checks at its cap depth, recorded
# from the Block-keyed maps before maps became index arrays
SUITE_MAP_PINS = {
    "covers": (11, "8473e467a73bbac9"),
    "isomorphisms": (28, "35b3d726d359357b"),
    "superstructure": (16, "469d0262fd129faa"),
}


class TestSuiteMapPins:
    @pytest.mark.parametrize("suite", sorted(SUITE_MAP_PINS))
    def test_maps_unchanged(self, suite, monkeypatch):
        from kneserlab import cli, morphisms

        seen = []
        verify, cover_check = morphisms.VertexMap.verify, morphisms.verify_cover

        def recording_verify(vmap):
            seen.append(map_pairs(vmap))
            return verify(vmap)

        def recording_cover(vmap, *args, **kwargs):
            seen.append(map_pairs(vmap))
            return cover_check(vmap, *args, **kwargs)

        monkeypatch.setattr(morphisms.VertexMap, "verify", recording_verify)
        monkeypatch.setattr(morphisms, "verify_cover", recording_cover)
        assert cli.run_suite(suite, 64).exit_status == 0
        digest = hashlib.sha256(repr(seen).encode()).hexdigest()[:16]
        assert (len(seen), digest) == SUITE_MAP_PINS[suite]


def with_images(vmap, images, kind=None):
    return VertexMap(vmap.source, vmap.target, tuple(images),
                     kind=kind or vmap.kind, name=vmap.name)


def with_extra_edge(g):
    """g plus one edge between two non-adjacent vertices, and its ends."""
    i = 0
    j = next(j for j in range(1, g.n_vertices) if not g.has_edge(i, j))
    edges = list(g.edges()) + [(i, j, None)]
    return graph_from_edges(g.ground, g.vertices, edges), i


class TestCheckMutants:
    """Broken maps next to verified ones: every check must catch them, and
    the covering check with the failure text it gives for that fault."""

    @pytest.mark.parametrize("build_map", [
        lambda: middle_component_iso(2),
        lambda: kappa(3),
        lambda: regular_component_to_middle(4, [6, 7], [6]),
        lambda: perm_automorphism(build(Family.odd(3)), Perm.cycle(5, range(1, 6))),
    ], ids=["middle-component", "kappa", "regular-chain", "rotation"])
    def test_two_swapped_images(self, build_map):
        # on graphs where no two vertices share their neighbours
        vmap = build_map()
        assert vmap.verify()
        n = vmap.source.n_vertices
        for i in range(n):
            for j in range(i + 1, n):
                images = list(vmap.images)
                images[i], images[j] = images[j], images[i]
                g, h = vmap.source, vmap.target
                assert not is_isomorphism(g, h, images), (i, j)
                assert not with_images(vmap, images).verify()

    def test_edge_sent_to_non_edge(self, odd3):
        for i, j, _ in odd3.edges():
            images = list(range(odd3.n_vertices))
            images[i] = j  # the edge (i, j) lands on a single vertex
            assert not is_morphism(odd3, odd3, images)
            assert not is_isomorphism(odd3, odd3, images)
        emb = embed_middle_in_odd(2)
        assert emb.verify()
        i, j, _ = next(emb.source.edges())
        images = list(emb.images)
        images[i] = next(x for x in range(emb.target.n_vertices)
                         if x not in emb.target.neighbor_table[images[j]])
        assert not with_images(emb, images).verify()

    def test_bijective_morphism_onto_more_edges(self, odd3):
        bigger, _ = with_extra_edge(odd3)
        identity = tuple(range(odd3.n_vertices))
        assert is_morphism(odd3, bigger, identity)
        assert not is_isomorphism(odd3, bigger, identity)
        assert not VertexMap(odd3, bigger, identity, kind="isomorphism").verify()
        assert not is_morphism(bigger, odd3, identity)  # the inverse

    def test_wrapping_onto_a_same_size_graph_is_not_an_isomorphism(self, middle2):
        # the hexagon wraps twice around a triangle; three isolated
        # vertices pad the target to six, and every row still matches
        h = graph_from_edges(
            6, [b([i], 6) for i in range(1, 7)],
            [(0, 1, None), (1, 2, None), (0, 2, None)],
        )
        order = [0, 2, 1, 5, 3, 4]  # the walk around middle(2)
        images = [0] * 6
        for step, i in enumerate(order):
            images[i] = step % 3
        assert is_morphism(middle2, h, images)
        assert not is_isomorphism(middle2, h, images)

    def test_cover_folding_a_star(self):
        # a 4-cycle folded onto one edge: fibers of two, a morphism, but
        # both edges at each vertex land on the one edge at its image
        square = graph_from_edges(
            4, [b([i], 4) for i in range(1, 5)],
            [(0, 1, None), (1, 2, None), (2, 3, None), (3, 0, None)],
        )
        edge = graph_from_edges(2, [b([1], 2), b([2], 2)], [(0, 1, None)])
        rep = verify_cover(VertexMap(square, edge, (0, 1, 0, 1), kind="covering"), 2)
        assert rep.details["fiber"] == 2
        assert rep.failures == ["edges at {1} not bijective onto edges at {1}"]

    def test_cover_with_uneven_fiber(self):
        cm = cover_map(5, 2)
        assert verify_cover(cm, 2).ok
        images = list(cm.images)
        images[0] = images[0] + 1 if images[0] + 1 < cm.target.n_vertices else 0
        rep = verify_cover(with_images(cm, images), 2)
        assert not rep.ok
        assert rep.failures[0] == "fiber size not constant"

    def test_cover_sending_an_edge_to_a_non_edge(self):
        cm = cover_map(5, 2)
        src = cm.source
        i = 0
        j = next(j for j in range(src.n_vertices)
                 if cm.images[j] != cm.images[i]
                 and not cm.target.has_edge(cm.images[j], cm.images[i]))
        images = list(cm.images)
        images[i], images[j] = images[j], images[i]  # fibers stay even
        rep = verify_cover(with_images(cm, images), 2)
        assert rep.failures == ["not a morphism"]

    def test_cover_whose_star_is_not_a_bijection(self, odd3):
        bigger, end = with_extra_edge(odd3)
        identity = tuple(range(odd3.n_vertices))
        rep = verify_cover(VertexMap(odd3, bigger, identity, kind="covering"))
        v = odd3.vertices[end]
        assert rep.failures == [f"edges at {v} not bijective onto edges at {v}"]
        assert rep.details["fiber"] == 1

    def test_cover_not_total_or_outside_target(self):
        cm = cover_map(5, 2)
        rep = verify_cover(with_images(cm, cm.images[:-1]))
        assert rep.failures == ["map not total"]
        rep = verify_cover(with_images(cm, cm.images + (0,)))
        assert rep.failures == ["map too long"]
        outside = cm.target.n_vertices
        rep = verify_cover(with_images(cm, cm.images[:-1] + (outside,)))
        assert rep.failures == [f"image {outside} outside target"]

    def test_longer_map_rejected(self, odd3):
        with pytest.raises(ParameterError):
            is_morphism(odd3, odd3, list(range(odd3.n_vertices)) + [0])


class TestGenericDoubleCover:
    def test_triangle_lifts_to_hexagon(self):
        tri = build(Family.kneser(3, 1))
        cover, vmap = generic_double_cover(tri)
        assert cover.n_vertices == 6
        assert cover.n_edges == 6
        assert girth(cover) == 6
        assert verify_cover(vmap, expected_fiber=2).ok

    def test_bipartite_base_splits(self):
        square = graph_from_edges(
            4,
            [b([1], 4), b([2], 4), b([3], 4), b([4], 4)],
            [(0, 1, None), (1, 2, None), (2, 3, None), (3, 0, None)],
        )
        cover, vmap = generic_double_cover(square)
        from kneserlab.graphs import components

        assert [c.n_vertices for c in components(cover)] == [4, 4]
        assert verify_cover(vmap, expected_fiber=2).ok

    def test_odd3_cover_is_middle3(self, odd3, middle3):
        cover, vmap = generic_double_cover(odd3)
        assert verify_cover(vmap, expected_fiber=2).ok
        iso = find_isomorphism(cover, middle3)
        assert iso is not None and iso.verified


class TestFindIsomorphism:
    def test_finds_automorphism_with_pin(self, odd3):
        iso = find_isomorphism(odd3, odd3, pin={0: 5})
        assert iso is not None and iso.verified
        assert iso.apply(odd3.vertices[0]) == odd3.vertices[5]

    def test_distinguishes_non_isomorphic(self):
        hexagon = build(Family.middle_levels(2))
        two_triangles = graph_from_edges(
            6,
            [b([i], 6) for i in range(1, 7)],
            [(0, 1, None), (1, 2, None), (0, 2, None),
             (3, 4, None), (4, 5, None), (3, 5, None)],
        )
        assert find_isomorphism(hexagon, two_triangles) is None

    def test_size_cap_enforced(self, odd4):
        with pytest.raises(ParameterError):
            find_isomorphism(odd4, odd4)


@pytest.mark.parametrize("bad", [True, 1.0, "2", -1, 99],
                         ids=["bool", "float", "str", "minus-one", "large"])
def test_non_vertex_image_or_pin_refused(odd3, bad):
    # on the triangle odd(2), (0, 1, 2) is an automorphism: True must not
    # be read as vertex 1, nor a float or string raise TypeError
    tri = build(Family.odd(2))
    images = (0, bad, 2)
    assert not is_morphism(tri, tri, images)
    assert not is_isomorphism(tri, tri, images)
    rep = verify_cover(VertexMap(tri, tri, images, kind="covering"))
    assert rep.failures == [f"image {bad!r} outside target"]
    for pin in ({0: bad}, {bad: 0}):
        with pytest.raises(ParameterError, match="^vertex index "):
            find_isomorphism(odd3, odd3, pin=pin)
    with pytest.raises(ParameterError, match="^vertex index "):
        embed_indices(build(Family.middle_levels(2)), odd3, [bad])
