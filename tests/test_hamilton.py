"""Search kernel, cycle verification, and the recursion pipeline."""

import hashlib
import random
import sys
import time
import types
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from kneserlab import _hamcore_py, decompose, graphs, hamilton
from kneserlab.decompose import canonical_colors, remainder_graph, trace_classes
from kneserlab.errors import ParameterError
from kneserlab.graphs import (
    Family,
    LabeledGraph,
    build,
    graph_from_edges,
    holding_families,
)
from kneserlab.hamilton import (
    EXHAUSTED_BUDGET,
    FOUND,
    NONE,
    PipelineReport,
    SearchBudget,
    SearchResult,
    SpliceFrame,
    find_hamiltonian_cycle,
    kernel_name,
    recursion_pipeline,
    verify_cycle,
)
from kneserlab.morphisms import LiftResult, embed_middle_in_odd
from kneserlab.setcore import Block, binomial, catalan
from kneserlab.superstructure import two_color_middle, two_color_path

b = Block.from_elements


class TestSearchBudget:
    def test_limits_must_be_positive(self):
        with pytest.raises(ParameterError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ParameterError):
            SearchBudget(max_seconds=0)

    def test_nan_time_limit_rejected(self):
        with pytest.raises(ParameterError):
            SearchBudget(max_seconds=float("nan"))

    def test_infinite_time_limit_allowed(self, odd3):
        budget = SearchBudget(max_seconds=float("inf"))
        assert find_hamiltonian_cycle(odd3, budget).status == NONE

    @pytest.mark.parametrize("max_nodes, message", [
        (float("nan"), "max_nodes must be an int"),
        (True, "max_nodes must be an int"),
        (2.5, "max_nodes must be an int"),
        (5.0, "max_nodes must be an int"),
        ("5", "max_nodes must be an int"),
        (None, "max_nodes must be an int"),
        (-3, "budget limits must be positive"),
    ], ids=["nan", "bool", "fraction", "float", "str", "none", "negative"])
    def test_node_limit_must_be_a_positive_int(self, max_nodes, message):
        with pytest.raises(ParameterError, match=message):
            SearchBudget(max_nodes=max_nodes)

    @pytest.mark.parametrize("max_seconds, message", [
        ("1", "max_seconds must be an int or a float"),
        (True, "max_seconds must be an int or a float"),
        (None, "max_seconds must be an int or a float"),
        (float("-inf"), "budget limits must be positive"),
        (-1, "budget limits must be positive"),
        (10**400, "too large for a float"),
    ], ids=["str", "bool", "none", "minus-inf", "negative", "huge-int"])
    def test_time_limit_must_be_a_positive_number(self, max_seconds, message):
        with pytest.raises(ParameterError, match=message):
            SearchBudget(max_seconds=max_seconds)

    @pytest.mark.parametrize("seed", [None, False, 1.0, "0"],
                             ids=["none", "bool", "float", "str"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ParameterError, match="seed must be an int"):
            SearchBudget(seed=seed)

    def test_int_and_float_limits_accepted(self):
        budget = SearchBudget(max_nodes=1, max_seconds=600, seed=-7)
        assert (budget.max_nodes, budget.max_seconds, budget.seed) == (1, 600, -7)
        assert SearchBudget(max_seconds=0.5).max_seconds == 0.5


class TestFindCycle:
    def test_petersen_proved_non_hamiltonian(self, odd3):
        result = find_hamiltonian_cycle(
            odd3, SearchBudget(max_nodes=10**6, max_seconds=1.0)
        )
        assert result.status == NONE
        assert result.nodes <= 10**6
        assert result.elapsed <= 1.0

    def test_hexagon_found(self, middle2):
        result = find_hamiltonian_cycle(middle2)
        assert result.status == FOUND
        assert result.cycle is not None
        assert result.cycle.length == 6
        assert verify_cycle(middle2, result.cycle)

    def test_odd4_found(self, odd4):
        result = find_hamiltonian_cycle(odd4, SearchBudget(max_seconds=60))
        assert result.status == FOUND
        assert result.cycle is not None
        assert len(result.cycle.indices) == 35
        assert verify_cycle(odd4, result.cycle)

    def test_recursion_limit_left_alone(self, odd4, monkeypatch):
        def refuse(limit):
            pytest.fail(f"search set the recursion limit to {limit}")

        before = sys.getrecursionlimit()
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        result = find_hamiltonian_cycle(odd4)
        assert result.status == FOUND
        assert verify_cycle(odd4, result.cycle)
        assert sys.getrecursionlimit() == before

    def test_disconnected_is_immediate_none(self):
        g = graph_from_edges(
            4,
            [b([1], 4), b([2], 4), b([3], 4), b([4], 4)],
            [(0, 1, None), (2, 3, None)],
        )
        result = find_hamiltonian_cycle(g)
        assert result.status == NONE
        assert result.reason == "disconnected input"
        assert result.nodes == 0

    def test_budget_exhaustion_reported(self, odd5):
        result = find_hamiltonian_cycle(
            odd5, SearchBudget(max_nodes=50, max_seconds=60)
        )
        assert result.status in (EXHAUSTED_BUDGET, FOUND)
        if result.status == EXHAUSTED_BUDGET:
            assert result.cycle is None

    def test_deterministic_under_seed(self, odd4):
        r1 = find_hamiltonian_cycle(odd4, SearchBudget(seed=0))
        r2 = find_hamiltonian_cycle(odd4, SearchBudget(seed=0))
        assert r1.cycle is not None and r2.cycle is not None
        assert r1.cycle.indices == r2.cycle.indices
        assert r1.nodes == r2.nodes

    def test_exhaustive_proof_reproducible(self, odd3):
        runs = [find_hamiltonian_cycle(odd3) for _ in range(3)]
        assert all(r.status == NONE for r in runs)
        assert len({r.nodes for r in runs}) == 1

    def test_elapsed_counts_the_tie_ranks(self, odd3, monkeypatch):
        ranks = hamilton._tie_break_ranks

        def slow_ranks(n, seed):
            time.sleep(0.05)
            return ranks(n, seed)

        monkeypatch.setattr(hamilton, "_tie_break_ranks", slow_ranks)
        assert find_hamiltonian_cycle(odd3).elapsed >= 0.05


class TestTieBreakRanks:
    """The ranks are exactly random.Random(seed).shuffle's permutation, so
    that a change to shuffle shows here and not in the node-count pins."""

    def shuffled(self, n, seed):
        rank = list(range(n))
        random.Random(seed).shuffle(rank)
        return rank

    def test_small_orders(self):
        for n in range(301):
            for seed in range(5):
                assert hamilton._tie_break_ranks(n, seed) == self.shuffled(n, seed)

    # the orders of middle(6) and odd(7)
    @pytest.mark.parametrize("n", [924, 1716])
    def test_graph_orders(self, n):
        for seed in range(8):
            assert hamilton._tie_break_ranks(n, seed) == self.shuffled(n, seed)


def held_karp_hamiltonian(g) -> bool:
    """Exact Hamiltonicity by the Bellman / Held-Karp bitmask DP.

    reach[mask] holds, as a bitmask, the vertices v != 0 that end a path
    starting at vertex 0 and visiting exactly the vertices of mask.  A
    single vertex counts as a trivial cycle and two vertices do not, the
    conventions of verify_cycle.
    """
    n = g.n_vertices
    if n <= 2:
        return n == 1
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(n)]
    reach = [0] * (1 << n)
    reach[1] = 1  # the path that is vertex 0 alone ends at 0
    for mask in range(3, 1 << n, 2):
        ends = 0
        rest = mask & ~1
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & reach[mask ^ low]:
                ends |= low
            rest ^= low
        reach[mask] = ends
    return bool(reach[(1 << n) - 1] & adj[0])


def small_graph(nv: int, edges):
    """Unlabeled graph on the singletons of [nv], nv <= 16."""
    return graph_from_edges(16, [b([i], 16) for i in range(1, nv + 1)], edges)


class TestExactOracle:
    def test_oracle_on_known_graphs(self, odd3, middle2):
        complete = [(i, j, None) for i in range(5) for j in range(i + 1, 5)]
        ring = [(i, (i + 1) % 7, None) for i in range(7)]
        star = [(0, j, None) for j in range(1, 6)]
        assert held_karp_hamiltonian(small_graph(5, complete))
        assert held_karp_hamiltonian(small_graph(7, ring))
        assert not held_karp_hamiltonian(small_graph(7, ring[:-1]))  # a path
        assert not held_karp_hamiltonian(small_graph(6, star))
        assert held_karp_hamiltonian(middle2)  # the hexagon
        assert not held_karp_hamiltonian(odd3)  # the Petersen graph

    def test_search_agrees_with_oracle_on_random_graphs(self, odd3):
        rng = random.Random(2024)
        statuses = set()
        for trial in range(1300):  # 20 graphs per size and density
            nv = trial % 13 + 1
            p = (0.15, 0.3, 0.45, 0.6, 0.8)[trial // 13 % 5]
            g = small_graph(nv, [
                (i, j, None)
                for i in range(nv)
                for j in range(i + 1, nv)
                if rng.random() < p
            ])
            budget = SearchBudget(max_nodes=10**6, max_seconds=60, seed=trial)
            result = find_hamiltonian_cycle(g, budget)
            assert result.status != EXHAUSTED_BUDGET
            assert (result.status == FOUND) == held_karp_hamiltonian(g), (
                f"trial {trial}: {nv} vertices, p={p}, search {result.status}"
            )
            if not result.reason:  # the kernel ran, not a shortcut
                statuses.add(result.status)
        assert statuses == {FOUND, NONE}  # both outcomes from the kernel
        petersen = find_hamiltonian_cycle(odd3, SearchBudget(max_nodes=10**6))
        assert petersen.status == NONE
        assert not held_karp_hamiltonian(odd3)

    def test_search_agrees_with_oracle_up_to_sixteen_vertices(self):
        # the oracle keeps one bitmask per subset, so 16 vertices cost it
        # about 0.05 s; at these sparse densities the kernel itself, with
        # no shortcut reason, proves some graph of every size has no cycle
        rng = random.Random(1416)
        proved = set()
        for trial in range(24):  # 2 graphs per size and density
            nv = 14 + trial % 3
            p = (0.25, 0.3, 0.35, 0.45)[trial // 6]
            g = small_graph(nv, [
                (i, j, None)
                for i in range(nv)
                for j in range(i + 1, nv)
                if rng.random() < p
            ])
            budget = SearchBudget(max_nodes=10**6, max_seconds=60, seed=trial)
            result = find_hamiltonian_cycle(g, budget)
            assert result.status != EXHAUSTED_BUDGET
            assert (result.status == FOUND) == held_karp_hamiltonian(g), (
                f"trial {trial}: {nv} vertices, p={p}, search {result.status}"
            )
            if result.status == NONE and not result.reason:
                proved.add(nv)
        assert proved == {14, 15, 16}


class TestVerifyCycle:
    def test_accepts_search_output(self, odd4):
        result = find_hamiltonian_cycle(odd4)
        assert verify_cycle(odd4, result.cycle)

    def test_rejects_repeat(self, odd3):
        assert not verify_cycle(odd3, [0, 1, 2, 3, 4, 5, 6, 7, 8, 8])
        # one entry per vertex and every step an edge: only the repeats
        # tell this closed walk from a Hamiltonian cycle
        walk = [0, 5] * 5
        assert len(walk) == odd3.n_vertices
        assert all(odd3.has_edge(x, y) for x, y in zip(walk, walk[1:] + walk[:1]))
        assert not verify_cycle(odd3, walk)

    def test_rejects_partial_cover(self, odd3):
        assert not verify_cycle(odd3, list(range(9)))

    def test_rejects_hamiltonian_path_that_cannot_close(self, odd3):
        # the Petersen graph has Hamiltonian paths but no Hamiltonian
        # cycle, so any full-cover path must fail at the closing step
        path = [0]
        seen = {0}

        def dfs():
            if len(path) == odd3.n_vertices:
                return True
            for y in odd3.neighbors(path[-1]):
                if y not in seen:
                    path.append(y)
                    seen.add(y)
                    if dfs():
                        return True
                    seen.discard(y)
                    path.pop()
            return False

        assert dfs()
        assert not verify_cycle(odd3, path)

    def test_rejects_non_edges(self, odd3):
        assert not verify_cycle(odd3, list(range(10)))

    @pytest.mark.parametrize("cycle", [[True, 0, 2], [0, 1.0, 2], [0, "1", 2]],
                             ids=["bool", "float", "str"])
    def test_rejects_non_int_entries(self, cycle):
        # [0, 1, 2] is a Hamiltonian cycle of the triangle odd(2); True
        # must not be read as vertex 1, nor 1.0 or "1" raise TypeError
        g = build(Family.odd(2))
        assert verify_cycle(g, [0, 1, 2])
        assert not verify_cycle(g, cycle)


class TestPipeline:
    def test_base_non_hamiltonian_falls_back(self):
        rep = recursion_pipeline(4, SearchBudget(max_seconds=60))
        assert rep.base_search.status == NONE
        assert rep.fallback_search is not None
        assert rep.fallback_search.status == FOUND
        assert any("falling back" in note for note in rep.notes)

    def test_lift_and_embed_round(self):
        rep = recursion_pipeline(5, SearchBudget(max_seconds=60))
        assert rep.base_search.status == FOUND
        assert rep.lift is not None
        assert rep.lift.kind == "single"
        assert rep.embedded_lengths == (70,)
        assert rep.lifted_is_hamiltonian_middle
        assert rep.embedded_vertex_count == 70
        assert rep.remainder_size == 56
        assert not rep.remainder_odd
        assert rep.connector_count == 70
        assert rep.connectors_complete
        # antipodal pairs share their connector path, so collisions exist
        assert rep.middle_vertex_collisions == 35

    def test_middle_start_round(self):
        # the middle-category round: a Hamiltonian cycle of middle(3)
        # embeds into odd(4) covering 20 of 35 vertices, remainder 15,
        # and its onward lift splits into an antipodal pair in middle(4)
        rep = recursion_pipeline(4, SearchBudget(max_seconds=60), start="middle")
        assert rep.base_search.status == FOUND
        assert rep.embedded_lengths == (20,)
        assert rep.embedded_vertex_count == 20
        assert rep.remainder_size == 15
        assert rep.connectors_complete and rep.connector_count == 20
        assert rep.lift is not None and rep.lift.kind == "pair"
        assert [c.length for c in rep.lift.circuits] == [20, 20]
        assert rep.lift.antipodal

    @pytest.mark.parametrize("antipodal, kind", [
        (True, "two antipodal circuits"), (False, "two circuits")])
    def test_summary_names_a_pair_antipodal_only_when_measured(
            self, antipodal, kind):
        rep = recursion_pipeline(4, SearchBudget(max_seconds=60), start="middle")
        rep.lift = LiftResult(rep.lift.circuits, antipodal=antipodal)
        assert f"  lift: {kind} of length 20, 20" in rep.summary_lines()

    def test_counts_give_parity_and_completeness(self):
        rep = PipelineReport(4, "odd", SearchResult(NONE, None, 0, 0.0))
        assert not rep.remainder_odd and not rep.connectors_complete
        rep.remainder_size, rep.connector_count = 15, 19
        rep.embedded_vertex_count = 20
        assert rep.remainder_odd and not rep.connectors_complete
        rep.connector_count = 20
        assert rep.connectors_complete

    def test_bad_start_rejected(self):
        with pytest.raises(ParameterError):
            recursion_pipeline(4, start="sideways")

    def test_connectors_collide_in_pairs(self):
        # The connector of an embedded vertex v is the middle vertex of the
        # two-color path from v to its image w under the transposition of
        # the two deleted colors, the complement of v | w.  The path from w
        # leads back to v through the same vertex, so every middle vertex
        # is reached exactly twice: collisions are half the connectors.
        rounds = ([(5, start, seed) for start in ("odd", "middle")
                   for seed in range(6)]
                  + [(6, "odd", seed) for seed in range(6)]
                  + [(6, "middle", seed) for seed in (0, 7, 12)])
        found = {}
        for n, start, seed in rounds:
            budget = SearchBudget(max_nodes=20_000, seed=seed)
            rep = recursion_pipeline(n, budget, start=start)
            if rep.base_search.status != FOUND:
                continue
            found[n, start] = found.get((n, start), 0) + 1
            assert rep.connector_count > 0, (n, start, seed)
            assert rep.middle_vertex_collisions * 2 == rep.connector_count, (
                n, start, seed)
        # the seeds cover both starts at both sizes
        assert found == {(5, "odd"): 6, (5, "middle"): 6,
                         (6, "odd"): 5, (6, "middle"): 2}

    def test_lift_projects_back_onto_base_twice(self, odd4):
        from kneserlab.morphisms import cover_map, lift_circuit

        result = find_hamiltonian_cycle(odd4)
        lift = lift_circuit(result.cycle)
        assert lift.kind == "single"
        cm = cover_map(7, 3)
        projected = [cm.target.vertices[cm.images[cm.source.index_of(x)]]
                     for x in lift.circuits[0].blocks()]
        base = list(result.cycle.blocks())
        assert projected == base + base

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            recursion_pipeline(2)


def embedded_middle(n):
    """odd(n), the canonical colors S and the odd(n) indices of the
    embedded middle(n-1): the vertices whose connectors an odd-start round
    into odd(n) reads, whatever its base cycle."""
    odd_up = build(Family.odd(n))
    return odd_up, canonical_colors(n, 2), embed_middle_in_odd(n - 1).images


class TestConnectorMap:
    """The round reads the connector of an embedded vertex x from its mask:
    p(x) = [2n-1] - (x | S), with S the two canonical colors."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_connector_is_the_two_color_path_middle(self, n):
        odd_up, s, embedded = embedded_middle(n)
        a, c = s.elements()
        for i in embedded:
            path = two_color_path(odd_up, odd_up.vertices[i], a, c)
            assert (two_color_middle(odd_up.masks[i], s.bits, odd_up.ground)
                    == odd_up.masks[path.indices[1]])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_connectors_cover_the_empty_trace_side_twice(self, n):
        odd_up, s, embedded = embedded_middle(n)
        rows, index = odd_up.neighbor_table, odd_up.index
        hits = Counter()
        for i in embedded:
            p = two_color_middle(odd_up.masks[i], s.bits, odd_up.ground)
            assert index[p] in rows[i]
            hits[p] += 1
        classes = trace_classes(odd_up, s)
        u_side, w_side = classes[0], classes[s.bits]
        assert sorted(map(index.__getitem__, hits)) == u_side
        assert set(hits.values()) == {2}
        assert len(u_side) - len(w_side) == catalan(n - 1)

    @pytest.mark.parametrize("start, seed", [("odd", 5), ("middle", 12)])
    def test_round_makes_no_block_view(self, fresh_live, start, seed):
        with holding_families():
            rep = recursion_pipeline(
                6, SearchBudget(max_nodes=20_000, seed=seed), start=start)
            odd_up = build(Family.odd(6))
        assert rep.base_search.status == FOUND and rep.connectors_complete
        assert "vertices" not in vars(odd_up)


def _search_facts(r):
    if r is None:
        return None
    return (r.status, r.nodes, kernel_name(), r.reason,
            None if r.cycle is None else _path_facts(r.cycle))


def _path_facts(p):
    return (str(p.graph.family), p.indices, p.closed, p.labels)


def report_digest(rep) -> str:
    """SHA-256 prefix of every deterministic PipelineReport field: all of
    them but the stage times, with the searches' cycles and the lift's
    circuits as index and label sequences."""
    lift = rep.lift
    facts = (
        rep.n, rep.start, _search_facts(rep.base_search),
        None if lift is None else (
            lift.kind, lift.antipodal, [_path_facts(c) for c in lift.circuits]),
        rep.embedded_lengths, rep.embedded_vertex_count,
        rep.lifted_is_hamiltonian_middle, rep.remainder_size, rep.remainder_odd,
        rep.connector_count, rep.connectors_complete,
        rep.middle_vertex_collisions, _search_facts(rep.fallback_search),
        rep.notes,
    )
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


class TestPipelinePins:
    """Every report field of the rounds into odd(3..6), from both starts on
    tie seeds 0..7 at a 20,000-node budget, as the Block-based rounds
    computed them before the rounds moved onto masks."""

    DIGESTS = {
        (3, "odd"): [
            "3a78832955fffd77", "3a78832955fffd77", "3a78832955fffd77",
            "3a78832955fffd77", "3a78832955fffd77", "874e3172806820cb",
            "874e3172806820cb", "874e3172806820cb"],
        (3, "middle"): [
            "57a70ec77a6f18e8", "fcf7252b41a52530", "57a70ec77a6f18e8",
            "57a70ec77a6f18e8", "fcf7252b41a52530", "fcf7252b41a52530",
            "fcf7252b41a52530", "fcf7252b41a52530"],
        (4, "odd"): [
            "fa1fb63f59a67c32", "d0270726bd7c6835", "7aed9c9df9a1cf9c",
            "c3e8d6d0f8c8f671", "6e5aeec9353082aa", "b8666339d37bc0a3",
            "5e5f917aab27d683", "70bb586795fd16fd"],
        (4, "middle"): [
            "d07285c38ac7bad0", "37e9f3f462beadf1", "7fdcd7878dda0e81",
            "d3f38c1ad2ce9209", "bdf9c04cb4fad533", "088e34da6da1f72d",
            "cceb983ceeff8913", "038776d4e441d4fb"],
        (5, "odd"): [
            "af0d2ac48a5695b1", "f7b6e7fb6c2f468a", "d6cdee01e78396b5",
            "6507b9c7a40ef5bb", "1fa2b6146c546ee7", "8e1dc4ad29346f5d",
            "fee45da3eedf70e5", "acec54dd61f41c55"],
        (5, "middle"): [
            "4b3266a9b98167e0", "5749682cb0a5dcd1", "5e712fccec9ae8d7",
            "327a6f33ebb0e3d0", "0a5b4e259968c50d", "b171b116c4092acd",
            "6ce9e881c4bbc013", "b7491481393f4267"],
        (6, "odd"): [
            "a255f7515ee69c53", "7d47929a5a473217", "5c7590d394b8124a",
            "29b36637732ea10c", "f5480e85079bce80", "1cd125794526a53d",
            "35309cb413d4f94d", "7b3e92ed444d0bca"],
        (6, "middle"): [
            "73a35467248ae28e", "73a35467248ae28e", "73a35467248ae28e",
            "73a35467248ae28e", "73a35467248ae28e", "73a35467248ae28e",
            "73a35467248ae28e", "79ede53396243ec9"],
    }

    @pytest.mark.parametrize("n,start", list(DIGESTS))
    def test_reports_unchanged(self, n, start):
        got = [
            report_digest(recursion_pipeline(
                n, SearchBudget(max_nodes=20_000, seed=seed), start=start))
            for seed in range(8)
        ]
        assert got == self.DIGESTS[n, start]


class TestSpliceFrame:
    """odd(n)'s memo keeps the frame that the first round into odd(n)
    computes: the images of middle(n-1), the embedded count, the remainder
    size and the connector counts.  Every later round into that odd(n)
    reads it; a round whose base search finds no cycle builds no
    middle(n-1) and computes no frame."""

    KEY = ("frame",)
    # a tie seed whose base search finds a cycle within 20,000 nodes; odd(3)
    # has no Hamiltonian cycle, and neither odd(6) nor middle(6) gave one
    # within 100,000 nodes on tie seeds 0..39
    FOUND_SEED = {(4, "middle"): 0, (5, "odd"): 0, (5, "middle"): 0,
                  (6, "odd"): 1, (6, "middle"): 7}

    @staticmethod
    def count_frames(monkeypatch) -> list:
        """Record the odd(n) of every frame computed from here on."""
        made = []
        of = SpliceFrame.of.__func__
        monkeypatch.setattr(SpliceFrame, "of", classmethod(
            lambda cls, odd_up: made.append(odd_up) or of(cls, odd_up)))
        return made

    def test_second_round_reads_the_same_frame(self, fresh_live, monkeypatch):
        made = self.count_frames(monkeypatch)
        rounds = [("odd", 0), ("odd", 1), ("middle", 2), ("odd", 3)]
        with holding_families():
            frames = []
            for start, seed in rounds:
                rep = recursion_pipeline(
                    5, SearchBudget(max_nodes=20_000, seed=seed), start=start)
                assert report_digest(rep) == TestPipelinePins.DIGESTS[5, start][seed]
                frames.append(build(Family.odd(5)).memo[self.KEY])
        assert len(made) == 1 and made[0].family == Family.odd(5)
        assert all(frame is frames[0] for frame in frames)

    @pytest.mark.parametrize("n, budget, status", [
        (4, SearchBudget(max_seconds=60), NONE),
        (6, SearchBudget(max_nodes=10), EXHAUSTED_BUDGET)])
    def test_failed_base_round_builds_no_middle(
            self, fresh_live, monkeypatch, n, budget, status):
        made = self.count_frames(monkeypatch)
        with holding_families():
            rep = recursion_pipeline(n, budget)
            assert rep.base_search.status == status
            assert Family.odd(n - 1) in graphs._live
            assert Family.middle_levels(n - 1) not in graphs._live
            if status == NONE:  # the fallback searched odd(n)
                assert self.KEY not in build(Family.odd(n)).memo
        assert made == []

    @pytest.mark.parametrize("start", ["odd", "middle"])
    def test_frame_equals_a_fresh_computation(self, fresh_live, monkeypatch, start):
        held = {}
        with holding_families():
            for n in (4, 5, 6, 7):
                seed = self.FOUND_SEED.get((n, start))
                if seed is not None:
                    rep = recursion_pipeline(
                        n, SearchBudget(max_nodes=20_000, seed=seed), start=start)
                    assert rep.base_search.status == FOUND
                else:  # no round from this start reaches odd(n): read it
                    hamilton._splice_frame(build(Family.odd(n)))
                held[n] = build(Family.odd(n)).memo[self.KEY]
        for n, frame in held.items():
            monkeypatch.setattr(graphs, "_live", weakref.WeakValueDictionary())
            odd_up = build(Family.odd(n))
            assert frame == SpliceFrame.of(odd_up), n
            assert frame.images == embed_middle_in_odd(n - 1).images
            embedded = binomial(2 * n - 2, n - 1)  # the order of middle(n-1)
            assert frame.embedded_vertex_count == frame.connector_count == embedded
            assert frame.middle_vertex_collisions * 2 == embedded
            assert frame.remainder_size == binomial(2 * n - 2, n - 2)

    def test_round_cuts_no_piece(self, monkeypatch):
        # the frame reads odd(n)'s masks: no round deletes a color or cuts
        # a block piece, and odd(n)'s memo keeps the frame alone
        calls = Counter()
        for name in ("delete_colors", "block_component"):
            def counted(*args, _name=name, _real=getattr(decompose, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(decompose, name, counted)
        for (n, start), seed in self.FOUND_SEED.items():
            if n < 5:
                continue
            monkeypatch.setattr(graphs, "_live", weakref.WeakValueDictionary())
            with holding_families():
                rep = recursion_pipeline(
                    n, SearchBudget(max_nodes=20_000, seed=seed), start=start)
                assert rep.base_search.status == FOUND
                assert list(build(Family.odd(n)).memo) == [self.KEY], (n, start)
        assert calls == Counter()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_frame_reads_the_definitions(self, n):
        # M is the vertices holding exactly one color of S, and R the
        # remainder piece, of the Catalan-linked order C(2n-2, n-2)
        with holding_families():
            odd_up = build(Family.odd(n))
            frame = SpliceFrame.of(odd_up)
            s_bits = canonical_colors(n, 2).bits
            assert sorted(frame.images) == [
                i for i, x in enumerate(odd_up.masks)
                if (x & s_bits).bit_count() == 1]
            assert (frame.remainder_size
                    == remainder_graph(n, 2).n_vertices
                    == binomial(2 * n - 2, n - 2))

    def test_connector_counts_only_an_edge(self, fresh_live):
        # delete the edge from the first embedded vertex x to its connector
        # p(x): p(x) is still a remainder vertex, but no longer x's neighbour
        odd_up = build(Family.odd(4))
        frame = SpliceFrame.of(odd_up)
        x = frame.images[0]
        s = canonical_colors(4, 2)
        p = odd_up.index[two_color_middle(odd_up.masks[x], s.bits, odd_up.ground)]
        rows = list(map(list, odd_up.neighbor_table))
        labels = list(map(list, odd_up.label_table))
        for u, v in ((x, p), (p, x)):
            at = rows[u].index(v)
            del rows[u][at], labels[u][at]
        cut = LabeledGraph(odd_up.ground, odd_up.masks, tuple(map(tuple, rows)),
                           tuple(map(tuple, labels)), family=odd_up.family,
                           labeled=True)
        assert SpliceFrame.of(cut) == replace(
            frame, connector_count=frame.connector_count - 1,
            middle_vertex_collisions=frame.middle_vertex_collisions - 1)


class TestStageTimes:
    def test_found_round_times_every_stage(self):
        for start, order in (("odd", ["search", "lift", "embed"]),
                             ("middle", ["search", "embed", "lift"])):
            rep = recursion_pipeline(5, SearchBudget(seed=1), start=start)
            assert rep.base_search.status == FOUND
            assert list(rep.stage_s) == order
            assert all(t >= 0 for t in rep.stage_s.values())
            assert rep.stage_s["search"] >= rep.base_search.elapsed

    def test_fallback_and_exhausted_rounds(self):
        rep = recursion_pipeline(4, SearchBudget(max_seconds=60))
        assert list(rep.stage_s) == ["search", "fallback"]
        rep = recursion_pipeline(6, SearchBudget(max_nodes=10, seed=0))
        assert rep.base_search.status == EXHAUSTED_BUDGET
        assert list(rep.stage_s) == ["search"]

    def test_summary_prints_stages_on_one_line(self):
        rep = recursion_pipeline(5, SearchBudget(seed=1))
        rep.stage_s = {"search": 0.0043, "lift": 0.0008, "embed": 0.0002}
        lines = [x for x in rep.summary_lines() if "stage times" in x]
        assert lines == ["  stage times: search 4.3 ms, lift 0.8 ms,"
                         " embed 0.2 ms"]


class TestOddOrderParity:
    def test_single_lift_only_at_powers_of_two(self):
        # |V(odd(n))| = C(2n-1, n-1) is odd exactly when n is a power of
        # two, for n up to 16 (checked numerically, not proved)
        from kneserlab.setcore import binomial

        for n in range(1, 17):
            odd_order = binomial(2 * n - 1, n - 1) % 2 == 1
            power_of_two = n & (n - 1) == 0
            assert odd_order == power_of_two


def oracle_graphs():
    """The seeded graphs and budgets of the random-graph oracle test."""
    rng = random.Random(2024)
    for trial in range(1300):
        nv = trial % 13 + 1
        p = (0.15, 0.3, 0.45, 0.6, 0.8)[trial // 13 % 5]
        g = small_graph(nv, [
            (i, j, None)
            for i in range(nv)
            for j in range(i + 1, nv)
            if rng.random() < p
        ])
        yield g, SearchBudget(max_nodes=10**6, max_seconds=60, seed=trial)


def generalized_petersen(n: int, k: int):
    """GP(n, k): outer cycle u_i = i, spokes u_i v_i, inner v_i v_{i+k}."""
    nb = [[] for _ in range(2 * n)]
    for i in range(n):
        for x, y in ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)):
            nb[x].append(y)
            nb[y].append(x)
    return nb


def generalized_petersen_graph(n: int, k: int):
    m = 2 * n
    nb = generalized_petersen(n, k)
    return graph_from_edges(
        m,
        [b([i], m) for i in range(1, m + 1)],
        [(x, y, None) for x in range(m) for y in nb[x] if x < y],
    )


def random_two_sided(rng: random.Random, nv: int) -> list[list[int]]:
    """Neighbor lists of a random graph on nv vertices, with edges within
    the sides [0, half) and [half, nv) with probability p and across with
    q: a sparse cut fails the connectivity check deep down, and a graph
    may be disconnected."""
    half = rng.randint(1, nv)
    p = rng.choice((0.3, 0.5, 0.7))
    q = rng.choice((0.05, 0.15, 0.5))
    nb = [[] for _ in range(nv)]
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < (q if i < half <= j else p):
                nb[i].append(j)
                nb[j].append(i)
    return nb


def reference_holds(nb, path: list, u: int) -> bool:
    """Whether G[W_u ∪ {path[u]}] is connected, W_u being the vertices off
    path[:u + 1], by a breadth-first search over Python sets."""
    keep = set(range(len(nb))).difference(path[:u])
    seen = level = {path[u]}
    while level:
        level = {y for x in level for y in nb[x] if y in keep} - seen
        seen = seen | level
    return seen == keep


def bit_rows(nb) -> list[int]:
    return [sum(1 << y for y in row) for row in nb]


class TestMaskConnectivity:
    """The search's connectivity check against a set-based reference, on
    random graphs of 1 to 14 vertices, disconnected ones included."""

    def test_agrees_with_reference(self):
        rng = random.Random(25)
        for _ in range(300):
            nb = random_two_sided(rng, rng.randint(1, 14))
            path = [rng.randrange(len(nb))]
            while rng.random() < 0.9:
                free = [y for y in nb[path[-1]] if y not in path]
                if not free:
                    break
                path.append(rng.choice(free))
            holds_at = _hamcore_py._connectivity_check(bit_rows(nb), path)
            ref = [reference_holds(nb, path, u) for u in range(len(path))]
            for u in range(len(path)):
                assert holds_at(u, -1) == ref[u]
                for a in range(u):
                    if ref[a]:  # an anchor is a path index where it holds
                        assert holds_at(u, a) == ref[u]

    def test_path_cut_and_regrown_below_verified(self):
        # as in the search: a cut lowers verified below every index it
        # changes, so the prefix masks kept up to verified stay valid
        rng = random.Random(26)
        for _ in range(200):
            nb = random_two_sided(rng, rng.randint(2, 14))
            path = [rng.randrange(len(nb))]
            holds_at = _hamcore_py._connectivity_check(bit_rows(nb), path)
            verified = -1
            for _ in range(40):
                free = [y for y in nb[path[-1]] if y not in path]
                if free and rng.random() < 0.6:
                    path.append(rng.choice(free))
                elif len(path) > 1:
                    del path[rng.randint(1, len(path) - 1):]
                    verified = min(verified, len(path) - 1)
                if verified < len(path) - 1:
                    u = rng.randint(verified + 1, len(path) - 1)
                    ok = holds_at(u, verified)
                    assert ok == reference_holds(nb, path, u)
                    if ok:
                        verified = u


# the plain searches of the benchmark's hamilton workload: family and node
# budget, each run on tie seeds 0..7
WORKLOAD_SEARCHES = [
    (Family.odd(3), 1_000), (Family.odd(4), 1_000),
    (Family.middle_levels(4), 600), (Family.odd(5), 1_000),
    (Family.middle_levels(5), 1_500), (Family.odd(6), 1_500),
    (Family.middle_levels(6), 150), (Family.odd(7), 30),
]


class TestConnectivityWork:
    """The work of the deferred connectivity check, pinned.  A mutant that
    only slows the search, such as lowering `verified` too far on a pop or
    not advancing it after a passing check, keeps every status, node count
    and check count, and moves only the mask reads."""

    def test_checks_and_mask_reads_per_workload_pass(self, monkeypatch):
        counts = Counter()
        real = _hamcore_py._connectivity_check

        class CountedMasks:
            def __init__(self, masks):
                self.masks = masks

            def __len__(self):
                return len(self.masks)

            def __getitem__(self, x):
                counts["mask reads"] += 1
                return self.masks[x]

        def counting_check(masks, path):
            holds_at = real(CountedMasks(masks), path)

            def counted(u, anchor):
                counts["checks"] += 1
                return holds_at(u, anchor)
            return counted

        monkeypatch.setattr(_hamcore_py, "_connectivity_check", counting_check)
        for fam, budget in WORKLOAD_SEARCHES:
            g = build(fam)
            for tie in range(8):
                find_hamiltonian_cycle(
                    g, SearchBudget(max_nodes=budget, max_seconds=600.0, seed=tie))
        assert counts == {"checks": 3_867, "mask reads": 123_306}


def cycle_digest(result) -> str:
    text = ",".join(map(str, result.cycle.indices))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestExpansionOrder:
    """Node counts and cycles pinned, so that any change to the prunes or
    to the order of expansion shows, not only a wrong answer."""

    def test_oracle_graphs_node_total(self):
        total = sum(
            find_hamiltonian_cycle(g, budget).nodes
            for g, budget in oracle_graphs()
        )
        assert total == 6891

    # GP(n, 2) is non-Hamiltonian exactly when n = 5 (mod 6)
    @pytest.mark.parametrize("n, nodes", [(11, 1532), (17, 12710)])
    def test_generalized_petersen_proofs(self, n, nodes):
        nb = generalized_petersen(n, 2)
        m = 2 * n
        g = graph_from_edges(
            m,
            [b([i], m) for i in range(1, m + 1)],
            [(x, y, None) for x in range(m) for y in nb[x] if x < y],
        )
        result = find_hamiltonian_cycle(g, SearchBudget(max_nodes=10**6))
        assert (result.status, result.nodes) == (NONE, nodes)

    # the last node of each proof is the first one past the budget; the
    # proof for n = 17 fails 294 connectivity checks
    @pytest.mark.parametrize("n, nodes", [(11, 1532), (17, 12710)])
    def test_generalized_petersen_budget_edge(self, n, nodes):
        g = generalized_petersen_graph(n, 2)
        cut = find_hamiltonian_cycle(g, SearchBudget(max_nodes=nodes - 1))
        done = find_hamiltonian_cycle(g, SearchBudget(max_nodes=nodes))
        assert (cut.status, cut.nodes) == (EXHAUSTED_BUDGET, nodes)
        assert (done.status, done.nodes) == (NONE, nodes)

    # the kernel reads the clock every _CLOCK_STRIDE nodes; a budget on a
    # multiple of the stride still stops at the first node past it
    @pytest.mark.parametrize("max_nodes", [4096, 8192])
    def test_budget_at_a_clock_stride(self, max_nodes):
        assert max_nodes % _hamcore_py._CLOCK_STRIDE == 0
        result = find_hamiltonian_cycle(build(Family.odd(6)),
                                        SearchBudget(max_nodes=max_nodes))
        assert (result.status, result.nodes) == (EXHAUSTED_BUDGET, max_nodes + 1)

    # tie seed -> (status, nodes, cycle digest) at max_nodes=2000
    SEEDED = {
        Family.odd(4): [
            (FOUND, 39, "0ab2541e0c74d679"), (FOUND, 58, "d074df6afbb81f9e"),
            (FOUND, 557, "77377fc5487b580e"), (FOUND, 41, "9608e250bd307385"),
            (FOUND, 211, "ed1e584de67b6793"), (FOUND, 222, "e5e0c558eac4bfba"),
            (FOUND, 48, "39793fa2a7f635c4"), (FOUND, 198, "161e456808ceb2b0"),
        ],
        Family.middle_levels(4): [
            (FOUND, 237, "bb798ce268bfa1e2"), (FOUND, 1017, "e72942004c0a08ae"),
            (EXHAUSTED_BUDGET, 2001, None), (FOUND, 138, "7c498d52239f04fc"),
            (FOUND, 82, "9ca35802453b765e"), (FOUND, 139, "25ccdfc51ba2eebf"),
            (FOUND, 982, "0734b119d2ed40a9"), (FOUND, 1101, "b7c1c685f8bb6802"),
        ],
        Family.odd(5): [
            (EXHAUSTED_BUDGET, 2001, None), (FOUND, 626, "84bf799d9447020f"),
            (FOUND, 879, "04e678d03535e045"), (FOUND, 921, "b87cf6ea6e629473"),
            (EXHAUSTED_BUDGET, 2001, None), (FOUND, 196, "0432c59caaeb5d46"),
            (FOUND, 568, "eeae8d25bded1cff"), (FOUND, 1081, "213ae30fe62cc4c4"),
        ],
    }

    @pytest.mark.parametrize("family", list(SEEDED), ids=str)
    def test_seeded_family_searches(self, family):
        g = build(family)
        got = []
        for seed in range(8):
            result = find_hamiltonian_cycle(
                g, SearchBudget(max_nodes=2000, seed=seed)
            )
            digest = cycle_digest(result) if result.cycle else None
            got.append((result.status, result.nodes, digest))
        assert got == self.SEEDED[family]

    def test_deep_searches_digest(self):
        # deep paths with many rollbacks: the counts of on-path vertices
        # go stale and must be right again once they are popped
        digest = hashlib.sha256()
        for family in (Family.odd(5), Family.middle_levels(5), Family.odd(6)):
            g = build(family)
            for seed in range(8):
                r = find_hamiltonian_cycle(
                    g, SearchBudget(max_nodes=20_000, seed=seed))
                cycle = list(r.cycle.indices) if r.cycle else None
                digest.update(repr((r.status, r.nodes, cycle)).encode())
        assert digest.hexdigest()[:16] == "c2bb5b955ff5380b"


# the check fails at path index 2, below the forced index 1
FAILS_BELOW_FORCED = [
    (1, 2, 3, 5, 6), (0, 5), (0, 3, 4), (0, 2), (2, 6), (0, 1), (0, 4)]
# the check fails at path index 4, below the forced index 3, and the
# search goes on to a cycle
FAILS_BELOW_FORCED_THEN_FOUND = [
    (2, 4, 5, 6, 7, 9), (3, 7, 9), (0, 3, 6, 8), (1, 2, 4, 7), (0, 3, 7),
    (0, 7, 9), (0, 2, 8), (0, 1, 3, 4, 5, 9), (2, 6), (0, 1, 5, 7)]


class TestSolveDirect:
    """solve() on inputs find_hamiltonian_cycle never passes it."""

    @pytest.mark.parametrize("neighbors, start, expected", [
        # disconnected: the root's full connectivity search fails
        ([(1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4)], 0,
         (NONE, [], 1)),
        # a pendant vertex away from the start: the root's count fails
        ([(1, 3), (0, 2), (1, 3, 4), (0, 2), (2,)], 0,
         (NONE, [], 1)),
        # a pendant neighbor forces the root, so its child has no anchor
        ([(1, 5), (0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (7,), (6,)], 7,
         (NONE, [], 2)),
        ([(1, 2, 3), (0,), (0, 3), (0, 2)], 0, (NONE, [], 2)),
        # a 2-cycle would reuse the one edge, as verify_cycle says
        ([(1,), (0,)], 0, (NONE, [], 0)),
        # a ring: one check at the root, then a forced chain to the end
        ([((i - 1) % 7, (i + 1) % 7) for i in range(7)], 6,
         (FOUND, [6, 0, 1, 2, 3, 4, 5], 7)),
        # the start's neighbor 1 has degree 2
        ([(1, 2, 3), (0, 4), (0, 3, 4), (0, 2, 4), (1, 2, 3)], 0,
         (FOUND, [0, 1, 4, 2, 3], 5)),
        ([], 0, (NONE, [], 0)),
        ([()], 0, (FOUND, [0], 0)),
        (FAILS_BELOW_FORCED, 0, (NONE, [], 9)),
        (FAILS_BELOW_FORCED_THEN_FOUND, 0,
         (FOUND, [0, 4, 7, 5, 9, 1, 3, 2, 8, 6], 17)),
    ], ids=[
        "two-triangles", "starved-pendant", "forced-root-hexagon",
        "forced-root-pendant", "single-edge", "ring", "degree-2-neighbor",
        "no-vertices", "one-vertex", "fails-below-forced",
        "fails-below-forced-then-found",
    ])
    def test_pinned_results(self, neighbors, start, expected):
        rank = list(range(len(neighbors)))
        assert _hamcore_py.solve(neighbors, start, rank, 10**6, 60.0) == expected

    def test_budgets(self):
        nb = generalized_petersen(17, 2)
        rank = list(range(34))
        # the clock is read every 4096 nodes
        assert _hamcore_py.solve(nb, 0, rank, 10**6, 1e-9) == (
            EXHAUSTED_BUDGET, [], 4096
        )
        assert _hamcore_py.solve(nb, 0, rank, 100, 60.0) == (
            EXHAUSTED_BUDGET, [], 101
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_clock_read_points(self, k, odd5, monkeypatch):
        # the first read sets the deadline; budget reads 1..k-1 find time
        # left and read k finds it gone
        reads = 0

        def monotonic():
            nonlocal reads
            reads += 1
            return 0.0 if reads <= k else 1e9

        gp = (generalized_petersen(17, 2), list(range(34)))
        heavy = (odd5.neighbor_table, hamilton._tie_break_ranks(odd5.n_vertices, 0))
        for nb, rank in (gp, heavy):
            reads = 0
            monkeypatch.setattr(
                _hamcore_py, "time", types.SimpleNamespace(monotonic=monotonic))
            status, _, nodes = _hamcore_py.solve(nb, 0, rank, 10**6, 1.0)
            assert (status, nodes) == (EXHAUSTED_BUDGET, 4096 * k)

    @pytest.mark.parametrize("neighbors, expected", [
        ([(1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4)], (NONE, [], 1)),
        (FAILS_BELOW_FORCED, (NONE, [], 9)),
        (FAILS_BELOW_FORCED_THEN_FOUND,
         (FOUND, [0, 4, 7, 5, 9, 1, 3, 2, 8, 6], 17)),
    ], ids=["two-triangles", "fails-below-forced",
            "fails-below-forced-then-found"])
    def test_budget_of_the_final_count(self, neighbors, expected):
        # the search counts nodes below a failing check before it rolls
        # them back; a budget equal to the final count does not cut it
        rank = list(range(len(neighbors)))
        assert _hamcore_py.solve(
            neighbors, 0, rank, expected[2], 60.0) == expected

    def test_random_graphs_digest(self):
        rng = random.Random(22)
        digest = hashlib.sha256()
        for _ in range(2000):
            nb = random_two_sided(rng, rng.randint(1, 13))
            nv = len(nb)
            rank = list(range(nv))
            rng.shuffle(rank)
            start = rng.randrange(nv)
            for max_nodes in (1, 3, 20, 10**6):
                status, cycle, nodes = _hamcore_py.solve(
                    nb, start, rank, max_nodes, 60.0)
                digest.update(repr((status, nodes, cycle)).encode())
        # the two-vertex graphs answer NONE in 0 nodes, without a search
        assert digest.hexdigest()[:16] == "2734fccebbefa2b1"

    def test_ring_deeper_than_recursion_limit(self):
        n = 20_000
        assert n > sys.getrecursionlimit()
        ring = [((i - 1) % n, (i + 1) % n) for i in range(n)]
        assert _hamcore_py.solve(ring, 0, list(range(n)), 10**6, 60.0) == (
            FOUND, list(range(n)), n
        )
