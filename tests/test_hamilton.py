"""Search kernel, cycle verification, and the recursion pipeline."""

import random

import pytest

from kneserlab.errors import ParameterError
from kneserlab.graphs import graph_from_edges
from kneserlab.hamilton import (
    EXHAUSTED_BUDGET,
    FOUND,
    NONE,
    SearchBudget,
    find_hamiltonian_cycle,
    recursion_pipeline,
    verify_cycle,
)
from kneserlab.setcore import Block

b = Block.from_elements


class TestSearchBudget:
    def test_limits_must_be_positive(self):
        with pytest.raises(ParameterError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ParameterError):
            SearchBudget(max_seconds=0)


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
    """Unlabeled graph on the singletons of [nv], nv <= 13."""
    return graph_from_edges(13, [b([i], 13) for i in range(1, nv + 1)], edges)


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


class TestVerifyCycle:
    def test_accepts_search_output(self, odd4):
        result = find_hamiltonian_cycle(odd4)
        assert verify_cycle(odd4, result.cycle)

    def test_rejects_repeat(self, odd3):
        assert not verify_cycle(odd3, [0, 1, 2, 3, 4, 5, 6, 7, 8, 8])

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

    def test_bad_start_rejected(self):
        with pytest.raises(ParameterError):
            recursion_pipeline(4, start="sideways")

    def test_lift_projects_back_onto_base_twice(self, odd4):
        from kneserlab.morphisms import cover_map, lift_circuit

        result = find_hamiltonian_cycle(odd4)
        lift = lift_circuit(result.cycle)
        assert lift.kind == "single"
        cm = cover_map(7, 3)
        projected = [cm.apply(x) for x in lift.circuits[0].blocks()]
        base = list(result.cycle.blocks())
        assert projected == base + base

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            recursion_pipeline(2)


class TestOddOrderParity:
    def test_single_lift_only_at_powers_of_two(self):
        # |V(odd(n))| = C(2n-1, n-1) is odd exactly when n is a power of
        # two, for n up to 16 (checked numerically, not proved)
        from kneserlab.setcore import binomial

        for n in range(1, 17):
            odd_order = binomial(2 * n - 1, n - 1) % 2 == 1
            power_of_two = n & (n - 1) == 0
            assert odd_order == power_of_two
