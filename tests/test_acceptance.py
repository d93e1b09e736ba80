"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured values and asserting its stated runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time
from contextlib import contextmanager

from kneserlab.catalan import (
    coxeter_excision,
    independent_orbit_excision,
    necklace_of,
    orbits,
    remainder_size_form,
    verify_difference_identity,
    verify_size_identity,
)
from kneserlab.decompose import (
    canonical_colors,
    classify_components,
    delete_colors,
    expected_census,
    regular_component_partitions,
    remainder_graph,
)
from kneserlab.graphs import (
    Family,
    build,
    degree_profile,
    girth,
    verify_distance_formula,
)
from kneserlab.hamilton import (
    FOUND,
    NONE,
    SearchBudget,
    find_hamiltonian_cycle,
    recursion_pipeline,
    verify_cycle,
)
from kneserlab.morphisms import (
    biregular_cross_iso,
    biregular_internal_iso,
    color_swap_iso,
    cover_map,
    middle_component_census,
    regular_component_to_middle,
    verify_cover,
)
from kneserlab.serialize import graph_from_json, graph_to_json
from kneserlab.setcore import Block, binomial, catalan, catalan_fourth_convolution
from kneserlab.superstructure import bottom_level, build_l, build_m

_results = []


@contextmanager
def criterion(number, title, limit_seconds):
    t0 = time.perf_counter()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if outcome["ok"] and elapsed <= limit_seconds else "FAIL"
        line = (f"[criterion {number:>2}] {status}  {title}"
                f"  ({elapsed:.2f}s / limit {limit_seconds:.0f}s)")
        _results.append(line)
        print(line)
        assert elapsed <= limit_seconds, (
            f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
        )


def test_criterion_01_petersen_identity():
    with criterion(1, "Petersen identity and non-Hamiltonicity", 1.0):
        g = build(Family.odd(3))
        assert g.n_vertices == 10
        assert g.n_edges == 15
        assert degree_profile(g) == ("regular", 3)
        assert girth(g) == 5
        result = find_hamiltonian_cycle(
            g, SearchBudget(max_nodes=10**6, max_seconds=1.0)
        )
        assert result.status == NONE
        assert result.nodes <= 10**6


def test_criterion_02_cover_verification():
    with criterion(2, "double covers middle(n) -> odd(n), n = 2..5", 5.0):
        for n in range(2, 6):
            rep = verify_cover(cover_map(2 * n - 1, n - 1), expected_fiber=2)
            assert rep.ok, rep.failures


CENSUS_PARAMS = [(3, 2), (4, 2), (5, 2), (6, 2), (5, 4), (6, 4), (4, 3), (5, 3)]


def test_criterion_03_decomposition_censuses():
    with criterion(3, "component censuses for the eight deletions", 30.0):
        for n, k in CENSUS_PARAMS:
            g = delete_colors(build(Family.odd(n)), canonical_colors(n, k))
            census = classify_components(g)
            want = expected_census(n, k)
            assert census.counts == want, (n, k, census.counts, want)
            regs = [sig for sig in census.counts if sig[0] == "regular"]
            if k % 2:
                assert not regs
            else:
                assert census.counts[("regular", n - k // 2)] == binomial(
                    k - 1, k // 2 - 1
                )


def test_criterion_04_explicit_isomorphisms():
    with criterion(4, "every explicit component map verifies", 60.0):
        failures = []
        by_signature = {}
        maps_checked = 0
        from itertools import combinations

        for n, k in CENSUS_PARAMS:
            s = canonical_colors(n, k)
            g = build(Family.odd(n))
            swap = color_swap_iso(n, s, Block.from_elements(range(1, k + 1), 2 * n - 1))
            maps_checked += 1
            if not swap.verify():
                failures.append(("swap", n, k))
            for i in range(0, k // 2 + 1):
                subs = [Block.from_elements(c, 2 * n - 1)
                        for c in combinations(s.elements(), i)]
                by_signature.setdefault((n - i, n - k + i), []).append(
                    (n, k, subs[0])
                )
                for t1 in subs:
                    for t2 in subs:
                        if t1 == t2 or t1 == s - t2:
                            continue
                        maps_checked += 1
                        if not biregular_internal_iso(n, k, t1, t2).verify():
                            failures.append(("internal", n, k, str(t1), str(t2)))
            if k % 2 == 0:
                for t, _ in regular_component_partitions(s):
                    maps_checked += 1
                    if not regular_component_to_middle(n, s, t).verify():
                        failures.append(("middle", n, k, str(t)))
        for sig, instances in by_signature.items():
            for a in range(len(instances)):
                for c in range(a + 1, len(instances)):
                    if instances[a][:2] == instances[c][:2]:
                        continue
                    vmap = biregular_cross_iso(
                        instances[a][0], instances[a][1], instances[a][2],
                        instances[c][0], instances[c][1], instances[c][2],
                    )
                    maps_checked += 1
                    if not vmap.verify():
                        failures.append(("cross", sig, instances[a][:2],
                                         instances[c][:2]))
        rep = middle_component_census(4, 2, "middle")
        if not rep.ok:
            failures.append(("middle-family", 4, 2))
        assert not failures, failures
        assert maps_checked > 100


def test_criterion_05_superstructure():
    with criterion(5, "component meta-graphs match their targets", 60.0):
        m44 = build_m(4, 4)
        assert m44.graph.n_vertices == 3 and m44.graph.n_edges == 3
        assert m44.iso.verified and m44.criteria_agree
        m66 = build_m(6, 6)
        assert m66.graph.n_vertices == 10 and m66.graph.n_edges == 15
        assert girth(m66.graph) == 5
        assert m66.iso.verified and m66.criteria_agree
        l54 = build_l(5, 4)
        assert l54.graph.n_vertices == 6 and l54.graph.n_edges == 6
        assert l54.iso.verified and l54.criteria_agree


def test_criterion_06_distance_formula():
    with criterion(6, "distance rule on every pair of odd(3..5)", 10.0):
        for n in (3, 4, 5):
            rep = verify_distance_formula(n)
            assert rep.ok, rep.failures[:3]
            assert rep.details["diameter"] == n - 1


def test_criterion_07_bottom_level():
    with criterion(7, "bottom-level census and meta-graph, n = 3..5", 60.0):
        expected = {3: (1, 2, 1), 4: (3, 2, 2), 5: (3, 3, 2)}
        for n, (copies, middle_m, super_m) in expected.items():
            v = Block.from_elements(range(1, n), 2 * n - 1)
            bl = bottom_level(n, v)
            assert bl.census.ok, bl.census.failures[:3]
            assert bl.census.details["components"] == copies
            assert bl.census.details["component_type"] == f"middle({middle_m})"
            assert bl.superstructure.target == Family.odd(super_m)
            assert bl.superstructure.iso.verified


def test_criterion_08_catalan_identities():
    with criterion(8, "size and difference identities, remainder sizes", 30.0):
        for n in range(1, 31):
            assert verify_size_identity(n).ok
            assert verify_difference_identity(n).ok
            assert remainder_size_form(n).ok
        for n, size in [(3, 4), (4, 15), (5, 56)]:
            assert remainder_graph(n, 2).graph.n_vertices == size


def test_criterion_09_orbits_and_necklaces():
    with criterion(9, "orbit counts are Catalan; necklaces separate", 10.0):
        for n, count in [(3, 2), (4, 5), (5, 14)]:
            orb = orbits(n)
            assert len(orb.orbits) == count == catalan(n - 1)
            forms = set()
            for orbit in orb.orbits:
                orbit_forms = {
                    necklace_of(orb.graph.vertices[i], n) for i in orbit
                }
                assert len(orbit_forms) == 1
                forms |= orbit_forms
            assert len(forms) == count


def test_criterion_10_coxeter_excision():
    with criterion(10, "independent-orbit excision reaches the Coxeter graph", 10.0):
        assert catalan_fourth_convolution(4) == 1
        graph, rep = coxeter_excision(4)
        assert rep.ok, rep.failures
        assert (graph.n_vertices, graph.n_edges) == (28, 42)
        assert degree_profile(graph) == ("regular", 3)
        assert girth(graph) == 7
        survey = independent_orbit_excision(4)
        assert survey.ok
        assert survey.details["independent_unions"] >= 1


def test_criterion_11_recursion_pipeline():
    with criterion(11, "lift-and-embed round from odd(4) into odd(5)", 60.0):
        rep = recursion_pipeline(5, SearchBudget(max_seconds=60))
        assert rep.base_search.status == FOUND
        assert rep.lift is not None and rep.lift.kind == "single"
        lifted = rep.lift.circuits[0]
        assert lifted.length == 70
        middle4 = lifted.graph
        assert middle4.n_vertices == 70
        assert verify_cycle(middle4, lifted)
        assert rep.lifted_is_hamiltonian_middle
        assert rep.embedded_vertex_count == 70
        assert rep.remainder_size == 56
        assert rep.connectors_complete
        assert rep.connector_count == 70


def test_criterion_12_serialization_round_trip():
    with criterion(12, "build/export/import byte-identical up to 200 vertices", 30.0):
        instances = []
        for n in range(1, 7):
            instances += [Family.odd(n), Family.middle_levels(n)]
        for n in range(2, 11):
            for k in range(1, n):
                instances += [Family.kneser(n, k), Family.bipartite_kneser(n, k)]
        checked = 0
        for fam in instances:
            g = build(fam)
            if g.n_vertices > 200:
                continue
            text = graph_to_json(g)
            back = graph_from_json(text)
            assert back == g
            assert graph_to_json(back) == text
            checked += 1
        assert checked >= 40


def test_zz_summary():
    print()
    for line in _results:
        print(line)
    assert len(_results) == 12
