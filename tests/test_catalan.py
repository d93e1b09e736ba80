"""Identities, rotation orbits, necklaces, independent-orbit excision."""

import hashlib
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

import kneserlab
import kneserlab.catalan as catalan_module
from kneserlab import cli, graphs
from kneserlab.catalan import (
    coxeter_excision,
    independent_orbit_excision,
    necklaces,
    orbits,
    remainder_size_form,
    verify_difference_identity,
    verify_size_identity,
)
from kneserlab.errors import ParameterError
from kneserlab.graphs import Family, build, degree_profile, holding_families
from kneserlab.setcore import Block, Perm, binomial, catalan

b = Block.from_elements

# SHA-256 prefixes of repr(orbits(n).orbits) and of the necklaces of every
# vertex of odd(n), one per line in vertex order, recorded from the
# Perm-based orbit walk and the string-rotation necklaces
PINNED = {
    2: ("91dc352bb99129da", "b5f8073c1706a545"),
    3: ("bc0080afff891c35", "4b8235b16782ac13"),
    4: ("5be3cb438eaa8ebf", "60b7c66ce771424e"),
    5: ("69a79012bfd30be1", "55c778d5387daee8"),
    6: ("404a8be8ff091c06", "67870b8c1e69230d"),
    7: ("8006cd93cec5719d", "b8986846d3a972c7"),
    8: ("5538c4217705154d", "fb8a67f2061b251e"),
}


def sha256_prefix(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestIdentities:
    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_size_identity_exact(self, n):
        assert verify_size_identity(n).ok

    def test_size_identity_values(self):
        assert verify_size_identity(3).details["vertices"] == 10 == 5 * 2
        assert verify_size_identity(4).details["vertices"] == 35 == 7 * 5
        r = verify_size_identity(12)
        assert r.details["vertices"] == binomial(23, 11) == 23 * 58786

    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_difference_identity_exact(self, n):
        assert verify_difference_identity(n).ok

    def test_difference_identity_values(self):
        r = verify_difference_identity(3)
        assert (r.details["middle"], r.details["remainder"]) == (20, 15)
        assert r.details["catalan"] == 5
        assert verify_difference_identity(1).details["catalan"] == 1
        assert verify_difference_identity(10).details["catalan"] == 16796

    def test_structural_branch_builds_graphs(self):
        r = verify_difference_identity(3)
        assert r.details["built_middle"] == 20
        assert r.details["built_remainder"] == 15

    @pytest.mark.parametrize("n", list(range(1, 21)))
    def test_remainder_form(self, n):
        assert remainder_size_form(n).ok

    def test_remainder_form_values(self):
        assert remainder_size_form(2).details["size"] == 4
        assert remainder_size_form(4).details["size"] == 56 == binomial(8, 3)


class TestOrbits:
    @pytest.mark.parametrize(
        "n,count",
        [(3, 2), (4, 5), (5, 14), (6, 42), (7, 132), (8, 429)],
    )
    def test_counts_match_catalan(self, n, count):
        orb = orbits(n)
        assert len(orb.orbits) == count == catalan(n - 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_orbits_partition_with_full_size(self, n):
        orb = orbits(n)
        all_ixs = sorted(i for orbit in orb.orbits for i in orbit)
        assert all_ixs == list(range(orb.graph.n_vertices))
        assert set(orb.sizes) == {2 * n - 1}

    def test_rotation_acts_as_shift(self):
        sigma = Perm((2, 3, 4, 5, 1))
        assert sigma.apply_mask(b([1, 2], 5).bits) == b([2, 3], 5).bits
        assert sigma.apply_mask(b([4, 5], 5).bits) == b([1, 5], 5).bits
        # every orbit is the walk of its first vertex under the ground
        # cycle 1 -> 2 -> ... -> 2n-1 -> 1, applied as a Perm
        for n in (3, 4, 5):
            orb = orbits(n)
            g = orb.graph
            sigma = Perm((*range(2, 2 * n), 1))
            for orbit in orb.orbits:
                x = g.masks[orbit[0]]
                walk = [x]
                while (y := sigma.apply_mask(walk[-1])) != x:
                    walk.append(y)
                assert sorted(g.mask_indices(walk)) == list(orbit)

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_pinned_orbits(self, n):
        assert sha256_prefix(repr(orbits(n).orbits)) == PINNED[n][0]

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            orbits(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_masks_are_vertex_masks(self, n):
        g = build(Family.odd(n))
        assert orbits(n).masks == tuple(v.bits for v in g.vertices)

    @pytest.mark.parametrize("n", [3, 5])
    def test_graph_is_the_held_build(self, n):
        with holding_families():
            assert orbits(n).graph is build(Family.odd(n))


@pytest.fixture
def constructions(monkeypatch):
    """Count graph constructions, by both builders, while the test runs."""
    made = []
    for name in ("_build_kneser", "_build_bipartite_kneser"):
        def counted(family, _build=getattr(graphs, name)):
            made.append(family)
            return _build(family)

        monkeypatch.setattr(graphs, name, counted)
    return made


class TestNoGraphBuilt:
    def test_orbits(self, constructions):
        for n in range(2, 9):
            orbits(n)
        assert constructions == []

    def test_orbits_suite_at_cap(self, constructions):
        report = cli.RunReport("orbits")
        _, cap = cli._SUITE_DEPTH["orbits"]
        cli._suite_orbits(report, cap)
        assert len(report.lines) == 2 * (cap - 2)
        assert all(line.ok for line in report.lines)
        assert constructions == []

    def test_graph_built_only_when_read(self, constructions):
        orb = orbits(6)
        assert constructions == []
        g = orb.graph
        assert g.family == Family.odd(6)
        assert g.n_vertices == len(orb.masks) == 462


def necklace_oracle(v, n):
    """The least rotation of the absence string of the vertex v of odd(n),
    by listing every rotation."""
    s = "".join("0" if i in v else "1" for i in range(1, 2 * n))
    return min(s[i:] + s[:i] for i in range(len(s)))


class TestNecklaces:
    def test_examples(self):
        assert necklaces(3, [b([1, 2], 5).bits, b([1, 3], 5).bits]) == [
            "00111", "01011"]

    def test_weight_is_n(self):
        [s] = necklaces(5, [b([2, 4, 6, 8], 9).bits])
        assert s.count("1") == 5
        assert len(s) == 9

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_separates_orbits_exactly(self, n):
        orb = orbits(n)
        g = orb.graph
        canon_by_orbit = []
        for orbit in orb.orbits:
            forms = set(necklaces(n, [g.masks[i] for i in orbit]))
            assert len(forms) == 1  # constant on the orbit
            canon_by_orbit.append(forms.pop())
        assert len(set(canon_by_orbit)) == len(orb.orbits)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_batch_matches_one_at_a_time(self, n):
        g = build(Family.odd(n))
        assert necklaces(n, g.masks) == [necklace_oracle(v, n) for v in g.vertices]

    def test_batch_of_none(self):
        assert necklaces(4, []) == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_refuses_n_below_one(self, n):
        with pytest.raises(ParameterError):
            necklaces(n, [0])

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_pinned_on_every_vertex(self, n):
        g = build(Family.odd(n))
        text = "\n".join(necklaces(n, g.masks))
        assert sha256_prefix(text) == PINNED[n][1]


def oracle_of_masks(n, masks):
    return [necklace_oracle(Block(x, 2 * n - 1), n) for x in masks]


class TestNecklacesOncePerClass:
    """Forms match the oracle on lists that are not whole rotation
    classes, or that hold a class out of order or twice."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_one_member_of_each_orbit(self, n):
        orb = orbits(n)
        masks = [orb.masks[orbit[-1]] for orbit in orb.orbits]
        assert necklaces(n, masks) == oracle_of_masks(n, masks)

    @pytest.mark.parametrize("n", [4, 6])
    def test_each_orbit_minus_one_member(self, n):
        orb = orbits(n)
        masks = [orb.masks[i] for orbit in orb.orbits for i in orbit[1:]]
        assert necklaces(n, masks) == oracle_of_masks(n, masks)

    @pytest.mark.parametrize("n", [4, 6])
    def test_orbits_interleaved(self, n):
        orb = orbits(n)
        masks = [orb.masks[i] for column in zip(*orb.orbits) for i in column]
        assert len(masks) == len(orb.masks)
        assert necklaces(n, masks) == oracle_of_masks(n, masks)

    def test_repeated_masks(self):
        orb = orbits(5)
        some = [orb.masks[orbit[0]] for orbit in orb.orbits[:4]]
        masks = some + some[::-1] + [some[1]] * 3
        assert necklaces(5, masks) == oracle_of_masks(5, masks)

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_reversed_order(self, n):
        masks = orbits(n).masks[::-1]
        assert necklaces(n, masks) == oracle_of_masks(n, masks)


def is_independent(g, vertices):
    """No edge joins two of the vertices."""
    inside = set(vertices)
    return all(inside.isdisjoint(g.neighbors(i)) for i in vertices)


class TestExcision:
    def test_at_three_nothing_to_delete(self):
        rep = independent_orbit_excision(3)
        assert rep.ok
        assert rep.details["pinned_orbit_count"] == 0
        assert rep.details["cubic_outcomes"] == 1  # the graph itself

    def test_at_four_coxeter_fingerprint(self):
        graph, rep = coxeter_excision()
        assert rep.ok, rep.failures
        assert graph.n_vertices == 28
        assert graph.n_edges == 42
        assert degree_profile(graph) == ("regular", 3)
        from kneserlab.graphs import girth

        assert girth(graph) == 7

    def test_at_four_survey(self):
        rep = independent_orbit_excision(4)
        assert rep.ok
        assert rep.details["pinned_orbit_count"] == 1
        assert rep.details["independent_unions"] >= 1
        assert rep.details["cubic_outcomes"] >= 1
        assert rep.details["cubic_fingerprint"] == (28, 42, 7)

    def test_at_five_reports_without_asserting(self):
        rep = independent_orbit_excision(5)
        assert rep.ok
        assert rep.details["pinned_orbit_count"] == 4
        assert rep.details["independent_unions"] == 0

    def test_orbit_deletion_accounting(self):
        # deleting j independent orbits removes j(2n-1) vertices and
        # j*n*(2n-1) edges
        for n in (3, 4, 5):
            orb = orbits(n)
            g = orb.graph
            from kneserlab.catalan import _deletion_profile

            for orbit in orb.orbits:
                if not is_independent(g, orbit):
                    continue
                prof = _deletion_profile(g, orbit)
                assert prof["vertices"] == g.n_vertices - (2 * n - 1)
                assert prof["edges"] == g.n_edges - n * (2 * n - 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_clash_table_decides_independence(self, n):
        from kneserlab.catalan import _orbit_clashes

        orb = orbits(n)
        clash = _orbit_clashes(orb)
        verdicts = set()
        for size in (1, 2, 3):
            for combo in combinations(range(len(orb.orbits)), size):
                chosen = sum(1 << ci for ci in combo)
                by_table = not any(clash[ci] & chosen for ci in combo)
                union = [x for ci in combo for x in orb.orbits[ci]]
                assert by_table == is_independent(orb.graph, union), combo
                verdicts.add(by_table)
        assert verdicts == ({False} if n == 3 else {False, True})

    def test_below_domain_rejected(self):
        with pytest.raises(ParameterError):
            independent_orbit_excision(2)

    @pytest.mark.parametrize("n,details", [
        (3, {"pinned_orbit_count": 0, "orbits": 2, "independent_unions": 1,
             "cubic_outcomes": 1, "cubic_fingerprint": (10, 15, 5)}),
        (4, {"pinned_orbit_count": 1, "orbits": 5, "independent_unions": 2,
             "cubic_outcomes": 2, "cubic_fingerprint": (28, 42, 7)}),
        (5, {"pinned_orbit_count": 4, "orbits": 14, "independent_unions": 0,
             "cubic_outcomes": 0}),
    ])
    def test_pinned_details(self, n, details):
        # girth is taken only for the cubic fingerprint, not per outcome
        rep = independent_orbit_excision(n)
        assert rep.ok and not rep.failures
        assert rep.details == details

    def test_six_refused_before_any_orbit_is_walked(self, monkeypatch):
        # odd(6) has C(42, 14) unions of its 14 pinned orbits: the refusal
        # is decided by counting them, before any orbit is walked
        monkeypatch.setattr(catalan_module, "orbits",
                            lambda n: pytest.fail("orbits walked"))
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="52860229080 unions of 14 orbits"):
            independent_orbit_excision(6)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cap,refused", [(1_000, True), (1_001, False)])
    def test_cap_counts_the_unions(self, monkeypatch, cap, refused):
        # odd(5) has C(14, 4) = 1,001 unions of its 4 pinned orbits
        monkeypatch.setattr(catalan_module, "UNION_CAP", cap)
        if refused:
            with pytest.raises(ParameterError, match="1001 unions of 4 orbits"):
                independent_orbit_excision(5)
        else:
            assert independent_orbit_excision(5).ok

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_count_off_the_identity_fails(self, monkeypatch, shift):
        # odd(5) has no independent union of 3, 4 or 5 orbits, so only the
        # counting identity (5-3) * 14 = (2*5-3) * 4 tells a wrong count
        pinned = catalan_module.catalan_fourth_convolution
        monkeypatch.setattr(catalan_module, "catalan_fourth_convolution",
                            lambda n: pinned(n) + shift)
        rep = independent_orbit_excision(5)
        assert rep.details["pinned_orbit_count"] == 4 + shift
        assert not rep.ok
        assert rep.failures == [
            f"(n-3) catalan(n-1) = 28 != (2n-3) k = {7 * (4 + shift)}"]

    def test_pinned_coxeter_report(self):
        _graph, rep = coxeter_excision()
        assert (rep.name, rep.ok, rep.failures) == ("cubic excision odd(4)", True, [])
        assert rep.details == {"vertices": 28, "edges": 42,
                               "signature": ("regular", 3), "girth": 7}


class TestCoxeterTransitivitySpotCheck:
    def test_automorphisms_carry_sampled_pairs(self):
        graph, rep = coxeter_excision()
        assert rep.ok
        from kneserlab.morphisms import find_isomorphism

        for target in (5, 13, 27):
            iso = find_isomorphism(
                graph, graph, pin={0: target}, max_vertices=28
            )
            assert iso is not None and iso.verified


class TestPackageName:
    @pytest.mark.parametrize("first", ["", "import kneserlab.cli"])
    def test_catalan_is_the_submodule(self, first):
        # the package exports no function under the submodule's name, so
        # importing the cli first cannot change what the name means
        code = "; ".join(filter(None, [
            first,
            "from kneserlab import catalan",
            "import kneserlab.catalan as sub",
            "assert catalan is sub, catalan",
            "import kneserlab.cli",
            "from kneserlab import catalan as again",
            "assert again is sub, again",
            "from kneserlab.setcore import catalan as count",
            "assert count(4) == 14",
        ]))
        src = os.path.dirname(os.path.dirname(kneserlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
