"""Catalan-number identities, rotation orbits, necklaces, and the
independent-orbit excision experiment.

The vertex count of odd(n) factors as (2n-1) times a Catalan number, the
factor counting the orbits of the full ground rotation; orbit classes
correspond to binary necklaces.  Excising independent unions of orbits is
how the Coxeter graph sits inside odd(4), and the number of orbits such an
excision must remove is pinned by a Catalan convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .decompose import classify_components
from .errors import ParameterError
from .graphs import Family, LabeledGraph, Report, build, girth
from .setcore import (
    Block,
    Perm,
    binomial,
    catalan,
    catalan_fourth_convolution,
)

# identities are also checked on built graphs up to this n
STRUCTURAL_LIMIT = 5
# most orbit unions one excision survey size enumerates
UNION_CAP = 1_000_000


def verify_size_identity(n: int) -> Report:
    """Check |V(odd(n))| = (2n-1) * catalan(n-1), exactly; for small n the
    graph is also built and counted."""
    if n < 1:
        raise ParameterError("need n >= 1")
    lhs = binomial(2 * n - 1, n - 1)
    rhs = (2 * n - 1) * catalan(n - 1)
    failures = []
    if lhs != rhs:
        failures.append(f"{lhs} != {rhs}")
    details = {"vertices": lhs, "factor": catalan(n - 1)}
    if n <= STRUCTURAL_LIMIT:
        built = build(Family.odd(n)).n_vertices
        details["built_vertices"] = built
        if built != lhs:
            failures.append(f"built graph has {built} vertices")
    return Report(f"size identity odd({n})", not failures, details, failures)


def verify_difference_identity(n: int) -> Report:
    """Check |V(middle(n))| - |remainder(n+1, 2)| = catalan(n): exactly via
    binomials, and for small n by building both graphs."""
    if n < 1:
        raise ParameterError("need n >= 1")
    middle_size = 2 * binomial(2 * n - 1, n - 1)
    remainder_size = binomial(2 * n + 1, n) - 2 * binomial(2 * n - 1, n - 1)
    want = catalan(n)
    failures = []
    if middle_size - remainder_size != want:
        failures.append(f"{middle_size} - {remainder_size} != {want}")
    details = {
        "middle": middle_size,
        "remainder": remainder_size,
        "catalan": want,
    }
    if n <= STRUCTURAL_LIMIT:
        built_mid = build(Family.middle_levels(n)).n_vertices
        built_rem = _built_remainder_size(n + 1)
        details["built_middle"] = built_mid
        details["built_remainder"] = built_rem
        if built_mid != middle_size or built_rem != remainder_size:
            failures.append(
                f"built sizes ({built_mid}, {built_rem}) differ from closed form"
            )
    return Report(f"difference identity n={n}", not failures, details, failures)


def remainder_size_form(n: int) -> Report:
    """Check the remainder-size closed form C(2n+1, n) - 2 C(2n-1, n-1) =
    C(2n, n-1) (OEIS A001791), and for small n the built size."""
    if n < 1:
        raise ParameterError("need n >= 1")
    lhs = binomial(2 * n + 1, n) - 2 * binomial(2 * n - 1, n - 1)
    rhs = binomial(2 * n, n - 1)
    failures = []
    if lhs != rhs:
        failures.append(f"{lhs} != {rhs}")
    details = {"size": rhs}
    if n <= STRUCTURAL_LIMIT:
        built = _built_remainder_size(n + 1)
        details["built"] = built
        if built != rhs:
            failures.append(f"built remainder has {built} vertices")
    return Report(f"remainder size form n={n}", not failures, details, failures)


def _built_remainder_size(n: int) -> int:
    """Vertex count of the built remainder of odd(n) minus two colors; n=2
    degenerates to the single isolated vertex, below the remainder-graph
    constructor's domain."""
    from .decompose import block_component, canonical_colors, remainder_graph

    if n > 2:
        return remainder_graph(n, 2).graph.n_vertices
    piece = block_component(n, canonical_colors(n, 2), Block.empty(2 * n - 1))
    return piece.graph.n_vertices


@dataclass(frozen=True)
class OrbitSet:
    """Partition of the odd-graph vertices under the full ground rotation."""

    n: int
    orbits: tuple[tuple[int, ...], ...]
    graph: LabeledGraph

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(orbit) for orbit in self.orbits)


def rotation(n: int) -> Perm:
    """The full cycle (1, 2, ..., 2n-1) on the odd-graph ground set."""
    return Perm.cycle(2 * n - 1, range(1, 2 * n))


def orbits(n: int) -> OrbitSet:
    """Orbits of the odd-graph vertices under repeated ground rotation,
    each listed from its minimal vertex index; the orbit count must equal
    catalan(n-1)."""
    if n < 2:
        raise ParameterError("need n >= 2")
    g = build(Family.odd(n))
    sigma = rotation(n)
    seen = bytearray(g.n_vertices)
    out = []
    for i, v in enumerate(g.vertices):
        if seen[i]:
            continue
        orbit = [i]
        seen[i] = 1
        w = sigma.apply(v)
        while w != v:
            j = g.index_of(w)
            seen[j] = 1
            orbit.append(j)
            w = sigma.apply(w)
        out.append(tuple(sorted(orbit)))
    want = catalan(n - 1)
    if len(out) != want:
        raise AssertionError(f"found {len(out)} orbits, expected {want}")
    return OrbitSet(n, tuple(out), g)


def necklace_of(v: Block, n: int) -> str:
    """The rotation-canonical absence string of a vertex of odd(n): position
    i carries 1 when i is missing from v, and the string is rotated to its
    lexicographic minimum.

    Two vertices share a canonical necklace exactly when they share a
    rotation orbit.
    """
    m = 2 * n - 1
    if v.m != m or v.card != n - 1:
        raise ParameterError(f"{v} is not a vertex of odd({n})")
    full = (1 << m) - 1
    # the absence word as an m-bit int, ground position 1 its top bit
    x = int(format(~v.bits & full, f"0{m}b")[::-1], 2)
    least = min(((x << r) | (x >> (m - r))) & full for r in range(m))
    return format(least, f"0{m}b")


def independent_orbit_excision(n: int) -> Report:
    """Survey deletions of independent orbit unions of the pinned size.

    The pinned size is the fourth Catalan convolution at n; the operation
    enumerates all unions of that many orbits (up to UNION_CAP of them),
    keeps the independent ones (no edge inside the union), deletes each and
    records the degree profile of the rest.  Sizes one off the pinned value
    are also tried to confirm no cubic outcome arises there.
    """
    if n < 3:
        raise ParameterError("need n >= 3")
    k = catalan_fourth_convolution(n)
    orb = orbits(n)
    g = orb.graph
    failures = []
    details: dict = {"pinned_orbit_count": k, "orbits": len(orb.orbits)}

    def survey(size: int) -> tuple[list[tuple[int, ...]], list[dict]]:
        """Independent unions of `size` orbits and their deletion outcomes."""
        if size == 0:
            prof = _deletion_profile(g, ())
            return [()], [prof]
        independents = []
        outcomes = []
        tried = 0
        truncated = False
        for combo in combinations(range(len(orb.orbits)), size):
            tried += 1
            if tried > UNION_CAP:
                truncated = True
                break
            union = sorted(x for ci in combo for x in orb.orbits[ci])
            if _is_independent(g, union):
                independents.append(combo)
                outcomes.append(_deletion_profile(g, tuple(union)))
        if truncated:
            details[f"truncated_at_size_{size}"] = UNION_CAP
        return independents, outcomes

    independents, outcomes = survey(k)
    details["independent_unions"] = len(independents)
    cubic = [
        oc for oc in outcomes if oc["signature"] == ("regular", 3)
    ]
    details["cubic_outcomes"] = len(cubic)
    if cubic:
        details["cubic_fingerprint"] = (
            cubic[0]["vertices"],
            cubic[0]["edges"],
            cubic[0]["girth"],
        )
    for off in (-1, 1):
        size = k + off
        if size < 0 or size > len(orb.orbits):
            continue
        _, off_outcomes = survey(size)
        bad = [oc for oc in off_outcomes if oc["signature"] == ("regular", 3)]
        if bad:
            failures.append(
                f"cubic outcome at union size {size}, off the pinned {k}"
            )
    return Report(
        f"independent orbit excision odd({n})",
        not failures,
        details,
        failures,
    )


def _is_independent(g: LabeledGraph, vertex_indices: list[int]) -> bool:
    inside = set(vertex_indices)
    return all(
        not inside.intersection(g.neighbors(i)) for i in vertex_indices
    )


def _deletion_profile(g: LabeledGraph, removed: tuple[int, ...]) -> dict:
    keep = [i for i in range(g.n_vertices) if i not in set(removed)]
    sub = g.subgraph(keep)
    census = classify_components(sub)
    sigs = set(census.counts)
    signature = sigs.pop() if len(sigs) == 1 else ("mixed",)
    return {
        "removed": len(removed),
        "vertices": sub.n_vertices,
        "edges": sub.n_edges,
        "signature": signature,
        "girth": girth(sub),
        "graph": sub,
    }


def coxeter_excision(n: int = 4) -> tuple[LabeledGraph, Report]:
    """Delete the first independent orbit of odd(4) and return the
    resulting graph with its fingerprint report (28 vertices, 42 edges,
    cubic, girth 7)."""
    if n != 4:
        raise ParameterError("the cubic excision fingerprint is pinned at n=4")
    orb = orbits(4)
    g = orb.graph
    chosen = None
    for orbit in orb.orbits:
        if _is_independent(g, list(orbit)):
            chosen = orbit
            break
    failures = []
    if chosen is None:
        return g, Report("cubic excision odd(4)", False,
                         failures=["no independent orbit"])
    prof = _deletion_profile(g, chosen)
    expected = {"vertices": 28, "edges": 42,
                "signature": ("regular", 3), "girth": 7}
    for key, want in expected.items():
        if prof[key] != want:
            failures.append(f"{key}: {prof[key]} != {want}")
    report = Report(
        "cubic excision odd(4)",
        not failures,
        details={k: prof[k] for k in ("vertices", "edges", "signature", "girth")},
        failures=failures,
    )
    return prof["graph"], report
