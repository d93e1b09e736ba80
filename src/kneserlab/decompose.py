"""Color-deletion subgraphs and their component structure.

Deleting a set S of edge colors from an odd graph splits it into biregular
pieces indexed by the partition {T, S-T} of S that each vertex induces via
its intersection with S.  The canonical deleted set for k colors is the
top block {2n-k, ..., 2n-1}; any other set of the same size produces an
identical census (checked, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

from .errors import ParameterError, UnlabeledGraphError
from .graphs import (
    MIDDLE_LEVELS,
    ODD,
    DegreeProfile,
    Family,
    LabeledGraph,
    Report,
    build,
    component_index_sets,
    degree_profile,
    gc_paused,
    signature_name,
)
from .setcore import Block, binomial

ColorsLike = Union[Block, Iterable[int]]

ISOLATED = ("isolated",)


def as_color_block(colors: ColorsLike, m: int) -> Block:
    """Normalize a color collection to a Block over [m]."""
    if isinstance(colors, Block):
        if colors.m != m:
            raise ParameterError(
                f"color set over [{colors.m}] does not match ground [{m}]"
            )
        return colors
    return Block.from_elements(colors, m)


def canonical_colors(n: int, k: int) -> Block:
    """The canonical k deleted colors of an odd/middle ground: the top block
    {2n-k, ..., 2n-1}."""
    m = 2 * n - 1
    if not 0 <= k <= m:
        raise ParameterError(f"cannot delete {k} of {m} colors")
    return Block.from_elements(range(2 * n - k, 2 * n), m)


@gc_paused
def delete_colors(g: LabeledGraph, colors: ColorsLike) -> LabeledGraph:
    """Same vertex set, minus every edge whose label lies in the color set."""
    if not g.labeled:
        raise UnlabeledGraphError("color deletion needs a labeled graph")
    drop = frozenset(as_color_block(colors, g.ground).elements())
    adj = tuple([
        tuple([pair for pair in row if pair[1] not in drop]) for row in g.adj
    ])
    return LabeledGraph(g.ground, g.vertices, adj, family=None, labeled=True)


def component_signature(g: LabeledGraph, vertex_indices: list[int]) -> tuple:
    """Census key of one component: isolated / regular / biregular / irregular.

    The same key as degree_profile(g.subgraph(vertex_indices)).signature,
    read from g.adj: a component is closed under adjacency, so its degrees
    in g are its degrees in the subgraph.
    """
    if len(vertex_indices) == 1:
        return ISOLATED
    adj = g.adj
    degrees = {len(adj[i]) for i in vertex_indices}
    if len(degrees) == 1:
        return ("regular", degrees.pop())
    if len(degrees) == 2:
        b, a = sorted(degrees)
        # biregular: every neighbour of a degree-a vertex has degree b and
        # every neighbour of a degree-b vertex has degree a
        for i in vertex_indices:
            row = adj[i]
            other = a + b - len(row)
            for j, _ in row:
                if len(adj[j]) != other:
                    return ("irregular",)
        return ("biregular", a, b)
    return ("irregular",)


@dataclass(frozen=True)
class ComponentCensus:
    """Multiset of component degree signatures with member lists.

    entries maps a signature to the list of component indices carrying it;
    component index i refers to components(g)[i] ordering.
    """

    entries: tuple[tuple[tuple, tuple[int, ...]], ...]

    @property
    def counts(self) -> dict[tuple, int]:
        return {sig: len(ixs) for sig, ixs in self.entries}

    def __str__(self) -> str:
        parts = [f"{signature_name(sig)}: {len(ixs)}" for sig, ixs in self.entries]
        return "{" + ", ".join(parts) + "}"


def classify_components(g: LabeledGraph) -> ComponentCensus:
    """Census of the components of g by degree signature.

    Single-vertex components get their own "isolated" signature rather
    than regular(0), so regularity statements range over components that
    actually carry edges.
    """
    by_sig: dict[tuple, list[int]] = {}
    for idx, ixs in enumerate(component_index_sets(g)):
        by_sig.setdefault(component_signature(g, ixs), []).append(idx)
    entries = tuple(sorted((sig, tuple(ixs)) for sig, ixs in by_sig.items()))
    return ComponentCensus(entries)


def expected_census(n: int, k: int, family_kind: str = ODD) -> dict[tuple, int]:
    """Closed-form census of O_n(k) (or B_n(k)) for 0 < k <= n (k <= n-1
    for the middle family).

    For the odd graph, components come in partition classes {T, S-T}: for
    each i < k/2 there are C(k,i) components biregular(n-i, n-k+i); even k
    adds C(k, k/2)/2 regular(n - k/2) components; k = n degenerates the
    i=0 entry to a single isolated vertex.  For the middle levels graph
    every T gives its own component, so matching i and k-i counts add and
    nothing is halved.
    """
    if family_kind == ODD:
        if not 0 < k <= n:
            raise ParameterError(f"closed form needs 0 < k <= n, got k={k}, n={n}")
        out: dict[tuple, int] = {}
        for i in range(0, (k + 1) // 2):
            sig = ("biregular", n - i, n - k + i)
            if k == n and i == 0:
                sig = ISOLATED
            out[sig] = out.get(sig, 0) + binomial(k, i)
        if k % 2 == 0:
            out[("regular", n - k // 2)] = binomial(k, k // 2) // 2
        return out
    if family_kind == MIDDLE_LEVELS:
        if not 0 < k <= n - 1:
            raise ParameterError(
                f"closed form needs 0 < k <= n-1, got k={k}, n={n}"
            )
        out = {}
        for i in range(0, k + 1):
            a, b = max(n - i, n - k + i), min(n - i, n - k + i)
            sig = ("regular", a) if a == b else ("biregular", a, b)
            out[sig] = out.get(sig, 0) + binomial(k, i)
        return out
    raise ParameterError(f"no closed-form census for family {family_kind!r}")


def side_u(g: LabeledGraph, s: Block, t: Block) -> list[Block]:
    """Vertices whose color trace inside s is exactly t."""
    return [v for v in g.vertices if v & s == t]


def side_w(g: LabeledGraph, s: Block, t: Block) -> list[Block]:
    """Vertices whose color trace inside s is exactly s - t."""
    rest = s - t
    return [v for v in g.vertices if v & s == rest]


@dataclass(frozen=True)
class BlockComponent:
    """One partition-class piece of a color-deleted odd graph."""

    graph: LabeledGraph
    profile: DegreeProfile
    u_side: tuple[Block, ...]
    w_side: tuple[Block, ...]


def block_component(n: int, colors: ColorsLike, t: ColorsLike) -> BlockComponent:
    """The induced piece of O_n(S) on the vertices whose intersection with
    S equals T or S - T.

    For |T| = i and |S| = k this is biregular of degrees (n-i, n-k+i);
    for k = n and T empty it degenerates to a single isolated vertex.
    """
    m = 2 * n - 1
    s = as_color_block(colors, m)
    tb = as_color_block(t, m)
    if not tb <= s:
        raise ParameterError(f"T={tb} is not a subset of S={s}")
    g = build(Family.odd(n))
    s_bits, u_bits, w_bits = s.bits, tb.bits, (s - tb).bits
    u: list[int] = []
    w: list[int] = []
    for i, v in enumerate(g.vertices):
        trace = v.bits & s_bits
        if trace == u_bits:
            u.append(i)
        if trace == w_bits:
            w.append(i)
    # T = S - T only for S empty: both sides are then the whole graph
    members = u if u_bits == w_bits else u + w
    sub = delete_colors(g.subgraph(members), s)
    return BlockComponent(
        graph=sub,
        profile=degree_profile(sub),
        u_side=tuple(g.vertices[i] for i in u),
        w_side=tuple(g.vertices[i] for i in w),
    )


@dataclass(frozen=True)
class RemainderGraph:
    """The unique (n, n-k)-biregular piece of O_n(k): the T-empty class of
    the canonical deleted color set."""

    graph: LabeledGraph
    profile: DegreeProfile


def remainder_graph(n: int, k: int) -> RemainderGraph:
    """Build the remainder graph of O_n after deleting k canonical colors."""
    if not 0 < k < n:
        raise ParameterError(f"remainder graph needs 0 < k < n, got ({n}, {k})")
    piece = block_component(n, canonical_colors(n, k), Block.empty(2 * n - 1))
    prof = piece.profile
    if prof.signature != ("biregular", n, n - k):
        raise AssertionError(
            f"remainder piece of O_{n}({k}) is {prof}, expected biregular({n},{n - k})"
        )
    if not piece.graph.connected:
        raise AssertionError(f"remainder piece of O_{n}({k}) is not connected")
    return RemainderGraph(graph=piece.graph, profile=prof)


def verify_disjointness(n: int, colors: ColorsLike) -> Report:
    """Check, for every pair of equal-size subsets T1 != T2 of the deleted
    set, the separation trichotomy: complementary half-size pairs swap
    their two sides, every other pair is vertex-disjoint and lies in
    different components of the color-deleted graph."""
    m = 2 * n - 1
    s = as_color_block(colors, m)
    k = s.card
    g = build(Family.odd(n))
    deleted = delete_colors(g, s)
    comp_sets = component_index_sets(deleted)
    comp_of = {}
    for ci, ixs in enumerate(comp_sets):
        for x in ixs:
            comp_of[x] = ci
    failures = []
    checked = 0
    s_elems = s.elements()
    for i in range(0, k + 1):
        subsets = [Block.from_elements(c, m) for c in combinations(s_elems, i)]
        for a in range(len(subsets)):
            for b in range(a + 1, len(subsets)):
                t1, t2 = subsets[a], subsets[b]
                checked += 1
                u1, w1 = set(side_u(g, s, t1)), set(side_w(g, s, t1))
                u2, w2 = set(side_u(g, s, t2)), set(side_w(g, s, t2))
                if 2 * i == k and (t1 & t2).card == 0:
                    if not (u1 == w2 and w1 == u2):
                        failures.append((str(t1), str(t2), "expected side swap"))
                    continue
                set1, set2 = u1 | w1, u2 | w2
                if set1 & set2:
                    failures.append((str(t1), str(t2), "vertex sets intersect"))
                    continue
                comps1 = {comp_of[g.index_of(v)] for v in set1}
                comps2 = {comp_of[g.index_of(v)] for v in set2}
                if comps1 & comps2:
                    failures.append((str(t1), str(t2), "share a component"))
    return Report(
        f"class-separation O_{n}({str(s)})",
        not failures,
        details={"pairs_checked": checked},
        failures=failures,
    )


def regular_component_partitions(n: int, s: Block) -> list[tuple[Block, Block]]:
    """The {T, S-T} partitions indexing the regular components of O_n(S),
    one representative pair per component, T the lexicographically smaller
    half."""
    k = s.card
    if k % 2:
        return []
    m = 2 * n - 1
    seen = set()
    out = []
    for c in combinations(s.elements(), k // 2):
        t = Block.from_elements(c, m)
        rest = s - t
        key = frozenset((t.bits, rest.bits))
        if key in seen:
            continue
        seen.add(key)
        lo, hi = sorted((t, rest), key=lambda b: b.lex_key())
        out.append((lo, hi))
    return out


def middle_component_census(n: int, k: int, family_kind: str = ODD) -> Report:
    """Count the regular components left after deleting k colors and verify
    each is a middle-levels graph of the right order.

    For the odd graph the count must be C(k-1, k/2-1); for the middle
    levels graph it is twice that.  Isomorphism onto the reference middle
    levels graph is established through the explicit maps in the morphisms
    module, never by search.
    """
    if k <= 0 or k % 2:
        raise ParameterError(f"regular components need even k > 0, got {k}")
    from . import morphisms  # cycle: morphisms builds on this module

    mm = n - k // 2
    if mm < 1:
        raise ParameterError(f"no middle-levels target for n={n}, k={k}")
    if family_kind == ODD:
        expected = binomial(k - 1, k // 2 - 1)
    elif family_kind == MIDDLE_LEVELS:
        expected = 2 * binomial(k - 1, k // 2 - 1)
    else:
        raise ParameterError(f"unsupported family {family_kind!r}")

    failures = []
    details: dict = {"expected_regular": expected, "target": f"middle({mm})"}
    g = build(Family.odd(n) if family_kind == ODD else Family.middle_levels(n))
    s = canonical_colors(n, k)
    census = classify_components(delete_colors(g, s))
    regular_ix = census.counts.get(("regular", mm), 0)
    details["found_regular"] = regular_ix
    if regular_ix != expected:
        failures.append(f"count {regular_ix} != {expected}")
    if family_kind == ODD:
        for t, _rest in regular_component_partitions(n, s):
            vmap = morphisms.regular_component_to_middle(n, s, t)
            if not vmap.verify():
                failures.append(f"component T={t} not isomorphic to middle({mm})")
    else:
        for c in combinations(s.elements(), k // 2):
            t = Block.from_elements(c, 2 * n - 1)
            vmap = morphisms.middle_class_to_middle(n, s, t)
            if not vmap.verify():
                failures.append(f"class T={t} not isomorphic to middle({mm})")
    return Report(
        f"regular-components {family_kind}({n}) minus {k} colors",
        not failures,
        details=details,
        failures=failures,
    )
