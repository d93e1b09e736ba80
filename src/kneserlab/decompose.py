"""Color-deletion subgraphs and their component structure.

Deleting a set S of edge colors from an odd graph splits it into biregular
pieces indexed by the partition {T, S-T} of S that each vertex induces via
its intersection with S.  The canonical deleted set for k colors is the
top block {2n-k, ..., 2n-1}; any other set of the same size produces an
identical census (checked, not assumed).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat

from .errors import ParameterError, UnlabeledGraphError
from .graphs import (
    MIDDLE_LEVELS,
    ODD,
    Family,
    LabeledGraph,
    Report,
    build,
    degree_profile,
    degree_signature,
    gc_paused,
    signature_name,
)
from .setcore import Block, ColorsLike, as_color_block, binomial

ISOLATED = ("isolated",)


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
    kept = (frozenset(chain.from_iterable(g.label_table)) - drop).__contains__
    # per row, the neighbours whose label is kept, and those labels
    nbrs = map(compress, g.neighbor_table, map(map, repeat(kept), g.label_table))
    labels = map(filter, repeat(kept), g.label_table)
    return LabeledGraph(g.ground, g.masks, tuple(map(tuple, nbrs)),
                        tuple(map(tuple, labels)), family=None, labeled=True)


def shared_deletion(g: LabeledGraph, colors: ColorsLike) -> LabeledGraph:
    """delete_colors(g, colors), made once per graph: g.memo keeps it for
    as long as g lives.  For graphs that build returns, which many callers
    share; delete_colors itself stores nothing."""
    key = ("deleted", as_color_block(colors, g.ground).bits)
    if key not in g.memo:
        g.memo[key] = delete_colors(g, colors)
    return g.memo[key]


def component_signature(g: LabeledGraph, vertex_indices: list[int]) -> tuple:
    """Census key of one component: isolated / regular / biregular / irregular.

    The same key as degree_profile(g.subgraph(vertex_indices)), read from
    g.neighbor_table: a component is closed under adjacency, so
    its degrees in g are its degrees in the subgraph.
    """
    if len(vertex_indices) == 1:
        return ISOLATED
    return degree_signature(g.neighbor_table, vertex_indices)


@dataclass(frozen=True)
class ComponentCensus:
    """Multiset of component degree signatures: counts maps each signature
    to its number of components, in signature order."""

    counts: dict[tuple, int]

    def __str__(self) -> str:
        parts = [f"{signature_name(sig)}: {c}" for sig, c in self.counts.items()]
        return "{" + ", ".join(parts) + "}"


def classify_components(g: LabeledGraph) -> ComponentCensus:
    """Census of the components of g by degree signature.

    Single-vertex components get their own "isolated" signature rather
    than regular(0), so regularity statements range over components that
    actually carry edges.
    """
    counts = Counter(component_signature(g, ixs) for ixs in g.component_sets)
    return ComponentCensus(dict(sorted(counts.items())))


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


def trace_classes(g: LabeledGraph, colors: ColorsLike) -> dict[int, list[int]]:
    """{trace mask: vertex indices in canonical order} of g's vertices by
    their trace v & S, in one pass.  The {T, S-T} class of a color deletion
    is the union of the entries for T and S - T; an unused trace has none."""
    s_bits = as_color_block(colors, g.ground).bits
    classes: defaultdict[int, list[int]] = defaultdict(list)
    for i, x in enumerate(g.masks):
        classes[x & s_bits].append(i)
    return dict(classes)


@dataclass(frozen=True)
class BlockComponent:
    """One partition-class piece of a color-deleted odd graph and its
    degree signature; trace_classes gives its two sides."""

    graph: LabeledGraph
    signature: tuple


def block_component(n: int, colors: ColorsLike, t: ColorsLike) -> BlockComponent:
    """The induced piece of O_n(S) on the vertices whose intersection with
    S equals T or S - T.

    For |T| = i and |S| = k this is biregular of degrees (n-i, n-k+i);
    for k = n and T empty it degenerates to a single isolated vertex.
    The piece is cut from shared_deletion(O_n, S), once per class and
    built O_n, whichever half T or S - T names it: the graph's memo keeps
    it under the smaller half's mask for as long as that O_n lives, so
    inside a holding_families block a second call for either half
    returns the same object.
    """
    m = 2 * n - 1
    s = as_color_block(colors, m)
    tb = as_color_block(t, m)
    if not tb <= s:
        raise ParameterError(f"T={tb} is not a subset of S={s}")
    g = build(Family.odd(n))
    key = ("piece", s.bits, min(tb.bits, (s - tb).bits))
    if key not in g.memo:
        classes = trace_classes(g, s)
        u = classes.get(tb.bits, [])
        w = classes.get((s - tb).bits, [])
        # T = S - T only for S empty: both sides are then the whole graph
        sub = shared_deletion(g, s).subgraph(u if tb == s - tb else u + w)
        g.memo[key] = BlockComponent(sub, degree_profile(sub))
    return g.memo[key]


def remainder_graph(n: int, k: int) -> BlockComponent:
    """The remainder graph of O_n after deleting k canonical colors: the
    T-empty piece of the canonical deleted set, the unique (n, n-k)-
    biregular component of O_n(k).

    The piece is block_component's, cut once per built O_n and checked on
    every call: the piece stores its signature and its graph caches its
    components, so a repeated check reads both.
    """
    if not 0 < k < n:
        raise ParameterError(f"remainder graph needs 0 < k < n, got ({n}, {k})")
    piece = block_component(n, canonical_colors(n, k), ())
    if piece.signature != ("biregular", n, n - k):
        raise AssertionError(f"remainder piece of O_{n}({k}) is"
                             f" {signature_name(piece.signature)},"
                             f" expected biregular({n},{n - k})")
    if not piece.graph.connected:
        raise AssertionError(f"remainder piece of O_{n}({k}) is not connected")
    return piece


def verify_disjointness(n: int, colors: ColorsLike) -> Report:
    """Check, for every pair of equal-size subsets T1 != T2 of the deleted
    set, the separation trichotomy: a complementary half-size pair names
    one class, which is exactly one component of the color-deleted graph
    (each half's U side is the other's W side); every other pair is
    vertex-disjoint and lies in different components."""
    m = 2 * n - 1
    s = as_color_block(colors, m)
    k = s.card
    g = build(Family.odd(n))
    classes = trace_classes(g, s)
    comp_of = [0] * g.n_vertices
    comp_sizes = []
    for ci, ixs in enumerate(shared_deletion(g, s).component_sets):
        comp_sizes.append(len(ixs))
        for x in ixs:
            comp_of[x] = ci
    failures = []
    checked = 0
    s_elems = s.elements()
    for i in range(0, k + 1):
        subsets = [Block.from_elements(c, m) for c in combinations(s_elems, i)]
        sides = [
            (t, set(classes.get(t.bits, ())), set(classes.get((s - t).bits, ())))
            for t in subsets
        ]
        for (t1, u1, w1), (t2, u2, w2) in combinations(sides, 2):
            checked += 1
            if 2 * i == k and (t1 & t2).card == 0:
                members = u1 | w1
                comps = {comp_of[x] for x in members}
                if len(comps) != 1 or comp_sizes[comps.pop()] != len(members):
                    failures.append((str(t1), str(t2), "class is not one component"))
                continue
            set1, set2 = u1 | w1, u2 | w2
            if set1 & set2:
                failures.append((str(t1), str(t2), "vertex sets intersect"))
                continue
            comps1 = {comp_of[x] for x in set1}
            comps2 = {comp_of[x] for x in set2}
            if comps1 & comps2:
                failures.append((str(t1), str(t2), "share a component"))
    return Report(
        f"class-separation O_{n}({str(s)})",
        not failures,
        details={"pairs_checked": checked},
        failures=failures,
    )


def regular_component_partitions(s: Block) -> list[Block]:
    """The halves T of the {T, S-T} partitions indexing the regular
    components of O_n(S), one per component: T is the half that holds
    min(S), so the lexicographically smaller one, in lexicographic order.
    S empty gives its one class, T empty."""
    k = s.card
    if k % 2:
        return []
    if not k:
        return [s]
    first, *rest = s.elements()
    return [Block.from_elements((first, *c), s.m)
            for c in combinations(rest, k // 2 - 1)]
