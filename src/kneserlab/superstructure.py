"""Meta-structure on the middle-levels components of color-deleted graphs.

Deleting an even number k of colors S from an odd graph leaves a family of
middle-levels components, one per partition {T, S-T} of the deleted set
into equal halves.  A component is named by its half, an int mask: the
half holding a distinguished color d (in a middle levels graph, the trace
T itself).  Components whose halves a transposition (a, d) exchanges form
a graph of their own: with each half minus d packed onto [k-1], that
graph is again an odd graph (or a middle levels graph when the deletion
happens inside a middle levels graph).  The same mechanism describes the
subgraph induced by the vertices farthest from any fixed vertex; its
components are classes it has already checked, and their halves feed
the same builder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import classify_components, shared_deletion
from .errors import DegenerateCaseError, ParameterError
from .graphs import (
    MIDDLE_LEVELS,
    ODD,
    Family,
    LabeledGraph,
    PathSeq,
    Report,
    bfs_distances,
    build,
    graph_from_edges,
)
from .morphisms import ISOMORPHISM, VertexMap, regular_component_to_middle
from .setcore import Block, binomial


def two_color_middle(bits: int, colors: int, ground: int) -> int:
    """The mask of the middle vertex of the two-color path from the vertex
    with mask bits: the complement within [ground] of bits | colors, the
    mask of the two colors.  For a vertex holding exactly one of the two
    colors this is its one neighbour that meets neither; for any other
    vertex it has the wrong size to be a vertex."""
    return (bits | colors) ^ ((1 << ground) - 1)


def two_color_path(
    g: LabeledGraph, v: Block, a: int, b: int
) -> PathSeq:
    """The length-two path in an odd graph from v to its image under the
    transposition (a, b), with edge labels {a, b}.

    Requires exactly one of a, b to lie in v; otherwise the transposition
    fixes v and no such path exists.  The middle vertex is
    two_color_middle's, so it meets neither a nor b.  Both other vertices
    are found from their masks in g's index.
    """
    ground = g.ground
    if ground % 2 == 0:
        raise ParameterError("two-color paths live in odd graphs")
    if not (1 <= a <= ground and 1 <= b <= ground) or a == b:
        raise ParameterError(f"colors must be distinct elements of [{ground}]")
    bits = v.bits
    a_bit, b_bit = 1 << (a - 1), 1 << (b - 1)
    if bool(bits & a_bit) == bool(bits & b_bit):
        raise DegenerateCaseError(
            f"transposition ({a},{b}) fixes {v}; no two-color path"
        )
    # x: the middle vertex; w: v with the two colors traded
    x_bits = two_color_middle(bits, a_bit | b_bit, ground)
    w_bits = bits ^ a_bit ^ b_bit
    iv = g.index_of(v)
    ix, iw = g.mask_indices((x_bits, w_bits))
    return PathSeq.from_indices(g, (iv, ix, iw), closed=False)


@dataclass
class SuperGraph:
    """The component meta-graph: one vertex per middle-levels component,
    edges where a transposition through the distinguished color carries
    one component's half onto the other's.

    graph's vertices are the halves minus the distinguished color, packed
    onto ground [k-1], so the expected target family instance has
    literally the same vertex set; iso is the identity map on masks onto
    it, verified, and criteria_agree records that the transposition rule
    and the disjointness/containment rule produced the same edges.
    """

    graph: LabeledGraph
    iso: VertexMap
    criteria_agree: bool

    @property
    def target(self) -> Family:
        return self.iso.target.family


def _component_halves(n: int, s: Block, d: int, family_kind: str) -> list[int]:
    """The half masks naming the middle-levels components of the odd
    (family_kind ODD) or middle levels graph minus the colors S: the
    class {T, S-T} of an odd graph by its half holding d, a class of a
    middle levels graph by its trace T."""
    k = s.card
    if k <= 0 or k % 2:
        raise ParameterError(f"need a nonempty even color set, got |S|={k}")
    if n - k // 2 < 1:
        raise ParameterError(f"no middle-levels components for n={n}, k={k}")
    fam = Family.odd(n) if family_kind == ODD else Family.middle_levels(n)
    deleted = shared_deletion(build(fam), s)
    d_bit = 1 << (d - 1)
    halves = []
    for comp in deleted.component_sets:
        trace = deleted.masks[comp[0]] & s.bits
        if trace.bit_count() != k // 2:
            continue
        half = trace ^ s.bits if family_kind == ODD and not trace & d_bit else trace
        if half in halves:
            raise AssertionError(f"class {Block(half, s.m)} split across components")
        halves.append(half)
    return halves


def _build_super(s: Block, d: int, family_kind: str, halves: list[int]) -> SuperGraph:
    """The meta-graph on the given component halves of a deletion of the
    colors S, with distinguished color d."""
    k = s.card
    if family_kind == ODD:
        target = Family.odd(k // 2)
        expected_count = binomial(k - 1, k // 2 - 1)
    else:
        target = Family.middle_levels(k // 2)
        expected_count = 2 * binomial(k - 1, k // 2 - 1)
    if len(halves) != expected_count:
        raise AssertionError(
            f"found {len(halves)} middle-levels components, expected {expected_count}"
        )
    d_bit = 1 << (d - 1)
    rest = [1 << (e - 1) for e in s.elements() if e != d]
    labels = [sum(1 << i for i, bit in enumerate(rest) if h & bit) for h in halves]
    edges = []
    agree = True
    for i, hi in enumerate(halves):
        # images of hi under the transpositions (a, d) that move it; an odd
        # graph's class is the same under either of its halves
        moved = {hi ^ bit ^ d_bit for bit in rest if bool(hi & bit) != bool(hi & d_bit)}
        if family_kind == ODD:
            moved |= {x ^ s.bits for x in moved}
        li = labels[i]
        for j in range(i + 1, len(halves)):
            lj = labels[j]
            by_data = not li & lj if family_kind == ODD else (li & lj) in (li, lj)
            agree = agree and (halves[j] in moved) == by_data
            if by_data:
                edges.append((i, j, None))
    graph = graph_from_edges(k - 1, [Block(x, k - 1) for x in labels], edges)
    ref = build(target)
    identity = ref.mask_indices(graph.masks)
    iso = VertexMap(
        graph, ref, tuple(identity), kind=ISOMORPHISM,
        name=f"superstructure -> {target}",
    )
    iso.verify()
    return SuperGraph(graph, iso, agree)


def _meta_graph(n: int, k: int, family_kind: str) -> SuperGraph:
    m = 2 * n - 1
    if not 0 < k < m:
        raise ParameterError(f"need 0 < k < {m}")
    s = Block.from_elements(range(1, k + 1), m)
    return _build_super(s, k, family_kind, _component_halves(n, s, k, family_kind))


def build_m(n: int, k: int) -> SuperGraph:
    """Meta-graph of the middle-levels components of the odd graph minus
    the colors [k]; isomorphic to odd(k/2)."""
    return _meta_graph(n, k, ODD)


def build_l(n: int, k: int) -> SuperGraph:
    """Meta-graph of the middle-levels components of the middle levels
    graph minus the colors [k]; isomorphic to middle(k/2)."""
    return _meta_graph(n, k, MIDDLE_LEVELS)


@dataclass
class BottomLevel:
    """The subgraph induced by the vertices at maximal distance from a
    fixed vertex, its component census, and the meta-graph of its
    components."""

    census: Report
    superstructure: SuperGraph


def bottom_level(n: int, v: Block) -> BottomLevel:
    """Structure of the vertices of odd(n) at distance n-1 from v.

    The induced subgraph must be C(2*floor(n/2)-1, floor(n/2)-1) disjoint
    copies of middle(ceil(n/2)); its components are the middle-levels
    components of the graph minus the colors of v (n odd) or of the
    complement of v (n even), and their meta-graph is odd(floor(n/2)).
    """
    if n < 2:
        raise ParameterError("bottom level needs n >= 2")
    g = build(Family.odd(n))
    iv = g.index_of(v)
    dist = bfs_distances(g, iv)
    far = [i for i, dd in enumerate(dist) if dd == n - 1]
    sub = g.subgraph(far)

    colors = v if n % 2 else v.complement()
    mm_copies = binomial(2 * (n // 2) - 1, n // 2 - 1)
    target_m = (n + 1) // 2
    failures = []
    census = classify_components(sub)
    counts = census.counts
    expected = {("regular", target_m): mm_copies}
    if counts != expected:
        failures.append(f"census {census} != expected {mm_copies} regular({target_m})")
    comp_sets = sub.component_sets
    d = max(colors.elements())
    halves = []
    for comp in comp_sets:
        rep = Block(sub.masks[comp[0]], sub.ground)
        t = rep & colors
        halves.append((t if d in t else colors - t).bits)
        vmap = regular_component_to_middle(n, colors, t)
        comp_graph = sub.subgraph(comp)
        if vmap.source != comp_graph:
            failures.append(f"component at {rep} is not the color-deleted class")
            continue
        if not vmap.verify():
            failures.append(f"component at {rep} not isomorphic to middle({target_m})")
    report = Report(
        f"bottom level odd({n}) around {v}",
        not failures,
        details={
            "far_vertices": len(far),
            "components": len(comp_sets),
            "expected_components": mm_copies,
            "component_type": f"middle({target_m})",
        },
        failures=failures,
    )
    return BottomLevel(report, _build_super(colors, d, ODD, halves))
