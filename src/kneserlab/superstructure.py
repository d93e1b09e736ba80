"""Meta-structure on the middle-levels components of color-deleted graphs.

Deleting an even number k of colors from an odd graph leaves a family of
middle-levels components, each determined by a partition of the deleted
set into two halves.  Components whose partitions are exchanged by a
transposition through a distinguished deleted color form a graph of their
own; that graph is again an odd graph (or a middle levels graph when the
deletion happens inside a middle levels graph).  The same mechanism
describes the subgraph induced by the vertices farthest from any fixed
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import classify_components, delete_colors
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
    component_index_sets,
    graph_from_edges,
)
from .morphisms import VertexMap, regular_component_to_middle
from .setcore import Block, binomial


def two_color_path(
    g: LabeledGraph, v: Block, a: int, b: int
) -> PathSeq:
    """The length-two path in an odd graph from v to its image under the
    transposition (a, b), with edge labels {a, b}.

    Requires exactly one of a, b to lie in v; otherwise the transposition
    fixes v and no such path exists.  The middle vertex is the complement
    of v plus the missing color, so it meets neither a nor b.  Both other
    vertices are found from their masks in g's index.
    """
    ground = g.ground
    if ground % 2 == 0:
        raise ParameterError("two-color paths live in odd graphs")
    if not (1 <= a <= ground and 1 <= b <= ground) or a == b:
        raise ParameterError(f"colors must be distinct elements of [{ground}]")
    bits = v.bits
    a_bit, b_bit = 1 << (a - 1), 1 << (b - 1)
    a_in = bool(bits & a_bit)
    if a_in == bool(bits & b_bit):
        raise DegenerateCaseError(
            f"transposition ({a},{b}) fixes {v}; no two-color path"
        )
    out_bit = b_bit if a_in else a_bit
    # x: the complement of v plus the outside color; w: v with the two
    # colors traded
    x_bits = (bits | out_bit) ^ ((1 << ground) - 1)
    w_bits = bits ^ a_bit ^ b_bit
    iv = g.index_of(v)
    ix, iw = g.mask_indices((x_bits, w_bits))
    return PathSeq.from_indices(g, (iv, ix, iw), closed=False)


def _relabel_map(s: Block, distinguished: int) -> dict[int, int]:
    """Order-preserving bijection from S - {distinguished} onto [|S|-1]."""
    rest = [e for e in s.elements() if e != distinguished]
    return {e: i + 1 for i, e in enumerate(rest)}


@dataclass(frozen=True)
class MiddleComponentId:
    """Identifier of one middle-levels component of a color-deleted graph.

    half is the half of the deleted-set partition containing the
    distinguished color (for components of an odd graph) or the exact
    color trace of the class (for components of a middle levels graph).
    label is that data re-expressed over [k-1]: the half minus the
    distinguished color for the odd case; for the middle case the trace
    minus the distinguished color when present, the trace itself when not.
    """

    family_kind: str
    half: Block
    label: Block

    def __str__(self) -> str:
        return str(self.label)


@dataclass
class SuperGraph:
    """The component meta-graph: one vertex per middle-levels component,
    edges where a transposition through the distinguished color carries
    one component's defining data to the other's.

    graph encodes the ids over ground [k-1], so the expected target family
    instance has literally the same vertex set; iso is the identity map on
    blocks, verified, and criteria_agree records that the transposition
    rule and the partition-data shortcut produced the same edges.
    """

    graph: LabeledGraph
    target: Family
    iso: VertexMap
    criteria_agree: bool


def middle_components(n: int, k: int) -> list[MiddleComponentId]:
    """Ids of the middle-levels components of the odd graph minus the
    colors [k], with distinguished color k."""
    s = Block.from_elements(range(1, k + 1), 2 * n - 1)
    return _component_ids(n, s, k, ODD)


def _component_ids(
    n: int, s: Block, d: int, family_kind: str
) -> list[MiddleComponentId]:
    k = s.card
    if k <= 0 or k % 2:
        raise ParameterError(f"need a nonempty even color set, got |S|={k}")
    mm = n - k // 2
    if mm < 1:
        raise ParameterError(f"no middle-levels components for n={n}, k={k}")
    relabel = _relabel_map(s, d)
    fam = Family.odd(n) if family_kind == ODD else Family.middle_levels(n)
    g = build(fam)
    deleted = delete_colors(g, s)
    ids = []
    seen_halves = set()
    for comp in component_index_sets(deleted):
        trace = Block(deleted.masks[comp[0]] & s.bits, s.m)
        if trace.card != k // 2:
            continue
        # an odd-graph class {T, S-T} is named by its half holding d
        half = s - trace if family_kind == ODD and d not in trace else trace
        if half.bits in seen_halves:
            raise AssertionError(f"class {half} split across components")
        seen_halves.add(half.bits)
        label = Block.from_elements(
            [relabel[e] for e in half.elements() if e != d], k - 1
        )
        ids.append(MiddleComponentId(family_kind, half, label))
    ids.sort(key=lambda c: c.label.bits)
    return ids


def _partition_adjacent_by_involution(
    id1: MiddleComponentId, id2: MiddleComponentId, s: Block, d: int
) -> bool:
    """Whether some transposition (a, d), a in S - {d}, carries one
    component's defining data onto the other's."""
    m = s.m
    for a in s.elements():
        if a == d:
            continue
        swapped_bits = id1.half.bits
        has_a = bool(swapped_bits >> (a - 1) & 1)
        has_d = bool(swapped_bits >> (d - 1) & 1)
        if has_a == has_d:
            continue  # transposition fixes the half
        swapped = Block(
            swapped_bits ^ (1 << (a - 1)) ^ (1 << (d - 1)), m
        )
        if id1.family_kind == ODD:
            if swapped == id2.half or swapped == s - id2.half:
                return True
        else:
            if swapped == id2.half:
                return True
    return False


def _build_super(
    n: int, s: Block, d: int, family_kind: str
) -> SuperGraph:
    k = s.card
    ids = _component_ids(n, s, d, family_kind)
    if family_kind == ODD:
        target = Family.odd(k // 2)
        expected_count = binomial(k - 1, k // 2 - 1)
    else:
        target = Family.middle_levels(k // 2)
        expected_count = 2 * binomial(k - 1, k // 2 - 1)
    if len(ids) != expected_count:
        raise AssertionError(
            f"found {len(ids)} middle-levels components, expected {expected_count}"
        )
    edges = []
    agree = True
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            by_inv = _partition_adjacent_by_involution(ids[i], ids[j], s, d)
            if family_kind == ODD:
                by_data = ids[i].label.isdisjoint(ids[j].label)
            else:
                small, big = sorted((ids[i].label, ids[j].label), key=lambda x: x.card)
                by_data = small.card != big.card and small <= big
            if by_inv != by_data:
                agree = False
            if by_data:
                edges.append((i, j, None))
    graph = graph_from_edges(k - 1, [c.label for c in ids], edges)
    ref = build(target)
    identity = ref.mask_indices(graph.masks)
    iso = VertexMap(
        graph, ref, tuple(identity), kind="isomorphism",
        name=f"superstructure -> {target}",
    )
    iso.verify()
    return SuperGraph(graph, target, iso, agree)


def build_m(n: int, k: int) -> SuperGraph:
    """Meta-graph of the middle-levels components of the odd graph minus
    the colors [k]; isomorphic to odd(k/2)."""
    m = 2 * n - 1
    if not 0 < k < m:
        raise ParameterError(f"need 0 < k < {m}")
    s = Block.from_elements(range(1, k + 1), m)
    return _build_super(n, s, k, ODD)


def build_l(n: int, k: int) -> SuperGraph:
    """Meta-graph of the middle-levels components of the middle levels
    graph minus the colors [k]; isomorphic to middle(k/2)."""
    m = 2 * n - 1
    if not 0 < k < m:
        raise ParameterError(f"need 0 < k < {m}")
    s = Block.from_elements(range(1, k + 1), m)
    return _build_super(n, s, k, MIDDLE_LEVELS)


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
    comp_sets = component_index_sets(sub)
    for comp in comp_sets:
        rep = Block(sub.masks[comp[0]], sub.ground)
        t = rep & colors
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
    d = max(colors.elements())
    sup = _build_super(n, colors, d, ODD)
    return BottomLevel(report, sup)
