"""Explicit vertex maps between graph families, with independent verifiers.

Every map built here comes from a closed formula (complementation, color
swaps, block moves between deleted-color components, the double-cover
projection); verification is a separate code path that checks the claimed
property edge by edge.  A small backtracking isomorphism search exists
solely as a cross-validation oracle for graphs of a couple dozen vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .decompose import (
    as_color_block,
    block_component,
    canonical_colors,
    delete_colors,
    trace_classes,
)
from .errors import DegenerateCaseError, ParameterError
from .graphs import (
    Family,
    LabeledGraph,
    PathSeq,
    Report,
    build,
    graph_from_edges,
)
from .setcore import Block, Perm

MORPHISM = "morphism"
ISOMORPHISM = "isomorphism"
COVERING = "covering"
AUTOMORPHISM = "automorphism"


@dataclass
class VertexMap:
    """A function between the vertex sets of two graphs.

    verified is tri-state: None until checked, then the outcome of
    verify() for the claimed kind.
    """

    source: LabeledGraph
    target: LabeledGraph
    mapping: dict[Block, Block]
    kind: str = MORPHISM
    name: str = ""
    verified: Optional[bool] = field(default=None, compare=False)

    def apply(self, v: Block) -> Block:
        return self.mapping[v]

    def is_total(self) -> bool:
        return all(v in self.mapping for v in self.source.vertices)

    def is_bijection(self) -> bool:
        if len(self.mapping) != self.target.n_vertices:
            return False
        images = set(self.mapping.values())
        return len(images) == len(self.mapping) and all(
            map(self.target.has_vertex, images)
        )

    def fibers(self) -> dict[Block, list[Block]]:
        out: dict[Block, list[Block]] = {}
        for v, w in self.mapping.items():
            out.setdefault(w, []).append(v)
        return out

    def inverse(self) -> "VertexMap":
        if not self.is_bijection():
            raise ParameterError(f"map {self.name!r} is not a bijection")
        return VertexMap(
            self.target,
            self.source,
            {w: v for v, w in self.mapping.items()},
            kind=self.kind,
            name=f"{self.name}^-1",
        )

    def compose(self, inner: "VertexMap") -> "VertexMap":
        """self after inner (inner runs first)."""
        if inner.target != self.source:
            raise ParameterError(
                f"cannot compose: {inner.name!r} lands in a different graph "
                f"than {self.name!r} starts from"
            )
        mapping = {v: self.mapping[w] for v, w in inner.mapping.items()}
        kind = (
            ISOMORPHISM
            if self.kind in (ISOMORPHISM, AUTOMORPHISM)
            and inner.kind in (ISOMORPHISM, AUTOMORPHISM)
            else MORPHISM
        )
        return VertexMap(
            inner.source, self.target, mapping, kind=kind,
            name=f"{self.name} after {inner.name}",
        )

    def verify(self) -> bool:
        """Check the property claimed by kind; records and returns it."""
        if self.kind == COVERING:
            ok = verify_cover(self).ok
        elif self.kind in (ISOMORPHISM, AUTOMORPHISM):
            ok = is_isomorphism(self.source, self.target, self)
            if self.kind == AUTOMORPHISM:
                ok = ok and self.source == self.target
        else:
            ok = is_morphism(self.source, self.target, self)
        self.verified = ok
        return ok


def _mapping_of(m) -> dict[Block, Block]:
    return m.mapping if isinstance(m, VertexMap) else dict(m)


def is_morphism(g: LabeledGraph, h: LabeledGraph, m) -> bool:
    """True iff the map sends every edge of g to an edge of h."""
    mapping = _mapping_of(m)
    missing = [v for v in g.vertices if v not in mapping]
    if missing:
        raise ParameterError(f"map not total: missing {missing[0]}")
    himg = []
    for v in g.vertices:
        w = mapping[v]
        if not h.has_vertex(w):
            return False
        himg.append(h.index[w.bits])
    for i, j, _ in g.edges():
        if not h.has_edge(himg[i], himg[j]):
            return False
    return True


def is_isomorphism(g: LabeledGraph, h: LabeledGraph, m) -> bool:
    """True iff the map is a bijective morphism whose inverse is also a
    morphism (the inverse direction is checked explicitly)."""
    mapping = _mapping_of(m)
    if len(mapping) != g.n_vertices or g.n_vertices != h.n_vertices:
        return False
    values = set(mapping.values())
    if len(values) != len(mapping) or not all(map(h.has_vertex, values)):
        return False
    if not is_morphism(g, h, mapping):
        return False
    inverse = {w: v for v, w in mapping.items()}
    return is_morphism(h, g, inverse)


def cover_map(n: int, k: int) -> VertexMap:
    """The 2-to-1 projection from the bipartite Kneser graph B(n,k) onto
    the Kneser graph K(n,k): k-blocks map to themselves, (n-k)-blocks to
    their complement."""
    if not 0 < k < n:
        raise ParameterError(f"need 0 < k < n, got ({n}, {k})")
    if 2 * k == n:
        raise DegenerateCaseError("k = n-k collapses the two sides")
    src = build(Family.bipartite_kneser(n, k))
    dst = build(Family.kneser(n, k))
    mapping = {
        v: (v if v.card == k else v.complement()) for v in src.vertices
    }
    return VertexMap(src, dst, mapping, kind=COVERING, name=f"cover({n},{k})")


def verify_cover(m: VertexMap, expected_fiber: Optional[int] = None) -> Report:
    """Check that a map is a covering: constant fiber size over the whole
    target, a morphism, and a bijection between the edges at any source
    vertex and the edges at its image."""
    failures = []
    mapping = m.mapping
    if not m.is_total():
        failures.append("map not total")
        return Report(f"cover {m.name}", False, failures=failures)
    fiber_sizes = {w: 0 for w in m.target.vertices}
    for v, w in mapping.items():
        if w not in fiber_sizes:
            failures.append(f"image {w} outside target")
            return Report(f"cover {m.name}", False, failures=failures)
        fiber_sizes[w] += 1
    sizes = set(fiber_sizes.values())
    fiber = sizes.pop() if len(sizes) == 1 else None
    if fiber is None or fiber == 0:
        failures.append("fiber size not constant")
    elif expected_fiber is not None and fiber != expected_fiber:
        failures.append(f"fiber {fiber} != expected {expected_fiber}")
    if not is_morphism(m.source, m.target, mapping):
        failures.append("not a morphism")
    else:
        for i, v in enumerate(m.source.vertices):
            w = m.target.index_of(mapping[v])
            nbr_imgs = [
                m.target.index_of(mapping[m.source.vertices[j]])
                for j in m.source.neighbors(i)
            ]
            target_nbrs = set(m.target.neighbors(w))
            if len(nbr_imgs) != len(set(nbr_imgs)) or set(nbr_imgs) != target_nbrs:
                failures.append(f"edges at {v} not bijective onto edges at {mapping[v]}")
                break
    ok = not failures
    return Report(
        f"cover {m.name}", ok,
        details={"fiber": fiber, "source": m.source.n_vertices,
                 "target": m.target.n_vertices},
        failures=failures,
    )


def kappa(n: int) -> VertexMap:
    """The complementation automorphism of the middle levels graph."""
    g = build(Family.middle_levels(n))
    mapping = {v: v.complement() for v in g.vertices}
    return VertexMap(g, g, mapping, kind=AUTOMORPHISM, name=f"kappa({n})")


def kappa_preserves_labels(n: int) -> Report:
    """Check that complementation keeps every edge label of the middle
    levels graph: if u ^ v = {a} then kappa(u) ^ kappa(v) = {a}."""
    g = build(Family.middle_levels(n))
    km = kappa(n)
    failures = []
    for i, j, lab in g.edges():
        u, v = g.vertices[i], g.vertices[j]
        iu, iv = g.index_of(km.apply(u)), g.index_of(km.apply(v))
        lab2 = g.label_between(iu, iv)
        if lab2 != lab:
            failures.append((str(u), str(v), lab, lab2))
    return Report(
        f"kappa label preservation middle({n})",
        not failures,
        details={"edges": g.n_edges},
        failures=failures,
    )


def perm_automorphism(g: LabeledGraph, p: Perm) -> VertexMap:
    """The automorphism induced by a ground-set permutation acting
    pointwise on block vertices."""
    if p.m != g.ground:
        raise ParameterError("permutation acts on a different ground set")
    mapping = {v: p.apply(v) for v in g.vertices}
    return VertexMap(g, g, mapping, kind=AUTOMORPHISM, name="perm-action")


def transitivity_witness(g: LabeledGraph, u: Block, v: Block) -> VertexMap:
    """An automorphism carrying u to v, built from any ground permutation
    mapping the set u onto the set v (order-preserving on u and on its
    complement)."""
    if u.card != v.card:
        raise ParameterError("blocks of different size cannot be exchanged")
    pairs = list(zip(u.elements(), v.elements()))
    pairs += list(zip(u.complement().elements(), v.complement().elements()))
    images = [0] * g.ground
    for a, b in pairs:
        images[a - 1] = b
    p = Perm(tuple(images))
    vmap = perm_automorphism(g, p)
    vmap.name = f"carry {u} to {v}"
    return vmap


def swap_perm(s: Block, t: Block) -> Perm:
    """The transposition product pairing sorted(S-T) with sorted(T-S)."""
    if s.card != t.card:
        raise ParameterError("sets of different size")
    return Perm.from_transpositions(
        s.m, list(zip((s - t).elements(), (t - s).elements()))
    )


def color_swap_iso(n: int, colors_from, colors_to) -> VertexMap:
    """Isomorphism between the odd graph minus one color set and minus
    another of the same size, induced by the product of transpositions
    pairing the two set differences."""
    m = 2 * n - 1
    s = as_color_block(colors_from, m)
    t = as_color_block(colors_to, m)
    if s.card != t.card:
        raise ParameterError(f"|S|={s.card} != |T|={t.card}")
    g = build(Family.odd(n))
    p = swap_perm(s, t)
    src = delete_colors(g, s)
    dst = delete_colors(g, t)
    mapping = {v: p.apply(v) for v in src.vertices}
    return VertexMap(
        src, dst, mapping, kind=ISOMORPHISM,
        name=f"swap {s}->{t}",
    )


def biregular_internal_iso(n: int, k: int, t1, t2) -> VertexMap:
    """Isomorphism between two same-size block components of the odd graph
    minus the canonical k colors: the ground permutation fixes everything
    outside the deleted set and trades T1 for T2 inside it."""
    m = 2 * n - 1
    s = canonical_colors(n, k)
    tb1 = as_color_block(t1, m)
    tb2 = as_color_block(t2, m)
    if not (tb1 <= s and tb2 <= s):
        raise ParameterError("T1, T2 must lie inside the canonical color set")
    if tb1.card != tb2.card:
        raise ParameterError("|T1| != |T2|")
    if tb1 == s - tb2 and tb1 != tb2:
        raise ParameterError("T1 = S - T2 names the same component")
    g = build(Family.odd(n))  # held, so both components are cut from one build
    p = swap_perm(tb1, tb2)
    comp1 = block_component(n, s, tb1)
    comp2 = block_component(n, s, tb2)
    mapping = {v: p.apply(v) for v in comp1.graph.vertices}
    return VertexMap(
        comp1.graph, comp2.graph, mapping, kind=ISOMORPHISM,
        name=f"internal {tb1}->{tb2} in odd({n}) minus {k}",
    )


def _cross(bits: int, s1_bits: int, gain_bits: int) -> int:
    """Vertex formula of the cross-parameter block move: keep the elements
    outside S1 and gain T2 (U side) or S2 - T2 (W side)."""
    return (bits & ~s1_bits) | gain_bits


def _drop(bits: int, m: int) -> int:
    """Vertex formula from odd(m+1) minus {2m, 2m+1} onto middle(m): a
    vertex holding 2m drops it, one holding 2m+1 drops it and is
    complemented within [2m-1]."""
    low_full = (1 << (2 * m - 1)) - 1
    if bits >> (2 * m - 1) & 1:
        return bits & low_full
    return (bits & low_full) ^ low_full


def _embed(bits: int, m: int) -> int:
    """Vertex formula from middle(m) into odd(m+1): a small block gains 2m,
    a large block is complemented within [2m-1] and gains 2m+1."""
    if bits.bit_count() == m - 1:
        return bits | (1 << (2 * m - 1))
    return (bits ^ ((1 << (2 * m - 1)) - 1)) | (1 << (2 * m))


def _sided(u_side, w_side, image) -> dict[Block, Block]:
    """{v: image(v, on_u)} over the two sides of a {T, S-T} class.  For S
    empty both sides are the whole graph, and the U side's image wins."""
    mapping = {v: image(v, False) for v in w_side}
    mapping.update((v, image(v, True)) for v in u_side)
    return mapping


def _regular_chain(n: int, s: Block):
    """image(v, on_u) from a regular class of odd(n) minus S onto
    middle(mm), mm = n - |S|/2: swap S onto the canonical colors (sides
    stay put), cross to odd(mm+1) minus {2mm, 2mm+1}, drop onto middle(mm)."""
    mm = n - s.card // 2
    s_canon = canonical_colors(n, s.card)
    p = swap_perm(s, s_canon)
    gains = (1 << (2 * mm), 1 << (2 * mm - 1))  # W side {2mm+1}, U side {2mm}

    def image(v: Block, on_u: bool) -> Block:
        moved = _cross(p.apply(v).bits, s_canon.bits, gains[on_u])
        return Block(_drop(moved, mm), 2 * mm - 1)

    return image


def biregular_cross_iso(n: int, k: int, t1, n2: int, p2: int, t2) -> VertexMap:
    """Isomorphism between same-signature block components across different
    (ground, deleted-count) parameters, both with canonical color sets.

    Vertices move by swapping the T-part: the U side drops T1 and gains
    T2, the W side drops S1-T1 and gains S2-T2; everything outside the
    deleted sets is common to both grounds and stays put.
    """
    s1 = canonical_colors(n, k)
    s2 = canonical_colors(n2, p2)
    tb1 = as_color_block(t1, 2 * n - 1)
    tb2 = as_color_block(t2, 2 * n2 - 1)
    if not tb1 <= s1 or not tb2 <= s2:
        raise ParameterError("T must lie inside its canonical color set")
    i, j = tb1.card, tb2.card
    if n - i != n2 - j or n - k + i != n2 - p2 + j:
        raise ParameterError(
            f"signature mismatch: ({n - i},{n - k + i}) vs ({n2 - j},{n2 - p2 + j})"
        )
    comp1 = block_component(n, s1, tb1)
    comp2 = block_component(n2, s2, tb2)
    gains = ((s2 - tb2).bits, tb2.bits)  # W side, U side
    mapping = _sided(
        comp1.u_side, comp1.w_side,
        lambda v, on_u: Block(_cross(v.bits, s1.bits, gains[on_u]), 2 * n2 - 1),
    )
    return VertexMap(
        comp1.graph, comp2.graph, mapping, kind=ISOMORPHISM,
        name=f"cross ({n},{k},{tb1})->({n2},{p2},{tb2})",
    )


def middle_component_iso(m: int) -> VertexMap:
    """Isomorphism from the regular component of odd(m+1) minus its two
    canonical colors {2m, 2m+1} (the class of T = {2m}) onto middle(m).

    Vertices containing 2m drop it; vertices containing 2m+1 drop it and
    complement within [2m-1].
    """
    if m < 1:
        raise ParameterError("need m >= 1")
    comp = block_component(m + 1, canonical_colors(m + 1, 2), [2 * m])
    mapping = {v: Block(_drop(v.bits, m), 2 * m - 1) for v in comp.graph.vertices}
    return VertexMap(
        comp.graph, build(Family.middle_levels(m)), mapping, kind=ISOMORPHISM,
        name=f"middle-component odd({m + 1}) -> middle({m})",
    )


def embed_middle_in_odd(m: int) -> VertexMap:
    """Injective morphism middle(m) -> odd(m+1), inverse to
    middle_component_iso on its image: small blocks gain element 2m, large
    blocks are complemented within [2m-1] and gain 2m+1."""
    if m < 1:
        raise ParameterError("need m >= 1")
    src = build(Family.middle_levels(m))
    dst = build(Family.odd(m + 1))
    mapping = {w: Block(_embed(w.bits, m), 2 * m + 1) for w in src.vertices}
    return VertexMap(
        src, dst, mapping, kind=MORPHISM,
        name=f"embed middle({m}) -> odd({m + 1})",
    )


def embed_indices(
    middle: LabeledGraph, odd_up: LabeledGraph, indices: Iterable[int]
) -> list[int]:
    """Indices in odd_up = odd(m+1) of the images under embed_middle_in_odd
    of the vertices of middle = middle(m) at the given indices, read from
    the vertex formula with no map built."""
    m = (middle.ground + 1) // 2
    if (middle.family != Family.middle_levels(m)
            or odd_up.family != Family.odd(m + 1)):
        raise ParameterError("embed_indices needs middle(m) and odd(m+1)")
    verts = middle.vertices
    return odd_up.mask_indices([_embed(verts[i].bits, m) for i in indices])


def regular_component_to_middle(n: int, colors, t) -> VertexMap:
    """Verified isomorphism from a regular component of the odd graph minus
    an even color set onto the reference middle levels graph.  Each vertex
    goes through the explicit pieces in turn: a color swap to the
    canonical set, a cross-parameter block move down to odd(m+1) minus two
    colors, and the final drop/complement map."""
    m_ground = 2 * n - 1
    s = as_color_block(colors, m_ground)
    tb = as_color_block(t, m_ground)
    k = s.card
    if k % 2 or tb.card != k // 2:
        raise ParameterError("regular components need |S| even and |T| = |S|/2")
    mm = n - k // 2
    comp = block_component(n, s, tb)
    mapping = _sided(comp.u_side, comp.w_side, _regular_chain(n, s))
    return VertexMap(
        comp.graph, build(Family.middle_levels(mm)), mapping, kind=ISOMORPHISM,
        name=f"regular component ({n},{str(s)},{str(tb)}) -> middle({mm})",
    )


def middle_class_to_middle(n: int, colors, t) -> VertexMap:
    """Verified isomorphism from a regular component of the middle levels
    graph minus an even color set onto the reference middle levels graph.

    Each vertex embeds into odd(n+1), where the class lies in a regular
    component of the graph minus S + {2n, 2n+1}, and goes on through the
    odd-side chain.
    """
    ground = 2 * n - 1
    s = as_color_block(colors, ground)
    tb = as_color_block(t, ground)
    k = s.card
    if k % 2 or tb.card != k // 2 or not tb <= s:
        raise ParameterError("regular classes need |S| even and T a half of S")
    g = build(Family.middle_levels(n))
    members = trace_classes(g, s).get(tb.bits, [])
    class_graph = delete_colors(g.subgraph(members), s)
    s_up = Block.from_elements(s.elements() + (2 * n, 2 * n + 1), 2 * n + 1)
    image = _regular_chain(n + 1, s_up)
    # a small block embeds with trace T + {2n}, on the U side of the class
    # of T + {2n}; a large one with trace (S - T) + {2n+1}, on the W side
    mapping = {
        v: image(Block(_embed(v.bits, n), 2 * n + 1), v.card == n - 1)
        for v in class_graph.vertices
    }
    return VertexMap(
        class_graph, build(Family.middle_levels(n - k // 2)), mapping,
        kind=ISOMORPHISM,
        name=f"middle class ({n},{str(s)},{str(tb)}) -> middle({n - k // 2})",
    )


@dataclass(frozen=True)
class LiftResult:
    """Outcome of lifting a closed walk through the double cover: one
    circuit of twice the length (odd base length) or an antipodal pair
    (even base length)."""

    kind: str  # "single" | "pair"
    circuits: tuple[PathSeq, ...]
    antipodal: bool


def lift_circuit(c: PathSeq) -> LiftResult:
    """Lift a closed walk of the odd graph through the two-to-one cover by
    the middle levels graph.

    Starting from the lexicographically smaller preimage of the first
    vertex, each base edge has a unique preimage at the current lifted
    vertex; a base circuit of odd length closes only after a second pass
    (one circuit of doubled length), an even one closes immediately (two
    complementary circuits exchanged by complementation).  The walk runs
    on masks: a lifted vertex of size n steps to the next base vertex, any
    other to its complement.
    """
    if not c.closed:
        raise ParameterError("can only lift closed walks")
    g = c.graph
    ground = g.ground
    if ground % 2 == 0:
        raise ParameterError("base graph ground must be odd")
    n = (ground + 1) // 2
    bg = build(Family.middle_levels(n))
    full = (1 << ground) - 1
    base = [g.vertices[i].bits for i in c.indices]
    passes = 1 if len(base) % 2 == 0 else 2
    # of a block and its complement, the lexicographically smaller holds
    # element 1, unless the block is empty
    v0 = base[0]
    start = v0 if v0 & 1 or not v0 else v0 ^ full
    lifted = [start]
    x = start
    for nxt in (base[1:] + base[:1]) * passes:
        x = nxt if x.bit_count() == n else nxt ^ full
        lifted.append(x)
    if lifted[-1] != start:
        raise AssertionError("lift did not close; cover structure violated")
    lifted.pop()
    first = PathSeq.from_indices(bg, bg.mask_indices(lifted), closed=True)
    if passes == 2:
        return LiftResult("single", (first,), antipodal=False)
    partner_masks = [x ^ full for x in lifted]
    partner = PathSeq.from_indices(bg, bg.mask_indices(partner_masks), closed=True)
    antipodal = set(partner_masks).isdisjoint(lifted)
    return LiftResult("pair", (first, partner), antipodal=antipodal)


def generic_double_cover(g: LabeledGraph) -> tuple[LabeledGraph, VertexMap]:
    """The bipartite double cover of an arbitrary graph, plus its
    projection.

    Two copies of the vertex set are encoded over a ground enlarged by
    one: the second copy is marked by the extra element.  Each edge (u, v)
    becomes the two cross edges (u,1)-(v,2) and (v,1)-(u,2).
    """
    m2 = g.ground + 1
    mark = 1 << (m2 - 1)
    side1 = [Block(v.bits, m2) for v in g.vertices]
    side2 = [Block(v.bits | mark, m2) for v in g.vertices]
    verts = side1 + side2
    nv = g.n_vertices
    edges = []
    for i, j, _ in g.edges():
        edges.append((i, nv + j, None))
        edges.append((j, nv + i, None))
    cover = graph_from_edges(m2, verts, edges)
    mapping = {v: Block(v.bits & ~mark, g.ground) for v in cover.vertices}
    vmap = VertexMap(cover, g, mapping, kind=COVERING, name="double cover")
    return cover, vmap


def find_isomorphism(
    g: LabeledGraph,
    h: LabeledGraph,
    pin: Optional[dict[int, int]] = None,
    max_vertices: int = 24,
    max_nodes: int = 2_000_000,
) -> Optional[VertexMap]:
    """Backtracking isomorphism search for small graphs; a fallback oracle
    for cross-checking explicit constructions, not a general solver.

    pin maps source vertex indices to required target indices.  Returns a
    verified map or None; raises if the graph is too large or the node
    budget runs out.
    """
    if g.n_vertices != h.n_vertices or g.n_edges != h.n_edges:
        return None
    n = g.n_vertices
    if n > max_vertices:
        raise ParameterError(f"{n} vertices exceeds the search cap {max_vertices}")
    gdeg = [g.degree(i) for i in range(n)]
    hdeg = [h.degree(i) for i in range(n)]
    if sorted(gdeg) != sorted(hdeg):
        return None

    # visit source vertices in BFS order from the pinned seeds so every new
    # vertex is constrained by an already-assigned neighbor
    order: list[int] = list(pin) if pin else [0]
    seen = set(order)
    head = 0
    while head < len(order):
        for x in g.neighbors(order[head]):
            if x not in seen:
                seen.add(x)
                order.append(x)
        head += 1
    for i in sorted(range(n), key=lambda i: (-gdeg[i], i)):
        if i not in seen:
            order.append(i)
            seen.add(i)

    assign = [-1] * n
    used = [False] * n
    nodes = 0

    def backtrack(pos: int) -> bool:
        nonlocal nodes
        if pos == n:
            return True
        nodes += 1
        if nodes > max_nodes:
            raise ParameterError("isomorphism search budget exhausted")
        i = order[pos]
        anchored = next((x for x in g.neighbors(i) if assign[x] >= 0), None)
        if pin and i in pin:
            candidates = [pin[i]]
        elif anchored is not None:
            candidates = [j for j in h.neighbors(assign[anchored])
                          if not used[j] and hdeg[j] == gdeg[i]]
        else:
            candidates = [j for j in range(n)
                          if not used[j] and hdeg[j] == gdeg[i]]
        for j in candidates:
            if used[j]:
                continue
            ok = True
            for x in g.neighbors(i):
                if assign[x] >= 0 and not h.has_edge(j, assign[x]):
                    ok = False
                    break
            if ok:
                # assigned non-neighbors must stay non-adjacent
                jrow = h.adj_map[j]
                for x in range(n):
                    if assign[x] >= 0 and x != i and assign[x] in jrow:
                        if not g.has_edge(i, x):
                            ok = False
                            break
            if not ok:
                continue
            assign[i] = j
            used[j] = True
            if backtrack(pos + 1):
                return True
            assign[i] = -1
            used[j] = False
        return False

    if not backtrack(0):
        return None
    mapping = {g.vertices[i]: h.vertices[assign[i]] for i in range(n)}
    vmap = VertexMap(g, h, mapping, kind=ISOMORPHISM, name="searched iso")
    vmap.verify()
    return vmap
