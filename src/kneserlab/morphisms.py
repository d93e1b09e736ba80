"""Explicit vertex maps between graph families, with independent verifiers.

Every map built here comes from a closed formula (complementation, color
swaps, block moves between deleted-color components, the double-cover
projection) and is stored as an index array; verification is a separate
code path that checks the claimed property against the neighbour rows of
both graphs.  The middle-levels census checks every regular component
of a color deletion through these maps.  A small backtracking
isomorphism search exists solely as a cross-validation oracle for graphs
of a couple dozen vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, repeat
from typing import Callable, Iterable, Optional, Sequence

from .decompose import (
    as_color_block,
    block_component,
    canonical_colors,
    classify_components,
    regular_component_partitions,
    shared_deletion,
    trace_classes,
)
from .errors import DegenerateCaseError, ParameterError
from .graphs import (
    MIDDLE_LEVELS,
    ODD,
    Family,
    LabeledGraph,
    PathSeq,
    Report,
    are_vertex_indices,
    build,
    check_vertex_indices,
    graph_from_edges,
)
from .setcore import Block, Perm, binomial

MORPHISM = "morphism"
ISOMORPHISM = "isomorphism"
COVERING = "covering"
AUTOMORPHISM = "automorphism"


@dataclass
class VertexMap:
    """A function between the vertex sets of two graphs, as an index array:
    images[i] is the target index of the image of source vertex i.

    verified is tri-state: None until checked, then the outcome of
    verify() for the claimed kind.
    """

    source: LabeledGraph
    target: LabeledGraph
    images: tuple[int, ...]
    kind: str = MORPHISM
    name: str = ""
    verified: Optional[bool] = field(default=None, compare=False)

    def apply(self, v: Block) -> Block:
        return self.target.vertices[self.images[self.source.index_of(v)]]

    def verify(self) -> bool:
        """Check the property claimed by kind; records and returns it."""
        if self.kind == COVERING:
            ok = verify_cover(self).ok
        elif self.kind in (ISOMORPHISM, AUTOMORPHISM):
            ok = is_isomorphism(self.source, self.target, self.images)
            if self.kind == AUTOMORPHISM:
                ok = ok and self.source == self.target
        else:
            ok = is_morphism(self.source, self.target, self.images)
        self.verified = ok
        return ok


def _formula_map(
    source: LabeledGraph,
    target: LabeledGraph,
    image: Callable[[int], int],
    kind: str,
    name: str,
) -> VertexMap:
    """The map sending the source vertex with mask x to the target vertex
    with mask image(x)."""
    images = tuple(target.mask_indices(map(image, source.masks)))
    return VertexMap(source, target, images, kind=kind, name=name)


def _row_mismatch(
    g: LabeledGraph, h: LabeledGraph, images: Sequence[int]
) -> Optional[int]:
    """The first vertex i of g whose neighbour row, mapped and sorted, is
    not the neighbour row of images[i] in h; None when every row matches.
    Every image must be a vertex index of h."""
    mapped = list(map(tuple, map(sorted, map(
        map, repeat(images.__getitem__), g.neighbor_table))))
    wanted = list(map(h.neighbor_table.__getitem__, images))
    if mapped == wanted:
        return None
    return next(i for i, (a, b) in enumerate(zip(mapped, wanted)) if a != b)


def is_morphism(g: LabeledGraph, h: LabeledGraph, images: Sequence[int]) -> bool:
    """True iff the map (images[i]: the h-index of the image of vertex i of
    g) sends every edge of g to an edge of h: the image of each neighbour
    row lies inside the row of the image."""
    n = g.n_vertices
    if len(images) < n:
        raise ParameterError(f"map not total: missing {g.vertices[len(images)]}")
    if len(images) > n:
        raise ParameterError(f"map has {len(images)} images for {n} vertices")
    if not are_vertex_indices(images, h.n_vertices):
        return False
    img = images.__getitem__
    return all(
        all(map(row.__contains__, map(img, nbrs)))
        for row, nbrs in zip(map(h.neighbor_table.__getitem__, images),
                             g.neighbor_table)
    )


def is_isomorphism(g: LabeledGraph, h: LabeledGraph, images: Sequence[int]) -> bool:
    """True iff the map is a bijection onto h that sends the neighbour row
    of every vertex onto the neighbour row of its image.  For a bijection
    this says exactly that the map and its inverse are both morphisms."""
    n = g.n_vertices
    if len(images) != n or h.n_vertices != n:
        return False
    if not are_vertex_indices(images, n) or len(set(images)) != n:
        return False
    return _row_mismatch(g, h, images) is None


def cover_map(n: int, k: int) -> VertexMap:
    """The 2-to-1 projection from the bipartite Kneser graph B(n,k) onto
    the Kneser graph K(n,k): k-blocks map to themselves, (n-k)-blocks to
    their complement."""
    if not 0 < k < n:
        raise ParameterError(f"need 0 < k < n, got ({n}, {k})")
    if 2 * k == n:
        raise DegenerateCaseError("k = n-k collapses the two sides")
    full = (1 << n) - 1
    return _formula_map(
        build(Family.bipartite_kneser(n, k)), build(Family.kneser(n, k)),
        lambda x: x if x.bit_count() == k else x ^ full,
        COVERING, f"cover({n},{k})",
    )


def verify_cover(m: VertexMap, expected_fiber: Optional[int] = None) -> Report:
    """Check that a map is a covering: constant fiber size over the whole
    target, a morphism, and a bijection between the edges at any source
    vertex and the edges at its image (the image of its neighbour row is
    exactly the row of its image)."""
    name = f"cover {m.name}"
    src, dst, images = m.source, m.target, m.images
    if len(images) != src.n_vertices:
        fault = "map not total" if len(images) < src.n_vertices else "map too long"
        return Report(name, False, failures=[fault])
    if not are_vertex_indices(images, dst.n_vertices):
        outside = next(j for j in images
                       if not are_vertex_indices((j,), dst.n_vertices))
        return Report(name, False, failures=[f"image {outside!r} outside target"])
    fibers = Counter(images)
    failures = []
    sizes = set(fibers.values())
    if len(fibers) < dst.n_vertices:
        sizes.add(0)
    fiber = sizes.pop() if len(sizes) == 1 else None
    if fiber is None or fiber == 0:
        failures.append("fiber size not constant")
    elif expected_fiber is not None and fiber != expected_fiber:
        failures.append(f"fiber {fiber} != expected {expected_fiber}")
    bad = _row_mismatch(src, dst, images)
    if bad is not None:
        if not is_morphism(src, dst, images):
            failures.append("not a morphism")
        else:
            failures.append(
                f"edges at {src.vertices[bad]} not bijective onto edges at"
                f" {dst.vertices[images[bad]]}"
            )
    return Report(
        name, not failures,
        details={"fiber": fiber, "source": src.n_vertices,
                 "target": dst.n_vertices},
        failures=failures,
    )


def kappa(n: int) -> VertexMap:
    """The complementation automorphism of the middle levels graph."""
    g = build(Family.middle_levels(n))
    full = (1 << g.ground) - 1
    return _formula_map(g, g, full.__xor__, AUTOMORPHISM, f"kappa({n})")


def kappa_preserves_labels(n: int) -> Report:
    """Check that complementation keeps every edge label of the middle
    levels graph: if u ^ v = {a} then kappa(u) ^ kappa(v) = {a}."""
    g = build(Family.middle_levels(n))
    img = kappa(n).images
    failures = []
    for i, j, lab in g.edges():
        lab2 = g.label_between(img[i], img[j])
        if lab2 != lab:
            failures.append((str(g.vertices[i]), str(g.vertices[j]), lab, lab2))
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
    return _formula_map(g, g, p.apply_mask, AUTOMORPHISM, "perm-action")


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
    return _formula_map(
        shared_deletion(g, s), shared_deletion(g, t), swap_perm(s, t).apply_mask,
        ISOMORPHISM, f"swap {s}->{t}",
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
    return _formula_map(
        block_component(n, s, tb1).graph, block_component(n, s, tb2).graph,
        swap_perm(tb1, tb2).apply_mask,
        ISOMORPHISM, f"internal {tb1}->{tb2} in odd({n}) minus {k}",
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


def _regular_chain(n: int, s: Block, t: Block) -> Callable[[int], int]:
    """Vertex formula from the class {T, S-T} of odd(n) minus S onto
    middle(mm), mm = n - |S|/2: swap S onto the canonical colors (sides
    stay put), cross to odd(mm+1) minus {2mm, 2mm+1}, drop onto middle(mm).
    A vertex with trace T is on the U side; for S empty every vertex is."""
    mm = n - s.card // 2
    s_canon = canonical_colors(n, s.card)
    swap = swap_perm(s, s_canon).apply_mask
    gains = (1 << (2 * mm), 1 << (2 * mm - 1))  # W side {2mm+1}, U side {2mm}

    def image(x: int) -> int:
        on_u = (x & s.bits) == t.bits
        return _drop(_cross(swap(x), s_canon.bits, gains[on_u]), mm)

    return image


def biregular_cross_iso(n: int, k: int, t1, n2: int, p2: int, t2) -> VertexMap:
    """Isomorphism between same-signature block components across different
    (ground, deleted-count) parameters, both with canonical color sets.

    Vertices move by swapping the T-part: the U side drops T1 and gains
    T2, the W side drops S1-T1 and gains S2-T2; everything outside the
    deleted sets is common to both grounds and stays put.  For S1 empty
    every vertex is on the U side.
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
    gains = ((s2 - tb2).bits, tb2.bits)  # W side, U side
    return _formula_map(
        block_component(n, s1, tb1).graph, block_component(n2, s2, tb2).graph,
        lambda x: _cross(x, s1.bits, gains[(x & s1.bits) == tb1.bits]),
        ISOMORPHISM, f"cross ({n},{k},{tb1})->({n2},{p2},{tb2})",
    )


def middle_component_iso(m: int) -> VertexMap:
    """Isomorphism from the regular component of odd(m+1) minus its two
    canonical colors {2m, 2m+1} (the class of T = {2m}) onto middle(m):
    regular_component_to_middle with nothing to swap or cross.

    Vertices containing 2m drop it; vertices containing 2m+1 drop it and
    complement within [2m-1].
    """
    if m < 1:
        raise ParameterError("need m >= 1")
    return regular_component_to_middle(m + 1, canonical_colors(m + 1, 2), [2 * m])


def embed_middle_in_odd(m: int) -> VertexMap:
    """Injective morphism middle(m) -> odd(m+1), inverse to
    middle_component_iso on its image: the map of embed_indices."""
    if m < 1:
        raise ParameterError("need m >= 1")
    src = build(Family.middle_levels(m))
    dst = build(Family.odd(m + 1))
    images = tuple(embed_indices(src, dst, range(src.n_vertices)))
    return VertexMap(
        src, dst, images, kind=MORPHISM,
        name=f"embed middle({m}) -> odd({m + 1})",
    )


def embed_indices(
    middle: LabeledGraph, odd_up: LabeledGraph, indices: Iterable[int]
) -> list[int]:
    """Indices in odd_up = odd(m+1) of the images of the vertices of
    middle = middle(m) at the given indices: small blocks gain element 2m,
    large blocks are complemented within [2m-1] and gain 2m+1."""
    m = (middle.ground + 1) // 2
    if (middle.family != Family.middle_levels(m)
            or odd_up.family != Family.odd(m + 1)):
        raise ParameterError("embed_indices needs middle(m) and odd(m+1)")
    idxs = list(indices)
    check_vertex_indices(idxs, middle.n_vertices)
    masks = middle.masks
    return odd_up.mask_indices([_embed(masks[i], m) for i in idxs])


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
    return _formula_map(
        block_component(n, s, tb).graph, build(Family.middle_levels(mm)),
        _regular_chain(n, s, tb),
        ISOMORPHISM, f"regular component ({n},{str(s)},{str(tb)}) -> middle({mm})",
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
    class_graph = g.subgraph(members, s)
    up = 2 * n + 1
    s_up = Block.from_elements(s.elements() + (2 * n, 2 * n + 1), up)
    # a small block embeds with trace T + {2n}, on the U side of the class
    # of T + {2n}; a large one with trace (S - T) + {2n+1}, on the W side
    image = _regular_chain(n + 1, s_up, Block(tb.bits | 1 << (2 * n - 1), up))
    return _formula_map(
        class_graph, build(Family.middle_levels(n - k // 2)),
        lambda x: image(_embed(x, n)),
        ISOMORPHISM,
        f"middle class ({n},{str(s)},{str(tb)}) -> middle({n - k // 2})",
    )


def middle_component_census(n: int, k: int, family_kind: str = ODD) -> Report:
    """Count the regular components left after deleting k colors and verify
    each is a middle-levels graph of the right order.

    For the odd graph the count must be C(k-1, k/2-1); for the middle
    levels graph it is twice that.  Isomorphism onto the reference middle
    levels graph is established through the explicit maps of this module,
    never by search.
    """
    if k <= 0 or k % 2:
        raise ParameterError(f"regular components need even k > 0, got {k}")
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
    census = classify_components(shared_deletion(g, s))
    regular_ix = census.counts.get(("regular", mm), 0)
    details["found_regular"] = regular_ix
    if regular_ix != expected:
        failures.append(f"count {regular_ix} != {expected}")
    if family_kind == ODD:
        for t, _rest in regular_component_partitions(s):
            vmap = regular_component_to_middle(n, s, t)
            if not vmap.verify():
                failures.append(f"component T={t} not isomorphic to middle({mm})")
    else:
        for c in combinations(s.elements(), k // 2):
            t = Block.from_elements(c, 2 * n - 1)
            vmap = middle_class_to_middle(n, s, t)
            if not vmap.verify():
                failures.append(f"class T={t} not isomorphic to middle({mm})")
    return Report(
        f"regular-components {family_kind}({n}) minus {k} colors",
        not failures,
        details=details,
        failures=failures,
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
    base = list(map(g.masks.__getitem__, c.indices))
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
    side1 = [Block(x, m2) for x in g.masks]
    side2 = [Block(x | mark, m2) for x in g.masks]
    verts = side1 + side2
    nv = g.n_vertices
    edges = []
    for i, j, _ in g.edges():
        edges.append((i, nv + j, None))
        edges.append((j, nv + i, None))
    cover = graph_from_edges(m2, verts, edges)
    vmap = _formula_map(cover, g, lambda x: x & ~mark, COVERING, "double cover")
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
    budget runs out.  A pin that is not a vertex index of its graph raises
    ParameterError.
    """
    if pin:
        check_vertex_indices(list(pin), g.n_vertices)
        check_vertex_indices(list(pin.values()), h.n_vertices)
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
                jrow = h.neighbor_table[j]
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
    vmap = VertexMap(g, h, tuple(assign), kind=ISOMORPHISM, name="searched iso")
    vmap.verify()
    return vmap
