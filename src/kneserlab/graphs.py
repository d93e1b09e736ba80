"""Graph families (Kneser, bipartite Kneser, odd, middle levels) and
basic structural queries: degrees, components, distances, girth.

Graphs are immutable after construction.  A graph stores its vertices
as int bitmasks in colexicographic (bitmask) order, and every index-based
API refers to that order; its edges are stored as a neighbour row and a
parallel label row per vertex.  The Block view of the vertices is made
only when first read.  Edge labels exist only for the odd and
middle-levels families: for an odd graph the label of (u, v) is the
unique ground element outside u | v, for a middle levels graph the
unique element of u ^ v.
"""

from __future__ import annotations

import gc
import weakref
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, reduce, wraps
from itertools import chain, combinations, compress, islice, repeat
from operator import and_, eq, itemgetter, lt, neg, or_, xor
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotAdjacentError, ParameterError, UnlabeledGraphError
from .setcore import Block, ColorsLike, as_color_block, binomial, check_ground, k_masks


def gc_paused(fn):
    """Run fn with the cyclic garbage collector paused.

    Building a graph or a document allocates millions of small tuples and
    lists, none of them cyclic.  With the collector on, those allocations
    set off full collections that walk every live object (the graphs
    already held, a parsed document) and free nothing.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


KNESER = "kneser"
BIPARTITE_KNESER = "bikneser"
ODD = "odd"
MIDDLE_LEVELS = "middle"

_FAMILY_KINDS = (KNESER, BIPARTITE_KNESER, ODD, MIDDLE_LEVELS)


@dataclass(frozen=True)
class Family:
    """Identifier of a graph family instance.

    Odd(n) is the Kneser graph on (n-1)-subsets of [2n-1]; MiddleLevels(n)
    is the bipartite Kneser graph on the (n-1)- and n-subsets of [2n-1].
    """

    kind: str
    n: int
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        for p in (self.n, self.k):
            if p is not None and (isinstance(p, bool) or not isinstance(p, int)):
                raise ParameterError(f"{self.kind} parameters must be ints, got {p!r}")
        if self.kind in (KNESER, BIPARTITE_KNESER):
            if self.k is None or not 0 < self.k < self.n:
                raise ParameterError(
                    f"{self.kind} requires 0 < k < n, got n={self.n}, k={self.k}"
                )
            check_ground(self.n)
        else:
            if self.n < 1:
                raise ParameterError(f"{self.kind} requires n >= 1, got {self.n}")
            if self.k is not None:
                raise ParameterError(f"{self.kind} takes a single parameter")
            check_ground(2 * self.n - 1)

    @classmethod
    def kneser(cls, n: int, k: int) -> "Family":
        return cls(KNESER, n, k)

    @classmethod
    def bipartite_kneser(cls, n: int, k: int) -> "Family":
        return cls(BIPARTITE_KNESER, n, k)

    @classmethod
    def odd(cls, n: int) -> "Family":
        return cls(ODD, n)

    @classmethod
    def middle_levels(cls, n: int) -> "Family":
        return cls(MIDDLE_LEVELS, n)

    @property
    def ground(self) -> int:
        if self.kind in (ODD, MIDDLE_LEVELS):
            return 2 * self.n - 1
        return self.n

    @property
    def subset_size(self) -> int:
        """Size k of the defining blocks (n-1 for the one-parameter families)."""
        if self.kind in (ODD, MIDDLE_LEVELS):
            return self.n - 1
        assert self.k is not None
        return self.k

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Sizes of the vertex blocks: k for the Kneser and odd graphs, the
        smaller and larger of k and m - k for the bipartite ones."""
        k = self.subset_size
        if self.kind in (KNESER, ODD) or 2 * k == self.ground:
            return (k,)
        return tuple(sorted((k, self.ground - k)))

    @property
    def n_vertices(self) -> int:
        """Closed-form vertex count: C(m, size) summed over block_sizes."""
        return sum(binomial(self.ground, size) for size in self.block_sizes)

    @property
    def params(self) -> tuple[int, ...]:
        if self.kind in (ODD, MIDDLE_LEVELS):
            return (self.n,)
        assert self.k is not None
        return (self.n, self.k)

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(p) for p in self.params)})"


def signature_name(sig: tuple) -> str:
    """A census signature as text: regular(3), biregular(4,3), isolated."""
    if len(sig) == 1:
        return sig[0]
    return f"{sig[0]}({','.join(map(str, sig[1:]))})"


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable undirected graph on subsets of [ground] with optional edge
    colors, stored as three tables over the vertex indices.

    masks[i] is the bitmask of vertex i.  neighbor_table[i] holds the
    neighbour indices of vertex i, ascending, as the search kernel and the
    map checks read them; label_table[i] holds the label (or None) of each
    of those edges, in the same order.  Every edge is stored in both
    endpoint rows with the same label.  The Block view `vertices` and the
    mask `index` are made on first read.
    """

    ground: int
    masks: tuple[int, ...]
    neighbor_table: tuple[tuple[int, ...], ...]
    label_table: tuple[tuple[Optional[int], ...], ...]
    family: Optional[Family] = None
    labeled: bool = False

    @cached_property
    def vertices(self) -> tuple[Block, ...]:
        """The vertices as Blocks over [ground], in index order."""
        return tuple(Block._trusted(self.masks, self.ground))

    @cached_property
    def index(self) -> dict[int, int]:
        """{vertex mask: index}.  Every vertex lies over the graph's ground,
        so its mask alone names it."""
        return dict(zip(self.masks, range(len(self.masks))))

    @cached_property
    def memo(self) -> dict:
        """Values derived from the graph, kept exactly as long as it lives."""
        return {}

    @cached_property
    def component_sets(self) -> tuple[tuple[int, ...], ...]:
        """Vertex indices of the connected components, each ascending,
        ordered by smallest index (equivalently smallest vertex, since
        vertex order is canonical).  Each component is reached a BFS level
        at a time with set operations."""
        table = self.neighbor_table
        seen: set[int] = set()
        comps = []
        for start in range(len(self.masks)):
            if start not in seen:
                comp = {start}
                level = [start]
                while level:
                    reached = set(chain.from_iterable(map(table.__getitem__, level)))
                    reached -= comp
                    comp |= reached
                    level = reached
                seen |= comp
                comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @property
    def connected(self) -> bool:
        return len(self.component_sets) <= 1

    @property
    def n_vertices(self) -> int:
        return len(self.masks)

    @cached_property
    def n_edges(self) -> int:
        return sum(map(len, self.neighbor_table)) // 2

    def degree(self, i: int) -> int:
        check_vertex_indices((i,), len(self.masks))
        return len(self.neighbor_table[i])

    def neighbors(self, i: int) -> tuple[int, ...]:
        check_vertex_indices((i,), len(self.masks))
        return self.neighbor_table[i]

    def has_edge(self, i: int, j: int) -> bool:
        check_vertex_indices((i, j), len(self.masks))
        return j in self.neighbor_table[i]

    def has_vertex(self, v: Block) -> bool:
        return v.m == self.ground and v.bits in self.index

    def index_of(self, v: Block) -> int:
        if v.m == self.ground:
            i = self.index.get(v.bits)
            if i is not None:
                return i
        raise ParameterError(f"vertex {v} not in graph")

    def mask_indices(self, masks: Iterable[int]) -> list[int]:
        """The indices of the vertices with the given masks."""
        try:
            return list(map(self.index.__getitem__, masks))
        except KeyError as exc:
            missing = Block(exc.args[0], self.ground)
            raise ParameterError(f"vertex {missing} not in graph") from None

    def edges(self) -> Iterator[tuple[int, int, Optional[int]]]:
        """All edges as (i, j, label) with i < j, sorted by (i, j)."""
        for i, (row, labels) in enumerate(zip(self.neighbor_table, self.label_table)):
            # rows ascend, so the neighbours above i are the tail of its row
            cut = bisect_right(row, i)
            yield from zip(repeat(i), row[cut:], labels[cut:])

    def label_between(self, i: int, j: int) -> Optional[int]:
        check_vertex_indices((i, j), len(self.masks))
        try:
            return self.label_table[i][self.neighbor_table[i].index(j)]
        except ValueError:
            raise NotAdjacentError(
                f"vertices {self.vertices[i]} and {self.vertices[j]} are not adjacent"
            ) from None

    @gc_paused
    def subgraph(self, vertex_indices: Sequence[int],
                 colors: ColorsLike = ()) -> "LabeledGraph":
        """The subgraph induced by the given vertex indices, minus every edge
        whose label lies in the color set; vertices re-sorted into
        canonical order (which is index order).

        The indices must be distinct vertex indices, ints in 0..n-1.  A
        nonempty color set needs a labeled graph.
        """
        chosen = list(vertex_indices)
        n = len(self.masks)
        if not are_vertex_indices(chosen, n) or len(set(chosen)) < len(chosen):
            raise ParameterError(
                f"subgraph needs distinct vertex indices in 0..{n - 1}")
        drop = frozenset(as_color_block(colors, self.ground).elements())
        if drop and not self.labeled:
            raise UnlabeledGraphError("color deletion needs a labeled graph")
        chosen.sort()
        keep = dict(zip(chosen, range(len(chosen))))
        rows = list(map(self.neighbor_table.__getitem__, chosen))
        labels = list(map(self.label_table.__getitem__, chosen))
        # per row, whether each edge has its other end kept and a kept label
        selectors = list(map(list, map(map, repeat(keep.__contains__), rows)))
        if drop:
            kept_label = (frozenset(chain.from_iterable(labels)) - drop).__contains__
            selectors = list(map(list, map(
                map, repeat(and_), selectors, map(map, repeat(kept_label), labels))))
        nbrs = map(map, repeat(keep.__getitem__), map(compress, rows, selectors))
        return LabeledGraph(self.ground, tuple(map(self.masks.__getitem__, chosen)),
                            tuple(map(tuple, nbrs)),
                            tuple(map(tuple, map(compress, labels, selectors))),
                            family=None, labeled=self.labeled)

    def __str__(self) -> str:
        fam = f" {self.family}" if self.family else ""
        return (
            f"LabeledGraph{fam}(ground=[{self.ground}], "
            f"{self.n_vertices} vertices, {self.n_edges} edges)"
        )


def are_vertex_indices(ends: Sequence, n: int) -> bool:
    """Whether every entry of ends is an int (a bool is not) in 0..n-1."""
    return set(map(type, ends)) <= {int} and (
        not ends or min(ends) >= 0 and max(ends) < n)


def check_vertex_indices(indices: Sequence, n: int) -> None:
    """Raise ParameterError, naming the first offender, unless every entry
    of indices is a vertex index (are_vertex_indices); a negative one would
    otherwise alias a vertex counted from the end."""
    if are_vertex_indices(indices, n):
        return
    for i in indices:
        if type(i) is not int:
            raise ParameterError(f"vertex index {i!r} is not an int")
        if not 0 <= i < n:
            raise ParameterError(f"vertex index {i} outside 0..{n - 1}")


def check_edge_ends(n: int, ends_u: Sequence, ends_v: Sequence) -> None:
    """Raise ParameterError, naming the first offending edge, unless every
    entry of the parallel endpoint columns is a vertex index."""
    if are_vertex_indices(ends_u, n) and are_vertex_indices(ends_v, n):
        return
    for i, j in zip(ends_u, ends_v):
        if not are_vertex_indices((i, j), n):
            raise ParameterError(
                f"edge ({i!r}, {j!r}): endpoints must be vertex indices"
                f" 0..{n - 1}")


def edge_rows(
    n: int,
    ends_u: Sequence,
    ends_v: Sequence,
    labels: Sequence,
    remap: Optional[dict[int, int]] = None,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[Optional[int], ...], ...]]:
    """The neighbour table and the parallel label table of n vertices from
    parallel endpoint and label lists.

    Every endpoint must already be checked as a vertex index
    (check_edge_ends); remap, when given, renumbers the indices (vertex i
    becomes remap[i]), and otherwise the rows hold the endpoint ints
    themselves.  Rows come out sorted by neighbour index.  A self-loop or
    a duplicate edge raises ParameterError.  Edges listed as increasing
    (u, v) pairs with u < v, as the exporter writes them, skip the sort.
    """
    us, vs = ends_u, ends_v
    if remap is not None:
        us, vs = list(map(remap.__getitem__, us)), list(map(remap.__getitem__, vs))
    if not all(map(lt, us, vs)):
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
        if any(map(eq, us, vs)):
            raise ParameterError("self-loops are not allowed")
    if not _ascending(us, vs):
        order = sorted(range(len(us)), key=lambda e: (us[e], vs[e]))
        us = [us[e] for e in order]
        vs = [vs[e] for e in order]
        if not _ascending(us, vs):
            raise ParameterError("duplicate edge")
        labels = [labels[e] for e in order]
    # with the edges in increasing (u, v) order, each row takes its lower
    # neighbours first, then its higher ones, each run already ascending;
    # the neighbour rows are tuples, and their lists freed, before the
    # label rows are made
    nbrs = _edge_table(n, us, vs, us, vs)
    return nbrs, _edge_table(n, us, vs, labels, labels)


def _edge_table(n: int, us: Sequence[int], vs: Sequence[int],
                lower: Sequence, upper: Sequence) -> tuple[tuple, ...]:
    """The rows of n vertices where, for each edge e in turn, row vs[e]
    takes lower[e], and then, again for each edge in turn, row us[e]
    takes upper[e]."""
    rows: list[list] = [[] for _ in range(n)]
    deque(map(list.append, map(rows.__getitem__, vs), lower), 0)
    deque(map(list.append, map(rows.__getitem__, us), upper), 0)
    return tuple(map(tuple, rows))


def _ascending(us: list[int], vs: list[int]) -> bool:
    """Whether the pairs (us[e], vs[e]) strictly increase with e."""
    return all(map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None))))


def graph_from_edges(
    ground: int,
    vertices: Sequence[Block],
    edges: Sequence[tuple[int, int, Optional[int]]],
    family: Optional[Family] = None,
    labeled: Optional[bool] = None,
) -> LabeledGraph:
    """Build a graph from explicit vertex and (i, j, label) edge lists.

    Vertices must already be distinct and lie over [ground]; they are
    re-sorted into canonical colex order and edge indices remapped
    accordingly; an edge endpoint that is not a vertex index raises
    ParameterError.  labeled defaults to whether any edge carries a label.
    """
    for v in vertices:
        if v.m != ground:
            raise ParameterError(f"vertex {v} lies over [{v.m}], not [{ground}]")
    order = sorted(range(len(vertices)), key=lambda i: vertices[i].bits)
    remap = {old: new for new, old in enumerate(order)}
    masks = tuple(vertices[i].bits for i in order)
    if len(set(masks)) != len(masks):
        raise ParameterError("duplicate vertices")
    triples = [(i, j, lab) for i, j, lab in edges]
    ends_u, ends_v, labels = (list(map(itemgetter(x), triples)) for x in range(3))
    if labeled is None:
        labeled = any(lab is not None for lab in labels)
    check_edge_ends(len(masks), ends_u, ends_v)
    nbrs, labs = edge_rows(len(masks), ends_u, ends_v, labels, remap)
    return LabeledGraph(ground, masks, nbrs, labs, family=family, labeled=labeled)


# The live graph of each family: an entry lasts only while some caller
# holds the graph, so reuse never keeps a large graph resident.
_live: weakref.WeakValueDictionary[Family, LabeledGraph] = weakref.WeakValueDictionary()
# The open holds of holding_families by id, each mapping family to graph.
_holds: dict[int, dict[Family, LabeledGraph]] = {}


@contextmanager
def holding_families() -> Iterator[None]:
    """Keep every graph that build returns inside the block alive until the
    block ends, so that a family asked for again is not constructed again.

    Leaving the block drops the hold, and with it every graph no other
    caller holds.
    """
    held: dict[Family, LabeledGraph] = {}
    _holds[id(held)] = held
    try:
        yield
    finally:
        del _holds[id(held)]


@gc_paused
def build(family: Family) -> LabeledGraph:
    """The family instance with canonical vertex order.

    While any caller holds the graph of a family, build returns that same
    instance; otherwise it constructs the graph afresh.  An open
    holding_families block holds every graph build returns.  Labels are
    populated only for the odd and middle-levels families, where the
    defining difference set is a singleton.
    """
    g = _live.get(family)
    if g is None:
        if family.kind in (KNESER, ODD):
            g = _build_kneser(family)
        else:
            g = _build_bipartite_kneser(family)
        _live[family] = g
    for held in _holds.values():
        held[family] = g
    return g


def _subset_columns(
    sources: list[int], w: int, size: int, descending: bool
) -> Iterator[list[int]]:
    """Columns of subsets picked out of each source mask.

    Every source has w set bits.  For each size-subset P of the bit
    positions 0..w-1 (counted from the low end), in colex order or its
    reverse, yield the list whose x-th mask holds the bits of sources[x]
    at positions P.  Within one source the yielded masks therefore ascend
    (or descend).  Each column costs a few C-level passes over the sources.
    """
    low = []  # low[p][x]: the p-th lowest set bit of sources[x]
    rest = sources
    for _ in range(w):
        bit = list(map(and_, rest, map(neg, rest)))
        low.append(bit)
        rest = list(map(xor, rest, bit))
    patterns = sorted(
        combinations(range(w), size),
        key=lambda ps: sum(1 << p for p in ps),
        reverse=descending,
    )
    flip = 2 * size > w  # pick the smaller of P and its complement
    for ps in patterns:
        picks = [p for p in range(w) if p not in ps] if flip else ps
        col = low[picks[0]] if picks else [0] * len(sources)
        for p in picks[1:]:
            col = list(map(or_, col, low[p]))
        yield list(map(xor, sources, col)) if flip else col


def _rows(
    bases: list[int],
    sources: list[int],
    w: int,
    size: int,
    descending: bool,
    index: dict[int, int],
    labeled: bool,
) -> tuple[list[tuple[int, ...]], list[tuple[Optional[int], ...]]]:
    """Neighbour rows and parallel label rows of vertices whose neighbours
    are bases[x] ^ D for the size-subsets D of sources[x], listed so that
    the neighbours ascend.

    When labeled, every D is a single element and labels its edge (the
    element outside u | v of an odd graph, the element of u ^ v of a
    middle levels graph); otherwise every label is None.
    """
    nbr_columns, label_columns = [], []
    for picked in _subset_columns(sources, w, size, descending):
        nbr_columns.append(list(map(index.__getitem__, map(xor, bases, picked))))
        if labeled:
            label_columns.append(list(map(int.bit_length, picked)))
    if not nbr_columns:
        return [()] * len(bases), [()] * len(bases)
    nbrs = list(zip(*nbr_columns))
    if labeled:
        return nbrs, list(zip(*label_columns))
    return nbrs, [(None,) * len(nbr_columns)] * len(bases)


def _build_kneser(family: Family) -> LabeledGraph:
    m = family.ground
    k = family.subset_size
    label_edges = family.kind == ODD
    masks = k_masks(m, k)
    if k == 0 or 2 * k > m:  # no disjoint pairs (odd(1): no self-loop)
        nbrs = labels = [()] * len(masks)
    else:
        # the neighbours of u are u's complement minus (m - 2k) of its bits;
        # the larger the removed part, the smaller the neighbour
        index = dict(zip(masks, range(len(masks))))
        comps = list(map(xor, masks, repeat((1 << m) - 1)))
        nbrs, labels = _rows(comps, comps, m - k, m - 2 * k, True, index, label_edges)
    return LabeledGraph(m, tuple(masks), tuple(nbrs), tuple(labels),
                        family=family, labeled=label_edges)


def _build_bipartite_kneser(family: Family) -> LabeledGraph:
    m = family.ground
    label_edges = family.kind == MIDDLE_LEVELS
    sizes = family.block_sizes
    if len(sizes) == 1:  # both sides are the same blocks: no containments
        masks = k_masks(m, sizes[0])
        nbrs = labels = [()] * len(masks)
    else:
        lo, hi = sizes
        lows, highs = k_masks(m, lo), k_masks(m, hi)
        both = lows + highs
        order = sorted(range(len(both)), key=both.__getitem__)
        masks = list(map(both.__getitem__, order))
        index = dict(zip(masks, range(len(masks))))
        comps = list(map(xor, lows, repeat((1 << m) - 1)))
        # a low block gains hi - lo bits of its complement, a high block
        # loses hi - lo of its own
        low_nbrs, low_labels = _rows(
            lows, comps, m - lo, hi - lo, False, index, label_edges)
        high_nbrs, high_labels = _rows(
            highs, highs, hi, hi - lo, True, index, label_edges)
        nbrs = list(map((low_nbrs + high_nbrs).__getitem__, order))
        labels = list(map((low_labels + high_labels).__getitem__, order))
    return LabeledGraph(m, tuple(masks), tuple(nbrs), tuple(labels),
                        family=family, labeled=label_edges)


def edge_label(g: LabeledGraph, u: Block, v: Block) -> int:
    """The color of edge (u, v) in a labeled graph."""
    if not g.labeled:
        raise UnlabeledGraphError("graph carries no edge labels")
    lab = g.label_between(g.index_of(u), g.index_of(v))
    assert lab is not None
    return lab


def degree_signature(
    table: Sequence[Sequence[int]], members: Sequence[int]
) -> tuple:
    """Census key of the vertex indices members, a set closed under
    adjacency in the neighbour table: ("regular", d), ("biregular", a, b)
    with a > b, or ("irregular",).

    The vertices are (a, b)-biregular when they split into two sides,
    every vertex of one of degree a and every vertex of the other of
    degree b, and every edge crosses between the sides.
    """
    degrees = set(map(len, map(table.__getitem__, members)))
    if len(degrees) == 1:
        return ("regular", degrees.pop())
    if len(degrees) == 2:
        b, a = sorted(degrees)
        # every neighbour of a degree-a vertex has degree b and every
        # neighbour of a degree-b vertex has degree a
        for i in members:
            row = table[i]
            other = a + b - len(row)
            for j in row:
                if len(table[j]) != other:
                    return ("irregular",)
        return ("biregular", a, b)
    return ("irregular",)


def degree_profile(g: LabeledGraph) -> tuple:
    """Classify a graph as regular / biregular / irregular: the
    degree_signature of all its vertices."""
    return degree_signature(g.neighbor_table, range(g.n_vertices))


def expected_family_degree(family: Family) -> int:
    """Closed-form regular degree of a family instance over ground [m].

    A k-block of a Kneser or odd graph meets C(m-k, k) disjoint k-blocks
    (none for k = 0: the empty block is not its own neighbour); a block of
    a bipartite family with sizes lo < hi has C(hi, lo) neighbours (none
    when the two sizes coincide).
    """
    m, k = family.ground, family.subset_size
    if family.kind in (KNESER, ODD):
        return binomial(m - k, k) if k else 0
    sizes = family.block_sizes
    return binomial(sizes[1], sizes[0]) if len(sizes) == 2 else 0


def components(g: LabeledGraph) -> list[LabeledGraph]:
    """Connected components as induced subgraphs, labels inherited."""
    return [g.subgraph(ixs) for ixs in g.component_sets]


def bfs_distances(g: LabeledGraph, start: int) -> list[int]:
    """BFS distance from start to every vertex; -1 marks unreachable."""
    check_vertex_indices((start,), g.n_vertices)
    table = g.neighbor_table
    dist = [-1] * g.n_vertices
    dist[start] = 0
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in table[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def distance(g: LabeledGraph, u: Block, v: Block) -> Optional[int]:
    """Shortest-path distance between two vertices; None if unreachable."""
    iu, iv = g.index_of(u), g.index_of(v)
    d = bfs_distances(g, iu)[iv]
    return None if d < 0 else d


def girth(g: LabeledGraph) -> Optional[int]:
    """Length of a shortest cycle; None for forests.

    Runs a BFS from every vertex and inspects non-tree edges.
    """
    best: Optional[int] = None
    table = g.neighbor_table
    n = g.n_vertices
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if best is not None and 2 * dist[x] >= best:
                continue
            for y in table[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y and parent[y] != x:
                    cand = dist[x] + dist[y] + 1
                    if best is None or cand < best:
                        best = cand
    return best


@dataclass(frozen=True)
class PathSeq:
    """A walk in a graph: ordered vertex indices plus the edge-label trace.

    closed means the last vertex connects back to the first; the closing
    label is then included in the trace.  Construction validates that
    every consecutive pair is an edge.
    """

    graph: LabeledGraph
    indices: tuple[int, ...]
    closed: bool
    labels: tuple[Optional[int], ...]

    @classmethod
    def from_indices(
        cls, g: LabeledGraph, indices: Sequence[int], closed: bool
    ) -> "PathSeq":
        idxs = tuple(indices)
        if not idxs:
            raise ParameterError("empty vertex sequence")
        rows, labs = g.neighbor_table, g.label_table
        check_vertex_indices(idxs, len(rows))
        succ = idxs[1:] + idxs[:1] if closed and len(idxs) > 1 else idxs[1:]
        try:
            # each step's label sits where the successor sits in the row
            labels = tuple([labs[x][rows[x].index(y)] for x, y in zip(idxs, succ)])
        except ValueError:
            for x, y in zip(idxs, succ):
                g.label_between(x, y)  # raises at the first step off an edge
            raise
        return cls(g, idxs, closed, labels)

    @classmethod
    def from_blocks(
        cls, g: LabeledGraph, blocks: Sequence[Block], closed: bool
    ) -> "PathSeq":
        return cls.from_indices(g, [g.index_of(b) for b in blocks], closed)

    def blocks(self) -> tuple[Block, ...]:
        return tuple(self.graph.vertices[i] for i in self.indices)

    @property
    def length(self) -> int:
        """Number of edges traversed."""
        return len(self.labels)


@dataclass
class Report:
    """Outcome of one check, from a library function or a verify row.

    name says what was checked (a verify row's check id); ok is None for
    a skipped check.  Library checks fill details and failures with the
    measured data; a verify row carries its literature reference and a
    one-line note.
    """

    name: str
    ok: Optional[bool]
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    reference: str = ""
    note: str = ""

    @property
    def status(self) -> str:
        if self.ok is None:
            return "skip"
        return "pass" if self.ok else "FAIL"


def verify_distance_formula(n: int) -> Report:
    """Check the intersection-size distance rule on every vertex pair of
    the odd graph, with BFS as ground truth.

    For distinct (n-1)-subsets u, v of [2n-1] with c = |u & v| the rule
    predicts d(u, v) = min(2(n-1-c), 2c+1): even distances 2r arise from
    c = n-1-r and odd distances 2r+1 from c = r; the diameter must equal
    n-1.  Every vertex's distance spheres are compared with the rule's
    as masks; only when some sphere differs does a per-pair BFS list the
    failing pairs.
    """
    if n < 2:
        raise ParameterError("distance check needs n >= 2")
    g = build(Family.odd(n))
    diameter = _rule_diameter(g, n)
    failures = []
    if diameter is None:
        diameter = 0
        for i in range(g.n_vertices):
            dist = bfs_distances(g, i)
            u = g.vertices[i]
            for j in range(i + 1, g.n_vertices):
                v = g.vertices[j]
                c = (u.bits & v.bits).bit_count()
                want = min(2 * (n - 1 - c), 2 * c + 1)
                got = dist[j]
                diameter = max(diameter, got)
                if got != want:
                    failures.append((str(u), str(v), c, got, want))
    ok = not failures and diameter == n - 1
    return Report(
        f"distance-formula O_{n}",
        ok,
        details={"pairs": g.n_vertices * (g.n_vertices - 1) // 2,
                 "diameter": diameter, "expected_diameter": n - 1},
        failures=failures,
    )


def _rule_diameter(g: LabeledGraph, n: int) -> Optional[int]:
    """The diameter of g when every vertex's distance spheres are the ones
    the odd-graph distance rule predicts, None when some sphere differs.

    A vertex set is an nv-bit mask over vertex indices.  The true spheres
    come from balls grown a level at a time (ball_d(u) is ball_{d-1}(u)
    joined with the balls of u's neighbours; sphere d is ball_d minus
    ball_{d-1}).  The predicted ones come from bit-sliced counts: adding
    the membership masks of u's elements gives, for every vertex v at
    once, c = |u & v| in binary.  The rule sends each c in 0..n-1 to its
    own distance, at most n-1, so the predicted spheres partition the
    vertices and matching them also proves every vertex reachable.
    """
    nv = g.n_vertices
    full = (1 << nv) - 1
    masks = g.masks
    # member[e]: the vertices holding ground element e (bit e of a mask)
    member = [
        int("".join(["1" if x >> e & 1 else "0" for x in reversed(masks)]), 2)
        for e in range(g.ground)
    ]
    rule = [min(2 * (n - 1 - c), 2 * c + 1) for c in range(n)]
    want = [[0] * nv for _ in range(n)]  # want[d][u]: predicted sphere d of u
    for u, x in enumerate(masks):
        planes: list[int] = []  # planes[p]: bit p of every vertex's count
        for e in range(g.ground):
            if x >> e & 1:
                carry = member[e]
                for p, plane in enumerate(planes):
                    planes[p], carry = plane ^ carry, plane & carry
                if carry:
                    planes.append(carry)
        for c, d in enumerate(rule):
            if c >> len(planes) == 0:  # else no vertex has this count
                eq = full
                for p, plane in enumerate(planes):
                    eq &= plane if c >> p & 1 else ~plane
                want[d][u] = eq
    balls = [1 << u for u in range(nv)]
    if balls != want[0]:
        return None
    diameter = 0
    for d in range(1, n):
        grown = [
            reduce(or_, map(balls.__getitem__, row), ball)
            for ball, row in zip(balls, g.neighbor_table)
        ]
        spheres = list(map(xor, grown, balls))
        if spheres != want[d]:
            return None
        if any(spheres):
            diameter = d
        balls = grown
    return diameter
