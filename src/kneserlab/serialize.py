"""Graph serialization for the command-line tool: JSON, DOT, edge CSV.

The JSON schema is the interchange format:

    {"family": "odd" | "middle" | "kneser" | "bikneser" | null,
     "params": [ints],
     "ground": m,
     "vertices": [[sorted element ints], ...],   # canonical colex order
     "edges": [[uIndex, vIndex, label-or-null], ...]}  # sorted by (u, v)

Export is deterministic, so build -> export -> import -> export is
byte-identical.

Import reads a text in the exporter's layout, with the edge array as the
last member of the document, a block of edge rows at a time, so the whole
parsed edge list never exists.  Any other text, and any text whose blocks
are not rows of in-range int endpoints, is parsed as one document; that
reader gives every error message.  Both readers end in the same checks.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import (
    add, and_, getitem, is_, is_not, itemgetter, lt, or_, rshift, sub, xor,
)
from typing import Optional

from .errors import ParameterError
from .graphs import (
    KNESER,
    MIDDLE_LEVELS,
    ODD,
    Family,
    LabeledGraph,
    are_vertex_indices,
    check_edge_ends,
    edge_rows,
    expected_family_degree,
    gc_paused,
)
from .setcore import Block, check_ground

_CHUNK = 8  # bits per lookup when writing a vertex's elements
_BLOCK_ROWS = 4096  # rows of the edge list written per text block
_BLOCK_BYTES = 1 << 16  # bytes of edge text parsed per block on import


def _head(g: LabeledGraph) -> dict:
    return {
        "family": g.family.kind if g.family else None,
        "params": list(g.family.params) if g.family else [],
        "ground": g.ground,
    }


def graph_to_dict(g: LabeledGraph) -> dict:
    return {
        **_head(g),
        "vertices": [list(v.elements()) for v in g.vertices],
        "edges": [[u, v, lab] for u, v, lab in g.edges()],
    }


@gc_paused
def graph_to_json(g: LabeledGraph) -> str:
    """json.dumps(graph_to_dict(g)) with ", " and ": " separators, plus a
    newline; the vertex and edge lists are written from masks and rows,
    and every piece is joined once."""
    head = json.dumps(_head(g), separators=(", ", ": "))
    return "".join([f'{head[:-1]}, "vertices": ', _vertices_text(g),
                    ', "edges": ', *_edge_blocks(g), "}\n"])


@lru_cache(maxsize=None)
def _chunk_texts(m: int) -> tuple[list[str], ...]:
    """For each _CHUNK-bit slice of a mask over [m], the text "e, f, " of
    the elements that every value of the slice holds."""
    return tuple(
        ["".join(f"{base + p + 1}, " for p in range(_CHUNK) if x >> p & 1)
         for x in range(1 << _CHUNK)]
        for base in range(0, m, _CHUNK)
    )


def _vertices_text(g: LabeledGraph) -> str:
    masks = g.masks
    if not masks:
        return "[]"
    texts: list[str] = [""] * len(masks)
    low = (1 << _CHUNK) - 1
    for c, table in enumerate(_chunk_texts(g.ground)):
        part = map(table.__getitem__,
                   map(and_, map(rshift, masks, repeat(c * _CHUNK)), repeat(low)))
        texts = list(map(add, texts, part))
    return "[[" + "], [".join(map(str.rstrip, texts, repeat(", "))) + "]]"


def _edge_blocks(g: LabeledGraph) -> list[str]:
    """The text of the edge list in pieces, one per _BLOCK_ROWS rows, so
    that no list of pieces per edge is made for the whole graph."""
    names = list(map(str, range(g.n_vertices)))
    blocks = list(filter(None, (
        _edge_block(g, names, start)
        for start in range(0, g.n_vertices, _BLOCK_ROWS))))
    if not blocks:
        return ["[]"]
    blocks[-1] = blocks[-1][:-len("], [")] + "]]"
    return ["[[", *blocks]


def _edge_block(g: LabeledGraph, names: list[str], start: int) -> str:
    """The edges of rows start, ..., start + _BLOCK_ROWS - 1 that go up to
    a higher index, each as "u, v, label], [", in (u, v) order."""
    stop = start + _BLOCK_ROWS
    rows, label_rows = g.neighbor_table[start:stop], g.label_table[start:stop]
    # rows ascend, so the neighbours above vertex i are the tail of its row
    cuts = list(map(bisect_right, rows, range(start, stop)))
    tails = list(map(slice, cuts, repeat(None)))
    above = list(chain.from_iterable(map(getitem, rows, tails)))
    # each edge is the six pieces  u ", " v ", " label "], ["
    pieces = [", "] * (6 * len(above))
    pieces[0::6] = chain.from_iterable(
        map(repeat, names[start:stop], map(sub, map(len, rows), cuts)))
    pieces[2::6] = map(names.__getitem__, above)
    pieces[4::6] = _json_texts(list(chain.from_iterable(
        map(getitem, label_rows, tails))))
    pieces[5::6] = repeat("], [", len(above))
    return "".join(pieces)


def _json_texts(values: list) -> list[str]:
    """json.dumps of each value; ints and None go through a table."""
    if set(map(type, values)) <= {int, type(None)}:
        table = {v: json.dumps(v) for v in set(values)}
        return list(map(table.__getitem__, values))
    return list(map(json.dumps, values))


def _document_columns(data: dict) -> tuple:
    """The family, ground and vertex masks of a parsed interchange
    document, and its three edge columns: the u ends, the v ends and the
    labels.

    The vertices must be listed in canonical order, and every endpoint
    must be a vertex index (check_edge_ends).  The endpoint columns are
    then mapped through one shared list of index ints, so the ints json
    parsed die with the document.
    """
    try:
        ground = data["ground"]
        vert_lists = data["vertices"]
        edge_lists = data["edges"]
        family_kind = data.get("family")
        params = data.get("params", [])
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed graph document: {exc}") from exc
    try:
        # an object or a string would pass for a row of three below
        for name, rows in (("vertices", vert_lists), ("edges", edge_lists)):
            if type(rows) is not list or set(map(type, rows)) - {list}:
                raise ValueError(f"{name} must be a list of arrays")
        if family_kind is not None and type(family_kind) is not str:
            raise ValueError("family must be null or a string")
        if type(params) is not list:
            raise ValueError("params must be a list")
        family = None if family_kind is None else Family(family_kind, *params)
        masks = _vertex_masks(vert_lists, ground)
        if set(map(len, edge_lists)) - {3}:
            raise ValueError("an edge is not [u, v, label]")
        ends_u, ends_v, labels = (list(map(itemgetter(x), edge_lists))
                                  for x in range(3))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"malformed graph document: {exc}") from exc
    if not all(map(lt, masks, islice(masks, 1, None))):
        if len(set(masks)) != len(masks):
            raise ParameterError("duplicate vertices")
        raise ParameterError("vertices were not in canonical order")
    # checked before any lookup, since shared[-1] would alias the last vertex
    check_edge_ends(len(masks), ends_u, ends_v)
    shared = list(range(len(masks)))
    ends_u = list(map(shared.__getitem__, ends_u))
    ends_v = list(map(shared.__getitem__, ends_v))
    return family, ground, masks, ends_u, ends_v, labels


def _graph_from_columns(
    family: Optional[Family],
    ground: int,
    masks: list[int],
    ends_u: list,
    ends_v: list,
    labels: list,
) -> LabeledGraph:
    """The graph of a document's columns, as the readers check them:
    vertices in canonical order, every endpoint a vertex index.

    A document that names a family must hold exactly that family's graph:
    its ground, vertex count, block sizes and edge count, and on every
    edge an adjacent pair with the label the two blocks imply.  Any
    violation raises ParameterError.
    """
    nbrs, labs = edge_rows(len(masks), ends_u, ends_v, labels)
    if family is None:
        labeled = any(map(is_not, labels, repeat(None)))
    else:
        _check_family(family, ground, masks,
                      list(map(masks.__getitem__, ends_u)),
                      list(map(masks.__getitem__, ends_v)), labels)
        labeled = family.kind in (ODD, MIDDLE_LEVELS)
    return LabeledGraph(ground, tuple(masks), nbrs, labs,
                        family=family, labeled=labeled)


def _vertex_masks(vert_lists, ground: int) -> list[int]:
    """The bitmask of every element list, with Block.from_elements's checks."""
    check_ground(ground)
    if set(map(type, chain.from_iterable(vert_lists))) <= {int}:
        bit = {e: 1 << (e - 1) for e in range(1, ground + 1)}
        try:
            masks = list(map(sum, map(map, repeat(bit.__getitem__), vert_lists)))
        except KeyError:
            pass  # an element outside [ground]
        else:
            if list(map(int.bit_count, masks)) == list(map(len, vert_lists)):
                return masks
    # repeated, out-of-range or non-int elements take the checked path
    return [Block.from_elements(elems, ground).bits for elems in vert_lists]


def _check_family(
    family: Family,
    ground: int,
    masks: list[int],
    ends_u: list[int],
    ends_v: list[int],
    labels: list,
) -> None:
    """Check a document's vertices (distinct, in canonical order) and
    edges (distinct, given by endpoint masks) against the family it names."""
    if ground != family.ground:
        raise ParameterError(
            f"{family} lives on ground [{family.ground}], not [{ground}]")
    if len(masks) != family.n_vertices:
        raise ParameterError(
            f"{family} has {family.n_vertices} vertices, not {len(masks)}")
    if not set(map(int.bit_count, masks)) <= set(family.block_sizes):
        raise ParameterError(
            f"{family} has blocks of sizes {family.block_sizes} only")
    if family.kind in (KNESER, ODD):
        if any(map(and_, ends_u, ends_v)):
            raise ParameterError(f"an edge joins intersecting blocks of {family}")
        # the label of an odd graph edge is the one element outside u | v
        full = (1 << ground) - 1
        want = map(int.bit_length, map(xor, map(or_, ends_u, ends_v), repeat(full)))
    else:
        if list(map(and_, ends_u, ends_v)) != list(map(min, ends_u, ends_v)):
            raise ParameterError(
                f"an edge joins blocks of {family} neither of which contains"
                " the other")
        # the label of a middle levels edge is the one element of u ^ v
        want = map(int.bit_length, map(xor, ends_u, ends_v))
    if family.kind in (ODD, MIDDLE_LEVELS):
        implied = set(map(type, labels)) <= {int} and list(want) == labels
    else:
        implied = all(map(is_, labels, repeat(None)))
    if not implied:
        raise ParameterError(f"an edge label is not the one {family} implies")
    n_edges = family.n_vertices * expected_family_degree(family) // 2
    if len(labels) != n_edges:
        raise ParameterError(f"{family} has {n_edges} edges, not {len(labels)}")


@gc_paused
def graph_from_json(text: str) -> LabeledGraph:
    """The graph of an interchange document's JSON text, checked as
    _document_columns and _graph_from_columns describe.  Text in the
    exporter's layout is read a block of edge rows at a time
    (_block_columns); any text that reader cannot finish is parsed whole
    (_whole_columns), which gives every error message.  No parsed document
    outlives its columns."""
    return _graph_from_columns(*(_block_columns(text) or _whole_columns(text)))


def _whole_columns(text: str) -> tuple:
    """The columns of the document parsed whole."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"invalid JSON: {exc}") from exc
    return _document_columns(data)


def _block_columns(text: str) -> Optional[tuple]:
    """The columns _whole_columns gives, read without parsing the edge
    array whole; None for a text this reader cannot finish.

    The text must end in ', "edges": [...]}' and optional whitespace; the
    quote after ", " is not escaped, so it opens the key.  The rest is
    parsed with [] for the edge array: that this parses shows the array is
    the last member of the top-level object, the value json.loads keeps.
    The array text is cut after the "]" of a "], [" about every
    _BLOCK_BYTES bytes and each cut is parsed as an array of its own.  A
    cut inside a string leaves it unterminated and one inside a nested
    array leaves its brackets unbalanced, so a bad cut fails to parse and
    cannot misread a row.  Every block must hold [u, v, label] rows whose
    endpoints are vertex indices; the shared index ints replace them.
    """
    key = text.rfind(', "edges": [')
    start, stop = key + len(', "edges": '), text.rfind("}")
    if key < 0 or stop <= start or text[stop - 1] != "]":
        return None
    ends_u, ends_v, labels = [], [], []
    try:
        family, ground, masks, *_ = _document_columns(
            json.loads(f"{text[:start]}[]{text[stop:]}"))
        shared = list(range(len(masks)))
        at, end = start + 1, stop - 1  # inside the array's brackets
        while at < end:
            cut = text.find("], [", at + _BLOCK_BYTES, end)
            cut = end if cut < 0 else cut + 1
            rows = json.loads(f"[{text[at:cut]}]")
            if set(map(type, rows)) - {list} or set(map(len, rows)) - {3}:
                return None
            for x, column in enumerate((ends_u, ends_v)):
                ends = list(map(itemgetter(x), rows))
                if not are_vertex_indices(ends, len(shared)):
                    return None
                column += map(shared.__getitem__, ends)
            labels += map(itemgetter(2), rows)
            at = cut + 2  # past ", " to the next row's "["
    except (ValueError, RecursionError):  # ParameterError is a ValueError
        return None
    return family, ground, masks, ends_u, ends_v, labels


def _node_name(v: Block) -> str:
    return "-".join(str(e) for e in v.elements()) if v.bits else "0"


def graph_to_dot(g: LabeledGraph, name: Optional[str] = None) -> str:
    """DOT text; node names join the block elements with hyphens (the empty
    block is named 0) and labeled edges carry a label attribute."""
    title = name or (str(g.family).replace("(", "_").replace(")", "").replace(",", "_")
                     if g.family else "graph")
    lines = [f'graph "{title}" {{']
    for v in g.vertices:
        lines.append(f'  "{_node_name(v)}";')
    for u, v, lab in g.edges():
        attr = f" [label={lab}]" if lab is not None else ""
        lines.append(
            f'  "{_node_name(g.vertices[u])}" -- "{_node_name(g.vertices[v])}"{attr};'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_edge_csv(g: LabeledGraph) -> str:
    """Edge list as CSV rows u,v,label over vertex indices; empty label
    column for unlabeled edges."""
    lines = ["u,v,label"]
    for u, v, lab in g.edges():
        lines.append(f"{u},{v},{'' if lab is None else lab}")
    return "\n".join(lines) + "\n"


FORMATS = {
    "json": graph_to_json,
    "dot": graph_to_dot,
    "edges": graph_to_edge_csv,
}


def render(g: LabeledGraph, fmt: str) -> str:
    try:
        return FORMATS[fmt](g)
    except KeyError:
        raise ParameterError(f"unknown format {fmt!r}") from None
