"""Graph serialization for the command-line tool: JSON, DOT, edge CSV.

The JSON schema is the interchange format:

    {"family": "odd" | "middle" | "kneser" | "bikneser" | null,
     "params": [ints],
     "ground": m,
     "vertices": [[sorted element ints], ...],   # canonical colex order
     "edges": [[uIndex, vIndex, label-or-null], ...]}  # sorted by (u, v)

Export is deterministic, so build -> export -> import -> export is
byte-identical.  The layout of the export is written once, as the pieces
of _json_pieces: graph_to_json joins them, and the import matches a text
against them.

Import accepts exactly graph_to_json's bytes and parses everything else
whole.  A text that is graph_to_json(build(family)) for the family its
head names is matched against that graph's pieces as they are generated,
and the reader returns the built graph, whose memo keeps the text as its
export; nothing past the head is parsed.  Any other text is parsed as
one document and checked, and that reader gives every error message; the
parsed document is dropped before the graph's rows are made.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import (
    add, and_, getitem, is_, is_not, itemgetter, lt, or_, rshift, sub, xor,
)
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParameterError
from .graphs import (
    KNESER,
    MIDDLE_LEVELS,
    ODD,
    Family,
    LabeledGraph,
    build,
    check_edge_ends,
    edge_rows,
    expected_family_degree,
    gc_paused,
)
from .setcore import Block, binomial, check_ground

_CHUNK = 10  # bits per lookup when writing a vertex's elements
_BLOCK_ROWS = 4096  # rows of the edge list written per text block
# vertices or edge rows generated per compared block on import: at 4096 the
# first edge block of odd(8) holds most of its edges, and the import's
# traced peak reads 0.93 of the parsed document's, against 0.67 at 1024
_MATCH_ROWS = 1024
_HEAD_BYTES = 256  # more than the head of any family on a ground up to 63


def _head(family: Optional[Family], ground: int) -> dict:
    return {
        "family": family.kind if family else None,
        "params": list(family.params) if family else [],
        "ground": ground,
    }


def _head_text(family: Optional[Family], ground: int) -> str:
    """The document's text up to the ", " before "vertices"."""
    return json.dumps(_head(family, ground), separators=(", ", ": "))[:-1]


def graph_to_dict(g: LabeledGraph) -> dict:
    return {
        **_head(g.family, g.ground),
        "vertices": [list(v.elements()) for v in g.vertices],
        "edges": [[u, v, lab] for u, v, lab in g.edges()],
    }


@gc_paused
def graph_to_json(g: LabeledGraph) -> str:
    """json.dumps(graph_to_dict(g)) with ", " and ": " separators, plus a
    newline; the vertex and edge lists are written from masks and rows,
    and every piece is joined once.  A graph that graph_from_json gave for
    exactly this text keeps the text in its memo (_family_export), and
    it is returned as it is: the same object, not a copy."""
    text = g.memo.get(("json",))
    if text is not None:
        return text
    return "".join(_json_pieces(g, _BLOCK_ROWS))


def _json_pieces(g: LabeledGraph, rows: int) -> Iterator[str]:
    """The export of g in pieces, its vertex and edge lists in blocks of
    the given number of vertices or rows; the block size moves no byte."""
    yield _head_text(g.family, g.ground)
    yield ', "vertices": '
    yield from _vertex_blocks(g.masks, g.ground, rows)
    yield ', "edges": '
    yield from _edge_blocks(g, rows)
    yield "}\n"


@lru_cache(maxsize=None)
def _chunk_texts(m: int) -> tuple[list[str], ...]:
    """For each _CHUNK-bit slice of a mask over [m], the text "e, f, " of
    the elements that every value of the slice holds; the last slice holds
    only the values below 2 ** (m - base)."""
    return tuple(
        ["".join(f"{base + p + 1}, " for p in range(_CHUNK) if x >> p & 1)
         for x in range(1 << min(_CHUNK, m - base))]
        for base in range(0, m, _CHUNK)
    )


def _vertex_blocks(masks: Sequence[int], ground: int, rows: int) -> Iterator[str]:
    """The text of the vertex list of the given masks over [ground] in
    pieces, one per block of the given number of vertices."""
    if not masks:
        yield "[]"
        return
    yield "[["
    for start in range(0, len(masks), rows):
        if start:
            yield "], ["
        yield "], [".join(_element_texts(masks[start:start + rows], ground))
    yield "]]"


def _element_texts(masks: Sequence[int], ground: int) -> Iterator[str]:
    """For each mask, the text "e, f, g" of its elements."""
    texts: list[str] = [""] * len(masks)
    low = (1 << _CHUNK) - 1
    for c, table in enumerate(_chunk_texts(ground)):
        part = map(table.__getitem__,
                   map(and_, map(rshift, masks, repeat(c * _CHUNK)), repeat(low)))
        texts = list(map(add, texts, part))
    return map(str.rstrip, texts, repeat(", "))


def _edge_blocks(g: LabeledGraph, rows: int) -> Iterator[str]:
    """The text of the edge list in pieces, one per block of rows made as
    it is asked for, so that no list of pieces per edge is made for the
    whole graph."""
    names = [f"{i}, " for i in range(g.n_vertices)]
    blocks = filter(None, (_edge_block(g, names, start, start + rows)
                           for start in range(0, g.n_vertices, rows)))
    last = next(blocks, None)
    if last is None:
        yield "[]"
        return
    yield "[["
    for block in blocks:
        yield last
        last = block
    yield last[:-len("], [")] + "]]"


def _edge_block(g: LabeledGraph, names: list[str], start: int, stop: int) -> str:
    """The edges of rows start, ..., stop - 1 that go up to a higher index,
    each as "u, v, label], [", in (u, v) order; names[i] is "i, "."""
    rows, label_rows = g.neighbor_table[start:stop], g.label_table[start:stop]
    # rows ascend, so the neighbours above vertex i are the tail of its row
    cuts = list(map(bisect_right, rows, range(start, stop)))
    tails = list(map(slice, cuts, repeat(None)))
    above = list(chain.from_iterable(map(getitem, rows, tails)))
    # each edge is the three pieces  "u, "  "v, "  "label], ["
    pieces: list[str] = [""] * (3 * len(above))
    pieces[0::3] = chain.from_iterable(
        map(repeat, names[start:stop], map(sub, map(len, rows), cuts)))
    pieces[1::3] = map(names.__getitem__, above)
    pieces[2::3] = _label_texts(list(chain.from_iterable(
        map(getitem, label_rows, tails))))
    return "".join(pieces)


def _label_texts(values: list) -> list[str]:
    """json.dumps of each value followed by "], ["; ints and None go
    through a table."""
    if set(map(type, values)) <= {int, type(None)}:
        table = {v: f"{json.dumps(v)}], [" for v in set(values)}
        return list(map(table.__getitem__, values))
    return [f"{json.dumps(v)}], [" for v in values]


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


def _parsed_graph(text: str) -> LabeledGraph:
    """The graph of the text parsed as one document: vertices in canonical
    order, every endpoint a vertex index (_document_columns).

    A document that names a family must hold exactly that family's graph:
    its ground, vertex count, block sizes and edge count, and on every
    edge an adjacent pair with the label the two blocks imply.  Any
    violation raises ParameterError.  The parsed document is dropped
    before the neighbour rows are made, so the two never coexist.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"invalid JSON: {exc}") from exc
    family, ground, masks, ends_u, ends_v, labels = _document_columns(data)
    del data
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
    """The graph of an interchange document's JSON text.  The exact export
    of a family is the graph build gives for it (_family_export); any
    other text is parsed whole and checked (_parsed_graph), which gives
    every error message."""
    return _family_export(text) or _parsed_graph(text)


def _family_export(text: str) -> Optional[LabeledGraph]:
    """build(family) when text is graph_to_json of that graph for the
    family its head names; None for any other text.

    Only the head before ', "vertices": ' is parsed, and only when it lies
    in the first _HEAD_BYTES bytes.  A head that names no family or is not
    that family's own is declined, and so is a text shorter than the
    family's export can be (_least_export_bytes), before anything is
    built.  The family is then built and the whole text matched against
    its _json_pieces, _MATCH_ROWS vertices or rows at a time.  A text that
    matches to its last byte is graph_to_json(g), so g.memo keeps it as
    g's export.
    """
    at = text.find(', "vertices": ', 0, _HEAD_BYTES)
    if at < 0:
        return None
    try:
        head = json.loads(f"{text[:at]}}}")
        family = Family(head["family"], *head["params"])
    except (KeyError, TypeError, ValueError, RecursionError):
        return None  # ParameterError is a ValueError
    if (len(text) < _least_export_bytes(family)
            or text[:at] != _head_text(family, family.ground)):
        return None
    try:
        g = build(family)
    except ParameterError:  # too many subsets: _parsed_graph says why
        return None
    if _matched(text, 0, _json_pieces(g, _MATCH_ROWS)) != len(text):
        return None
    g.memo[("json",)] = text
    return g


def _least_export_bytes(family: Family) -> int:
    """A lower bound on the length of the family's export: a vertex of s
    elements takes "[e, ..., e], " (3s + 2 bytes or more), an edge
    "[u, v, l], " (11 or more), and the last of each two bytes less."""
    n_edges = family.n_vertices * expected_family_degree(family) // 2
    return sum(binomial(family.ground, size) * (3 * size + 2)
               for size in family.block_sizes) + 11 * n_edges - 4


def _matched(text: str, at: int, pieces: Iterable[str]) -> int:
    """The offset past the pieces when text holds them in turn from at;
    -1 at the first piece it does not hold."""
    for piece in pieces:
        if not text.startswith(piece, at):
            return -1
        at += len(piece)
    return at


def _node_name(v: Block) -> str:
    return "-".join(str(e) for e in v.elements()) if v.bits else "0"


def graph_to_dot(g: LabeledGraph) -> str:
    """DOT text titled after the family (odd_3, kneser_5_2; graph when
    there is none); node names join the block elements with hyphens (the
    empty block is named 0) and labeled edges carry a label attribute."""
    title = (str(g.family).replace("(", "_").replace(")", "").replace(",", "_")
             if g.family else "graph")
    names = list(map(_node_name, g.vertices))
    lines = [f'graph "{title}" {{']
    for name in names:
        lines.append(f'  "{name}";')
    for u, v, lab in g.edges():
        attr = f" [label={lab}]" if lab is not None else ""
        lines.append(f'  "{names[u]}" -- "{names[v]}"{attr};')
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
