"""Graph serialization for the command-line tool: JSON, DOT, edge CSV.

The JSON schema is the interchange format:

    {"family": "odd" | "middle" | "kneser" | "bikneser" | null,
     "params": [ints],
     "ground": m,
     "vertices": [[sorted element ints], ...],   # canonical colex order
     "edges": [[uIndex, vIndex, label-or-null], ...]}  # sorted by (u, v)

Export is deterministic, so build -> export -> import -> export is
byte-identical.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import ParameterError
from .graphs import Family, LabeledGraph, graph_from_edges
from .setcore import Block


def graph_to_dict(g: LabeledGraph) -> dict:
    return {
        "family": g.family.kind if g.family else None,
        "params": list(g.family.params) if g.family else [],
        "ground": g.ground,
        "vertices": [list(v.elements()) for v in g.vertices],
        "edges": [[u, v, lab] for u, v, lab in g.edges()],
    }


def graph_to_json(g: LabeledGraph) -> str:
    return json.dumps(graph_to_dict(g), separators=(", ", ": ")) + "\n"


def graph_from_dict(data: dict) -> LabeledGraph:
    try:
        ground = data["ground"]
        vert_lists = data["vertices"]
        edge_lists = data["edges"]
        family_kind = data.get("family")
        params = data.get("params", [])
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed graph document: {exc}") from exc
    try:
        family = None if family_kind is None else Family(family_kind, *params)
        vertices = [Block.from_elements(elems, ground) for elems in vert_lists]
        edges = [(u, v, lab) for u, v, lab in edge_lists]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"malformed graph document: {exc}") from exc
    labeled = None
    if family is not None:
        labeled = family.kind in ("odd", "middle")
    g = graph_from_edges(ground, vertices, edges, family=family, labeled=labeled)
    if list(g.vertices) != vertices:
        raise ParameterError("vertices were not in canonical order")
    return g


def graph_from_json(text: str) -> LabeledGraph:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParameterError(f"invalid JSON: {exc}") from exc
    return graph_from_dict(data)


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
