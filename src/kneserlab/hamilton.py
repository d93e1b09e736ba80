"""Hamiltonian cycle search and the lift-and-embed recursion diagnostics.

The search kernel (kneserlab._hamcore_py) is an exhaustive backtracking
search, so a negative answer is a proof of non-Hamiltonicity.

The recursion pipeline walks the chain odd(n-1) <- middle(n-1) -> odd(n):
find a Hamiltonian cycle downstairs, lift it through the double cover and
embed the lift as a regular component of odd(n) minus the two canonical
colors S.  Every embedded vertex x has exactly one neighbour outside that
component, its connector p(x) = [2n-1] - (x | S), a vertex of the
remainder piece; p is two-to-one onto the remainder vertices that miss S.
The pipeline reports feasibility data only; it never claims a Hamiltonian
cycle of odd(n), because stitching the pieces into one simple cycle is
exactly the unresolved step.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from . import _hamcore_py as _kernel
from ._hamcore_py import EXHAUSTED_BUDGET, FOUND, NONE  # search statuses
from .decompose import canonical_colors, remainder_graph
from .errors import ParameterError
from .graphs import Family, LabeledGraph, PathSeq, are_vertex_indices, build
from .morphisms import LiftResult, embed_indices, lift_circuit
from .superstructure import two_color_middle


def kernel_name() -> str:
    return _kernel.KERNEL_NAME


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the backtracking search; all limits must be positive (an
    infinite time limit is allowed, NaN is not)."""

    max_nodes: int = 10_000_000
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.max_nodes <= 0 or not self.max_seconds > 0:
            raise ParameterError("budget limits must be positive")


@dataclass
class SearchResult:
    """Outcome of a Hamiltonian cycle search."""

    status: str
    cycle: Optional[PathSeq]
    nodes: int
    elapsed: float
    kernel: str
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _tie_break_ranks(n: int, seed: int) -> list[int]:
    rank = list(range(n))
    random.Random(seed).shuffle(rank)
    return rank


def find_hamiltonian_cycle(
    g: LabeledGraph,
    budget: SearchBudget = SearchBudget(),
) -> SearchResult:
    """Search g for a Hamiltonian cycle within the budget.

    FOUND comes with a verified cycle; NONE means the search tree was
    exhausted and is a proof that no Hamiltonian cycle exists; the budget
    status carries no conclusion.  Identical budgets and seeds give
    identical results run to run.
    """
    if g.n_vertices == 0:
        return SearchResult(NONE, None, 0, 0.0, kernel_name(), "empty graph")
    if not g.connected:
        return SearchResult(
            NONE, None, 0, 0.0, kernel_name(), "disconnected input"
        )
    if g.n_vertices == 2:
        return SearchResult(
            NONE, None, 0, 0.0, kernel_name(),
            "two vertices: a cycle would reuse the single edge",
        )
    rank = _tie_break_ranks(g.n_vertices, budget.seed)
    t0 = time.perf_counter()
    status, path, nodes = _kernel.solve(
        g.neighbor_table, 0, rank, budget.max_nodes, budget.max_seconds
    )
    elapsed = time.perf_counter() - t0
    cycle = None
    if status == FOUND:
        cycle = PathSeq.from_indices(g, path, closed=True)
        if not verify_cycle(g, path):
            raise AssertionError("kernel returned an invalid cycle")
    return SearchResult(status, cycle, nodes, elapsed, kernel_name())


def verify_cycle(g: LabeledGraph, sequence) -> bool:
    """True iff the index sequence is a closed simple cycle covering every
    vertex of g exactly once, with every step an edge.  An entry that is
    not an int (a bool included) is no vertex index."""
    idxs = list(sequence.indices) if isinstance(sequence, PathSeq) else list(sequence)
    if len(idxs) != g.n_vertices or g.n_vertices == 0:
        return False
    if not are_vertex_indices(idxs, g.n_vertices) or len(set(idxs)) != len(idxs):
        return False
    if g.n_vertices == 1:
        return True
    if g.n_vertices == 2:
        return False  # a 2-cycle would reuse the single edge
    rows = g.neighbor_table
    return all(y in rows[x] for x, y in zip(idxs, idxs[1:] + idxs[:1]))


@dataclass
class PipelineReport:
    """Feasibility data from one lift-and-embed round ending in odd(n).

    stage_s holds the wall time in seconds of each stage the round ran, in
    the order run: search (building the base graph and searching it),
    fallback, lift, embed (building odd(n) and embedding), remainder and
    connectors.  The stages follow one another, so their sum is the time
    of the round after its arguments are checked.
    """

    n: int
    start: str
    base_search: SearchResult
    lift: Optional[LiftResult] = None
    embedded_lengths: tuple[int, ...] = ()
    embedded_vertex_count: int = 0
    lifted_is_hamiltonian_middle: bool = False
    remainder_size: int = 0
    remainder_odd: bool = False
    connector_count: int = 0
    connectors_complete: bool = False
    middle_vertex_collisions: int = 0
    fallback_search: Optional[SearchResult] = None
    notes: list[str] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        base_name = (
            f"odd({self.n - 1})" if self.start == "odd" else f"middle({self.n - 1})"
        )
        lines = [f"recursion pipeline into odd({self.n}), starting from {base_name}"]
        lines.append(
            f"  base {base_name} search: {self.base_search.status}"
            f" ({self.base_search.nodes} nodes,"
            f" {self.base_search.elapsed:.2f}s, {self.base_search.kernel})"
        )
        if self.embedded_vertex_count:
            lines.append(
                f"  embedded vertices in odd({self.n}): "
                f"{self.embedded_vertex_count}"
            )
            lines.append(
                f"  remainder size: {self.remainder_size}"
                f" ({'odd' if self.remainder_odd else 'even'})"
            )
            lines.append(
                f"  two-color connectors: {self.connector_count}"
                f" (complete: {self.connectors_complete},"
                f" middle-vertex collisions: {self.middle_vertex_collisions})"
            )
        if self.lift is not None:
            kind = (
                "single circuit" if self.lift.kind == "single"
                else "two antipodal circuits"
            )
            lens = ", ".join(str(c.length) for c in self.lift.circuits)
            lines.append(f"  lift: {kind} of length {lens}")
            if self.start == "odd":
                lines.append(
                    f"  lifted cycle Hamiltonian in middle({self.n - 1}): "
                    f"{self.lifted_is_hamiltonian_middle}"
                )
        if self.fallback_search is not None:
            lines.append(
                f"  fallback direct search in odd({self.n}): "
                f"{self.fallback_search.status}"
            )
        if self.stage_s:
            lines.append("  stage times: " + ", ".join(
                f"{stage} {1000 * t:.1f} ms" for stage, t in self.stage_s.items()
            ))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return lines


def _stage_clock(stage_s: dict[str, float]):
    """lap(stage): record under stage the time since the previous lap (or
    since the clock was made)."""
    last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stage_s[stage] = now - last
        last = now

    return lap


def recursion_pipeline(
    n: int, budget: SearchBudget = SearchBudget(), start: str = "odd"
) -> PipelineReport:
    """Run one recursion round ending in odd(n) and report feasibility data.

    With start="odd" (the odd-category round) the pipeline searches
    odd(n-1), lifts the cycle through the double cover into middle(n-1)
    and embeds the lift.  With start="middle" (the middle-category round)
    it searches middle(n-1) directly, embeds that cycle, and then lifts
    the embedded circuit onward through the cover of odd(n) by middle(n).
    When the base search proves its graph non-Hamiltonian (odd(3)), the
    pipeline falls back to a direct search of odd(n) and says so.  After
    the search the round works on vertex masks and indices: the embedding
    is read from its mask formula, and one pass over the embedded masks
    reads each vertex's connector p(x) from two_color_middle.  A connector
    counts only when it is a remainder vertex in x's row of odd(n)'s
    neighbour table.
    """
    if n < 3:
        raise ParameterError("pipeline needs n >= 3")
    if start not in ("odd", "middle"):
        raise ParameterError("start must be 'odd' or 'middle'")
    odd_family = Family.odd(n)  # checks the ground before anything is built
    stage_s: dict[str, float] = {}
    lap = _stage_clock(stage_s)
    middle = build(Family.middle_levels(n - 1))
    base = build(Family.odd(n - 1)) if start == "odd" else middle
    result = find_hamiltonian_cycle(base, budget)
    report = PipelineReport(n=n, start=start, base_search=result, stage_s=stage_s)
    lap("search")
    if result.status != FOUND:
        if result.status == NONE:
            report.notes.append(
                "base graph has no Hamiltonian cycle (exhaustive);"
                " falling back to direct search"
            )
            report.fallback_search = find_hamiltonian_cycle(
                build(odd_family), budget
            )
            lap("fallback")
        else:
            report.notes.append("base search exhausted its budget; partial report")
        return report

    assert result.cycle is not None
    if start == "odd":
        lift = lift_circuit(result.cycle)
        report.lift = lift
        report.embedded_lengths = tuple(c.length for c in lift.circuits)
        report.lifted_is_hamiltonian_middle = (
            lift.kind == "single"
            and verify_cycle(middle, lift.circuits[0])
        )
        lap("lift")
        odd_up = build(odd_family)
        embedded = embed_indices(middle, odd_up, range(middle.n_vertices))
        lap("embed")
    else:
        odd_up = build(odd_family)
        embedded = embed_indices(middle, odd_up, result.cycle.indices)
        embedded_cycle = PathSeq.from_indices(odd_up, embedded, closed=True)
        report.embedded_lengths = (embedded_cycle.length,)
        lap("embed")
        report.lift = lift_circuit(embedded_cycle)
        lap("lift")
    embedded = sorted(set(embedded))  # odd(n) indices, in mask order
    report.embedded_vertex_count = len(embedded)

    rem_masks = remainder_graph(n, 2).graph.index
    report.remainder_size = len(rem_masks)
    report.remainder_odd = len(rem_masks) % 2 == 1
    if report.remainder_odd:
        report.notes.append(
            "remainder size is odd; the antipode-splicing scheme cannot pair"
            " its vertices"
        )
    lap("remainder")

    s_bits = canonical_colors(n, 2).bits
    masks, rows, index = odd_up.masks, odd_up.neighbor_table, odd_up.index
    middles = []
    for i in embedded:
        mid = two_color_middle(masks[i], s_bits, odd_up.ground)
        if mid in rem_masks and index[mid] in rows[i]:
            middles.append(mid)
    report.connector_count = len(middles)
    report.connectors_complete = len(middles) == len(embedded)
    report.middle_vertex_collisions = len(middles) - len(set(middles))
    if report.middle_vertex_collisions:
        report.notes.append(
            "connector middle vertices collide in the remainder; any tour"
            " built from them would repeat vertices (simplicity violation)"
        )
    coverage = len(embedded) + len(rem_masks)
    if coverage == odd_up.n_vertices:
        report.notes.append(
            "embedded component and remainder partition the vertex set"
        )
    lap("connectors")
    return report
