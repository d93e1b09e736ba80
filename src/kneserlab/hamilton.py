"""Hamiltonian cycle search and the lift-and-embed recursion diagnostics.

The search kernel (kneserlab._hamcore_py) is an exhaustive backtracking
search, so a negative answer is a proof of non-Hamiltonicity.

The recursion pipeline walks the chain odd(n-1) <- middle(n-1) -> odd(n):
find a Hamiltonian cycle downstairs, lift it through the double cover and
embed the lift through embed_middle_in_odd(n-1), whose image is the
regular component of odd(n) minus the two canonical colors S: the
vertices whose trace on S is one color.  The remainder piece is the
vertices whose trace is empty or all of S.  Every embedded vertex x has
exactly one neighbour outside its component, its connector
p(x) = [2n-1] - (x | S), a remainder vertex; p is two-to-one onto the
remainder vertices that miss S.  These are facts of odd(n) alone, read
from its masks without cutting either piece, so odd(n)'s memo keeps them
as its splice frame for as long as odd(n) lives.
The pipeline reports feasibility data only; it never claims a Hamiltonian
cycle of odd(n), because stitching the pieces into one simple cycle is
exactly the unresolved step.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import _hamcore_py as _kernel
from ._hamcore_py import EXHAUSTED_BUDGET, FOUND, NONE  # search statuses
from .decompose import canonical_colors
from .errors import ParameterError
from .graphs import Family, LabeledGraph, PathSeq, are_vertex_indices, build
from .morphisms import LiftResult, embed_middle_in_odd, lift_circuit
from .superstructure import two_color_middle


def kernel_name() -> str:
    return _kernel.KERNEL_NAME


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the backtracking search and the seed of its tie ranks:
    max_nodes an int >= 1, max_seconds an int or a float > 0 that a float
    can hold (an infinite time limit is allowed, NaN is not), seed an int.
    A bool is none of these."""

    max_nodes: int = 10_000_000
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if type(self.max_nodes) is not int:
            raise ParameterError(f"max_nodes must be an int, got {self.max_nodes!r}")
        if type(self.max_seconds) not in (int, float):
            raise ParameterError(
                f"max_seconds must be an int or a float, got {self.max_seconds!r}")
        if type(self.seed) is not int:
            raise ParameterError(f"seed must be an int, got {self.seed!r}")
        if self.max_nodes < 1 or not self.max_seconds > 0:
            raise ParameterError(
                f"budget limits must be positive, got max_nodes={self.max_nodes},"
                f" max_seconds={self.max_seconds}")
        if type(self.max_seconds) is int and self.max_seconds > sys.float_info.max:
            raise ParameterError("max_seconds is an int too large for a float")


@dataclass
class SearchResult:
    """Outcome of a Hamiltonian cycle search by the kernel_name() kernel."""

    status: str
    cycle: Optional[PathSeq]
    nodes: int
    elapsed: float
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _tie_break_ranks(n: int, seed: int) -> list[int]:
    """The order random.Random(seed).shuffle gives list(range(n)): its
    Fisher-Yates loop and rejection sampling, run here on getrandbits
    without a method call per element."""
    rank = list(range(n))
    getrandbits = random.Random(seed).getrandbits
    for i in range(n - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        rank[i], rank[j] = rank[j], rank[i]
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
        return SearchResult(NONE, None, 0, 0.0, "empty graph")
    if not g.connected:
        return SearchResult(NONE, None, 0, 0.0, "disconnected input")
    if g.n_vertices == 2:
        return SearchResult(NONE, None, 0, 0.0,
                            "two vertices: a cycle would reuse the single edge")
    t0 = time.perf_counter()
    rank = _tie_break_ranks(g.n_vertices, budget.seed)
    status, path, nodes = _kernel.solve(
        g.neighbor_table, 0, rank, budget.max_nodes, budget.max_seconds,
        masks=g.neighbor_masks,
    )
    elapsed = time.perf_counter() - t0
    cycle = None
    if status == FOUND:
        cycle = PathSeq.from_indices(g, path, closed=True)
        if not verify_cycle(g, path):
            raise AssertionError("kernel returned an invalid cycle")
    return SearchResult(status, cycle, nodes, elapsed)


def verify_cycle(g: LabeledGraph, sequence) -> bool:
    """True iff the index sequence is a closed simple cycle covering every
    vertex of g exactly once, with every step an edge.  An entry that is
    not an int (a bool included) is no vertex index.  The edges are read
    from neighbor_table, not from the neighbor_masks that the search's
    connectivity check reads."""
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
    fallback, lift, embed (building odd(n), reading its splice frame, or
    computing it on the first round into odd(n), embedding, and reading
    the frame's counts and notes into the report).  The stages follow one
    another, so their sum is the time of the round after its arguments
    are checked.  The two flags are read from the counts: with nothing
    embedded, connectors are not complete.
    """

    n: int
    start: str
    base_search: SearchResult
    lift: Optional[LiftResult] = None
    embedded_lengths: tuple[int, ...] = ()
    embedded_vertex_count: int = 0
    lifted_is_hamiltonian_middle: bool = False
    remainder_size: int = 0
    connector_count: int = 0
    middle_vertex_collisions: int = 0
    fallback_search: Optional[SearchResult] = None
    notes: list[str] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)

    @property
    def remainder_odd(self) -> bool:
        return self.remainder_size % 2 == 1

    @property
    def connectors_complete(self) -> bool:
        return 0 < self.embedded_vertex_count == self.connector_count

    def summary_lines(self) -> list[str]:
        base_name = (
            f"odd({self.n - 1})" if self.start == "odd" else f"middle({self.n - 1})"
        )
        lines = [f"recursion pipeline into odd({self.n}), starting from {base_name}"]
        lines.append(
            f"  base {base_name} search: {self.base_search.status}"
            f" ({self.base_search.nodes} nodes,"
            f" {self.base_search.elapsed:.2f}s, {kernel_name()})"
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
            kind = ("single circuit" if self.lift.kind == "single"
                    else "two antipodal circuits" if self.lift.antipodal
                    else "two circuits")
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


@dataclass(frozen=True)
class SpliceFrame:
    """What every round into odd(n) reads of the copy M of middle(n-1) in
    odd(n) and of the remainder R: images[i] is the odd(n) index of
    middle(n-1) vertex i under embed_middle_in_odd(n-1), and the counts
    are those the report carries."""

    images: tuple[int, ...]
    embedded_vertex_count: int
    remainder_size: int
    connector_count: int
    middle_vertex_collisions: int

    @classmethod
    def of(cls, odd_up: LabeledGraph) -> "SpliceFrame":
        """The frame of odd_up = odd(n), computed afresh from its masks.  R
        is the vertices whose trace on the canonical colors S is empty or
        S, as block_component(n, S, ()) cuts them.  One pass over the
        embedded masks reads each vertex's connector p(x) from
        two_color_middle.  A connector counts only when it is a vertex of
        R in x's row of odd_up's neighbour table."""
        n = (odd_up.ground + 1) // 2
        images = embed_middle_in_odd(n - 1).images
        s_bits = canonical_colors(n, 2).bits
        masks, rows, index = odd_up.masks, odd_up.neighbor_table, odd_up.index
        in_rem = [x & s_bits in (0, s_bits) for x in masks]
        middles = []
        for i in images:
            mid = two_color_middle(masks[i], s_bits, odd_up.ground)
            j = index.get(mid)
            if j is not None and in_rem[j] and j in rows[i]:
                middles.append(mid)
        return cls(images, len(set(images)), sum(in_rem),
                   len(middles), len(middles) - len(set(middles)))


def _splice_frame(odd_up: LabeledGraph) -> SpliceFrame:
    """SpliceFrame.of(odd_up), made once per odd_up: its memo keeps the
    frame for as long as odd_up lives."""
    key = ("frame",)
    if key not in odd_up.memo:
        odd_up.memo[key] = SpliceFrame.of(odd_up)
    return odd_up.memo[key]


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
    pipeline falls back to a direct search of odd(n) and says so.  An
    odd-start round checks the lift on the middle(n-1) that lift_circuit
    built, the graph the lifted circuit lives on.  The embedding,
    the remainder and the connectors do not depend on the cycle: they are
    read from odd(n)'s splice frame, which the first round into odd(n)
    computes and odd(n)'s memo keeps.  The search, the lift, every cycle
    check and the embedded cycle of a middle-start round are made anew
    each round.
    """
    if n < 3:
        raise ParameterError("pipeline needs n >= 3")
    if start not in ("odd", "middle"):
        raise ParameterError("start must be 'odd' or 'middle'")
    odd_family = Family.odd(n)  # checks the ground before anything is built
    stage_s: dict[str, float] = {}
    lap = _stage_clock(stage_s)
    base = build(Family.odd(n - 1) if start == "odd"
                 else Family.middle_levels(n - 1))
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
            and verify_cycle(lift.circuits[0].graph, lift.circuits[0])
        )
        lap("lift")
    odd_up = build(odd_family)
    frame = _splice_frame(odd_up)
    if start == "middle":
        embedded = map(frame.images.__getitem__, result.cycle.indices)
        embedded_cycle = PathSeq.from_indices(odd_up, embedded, closed=True)
        report.embedded_lengths = (embedded_cycle.length,)
    report.embedded_vertex_count = frame.embedded_vertex_count
    report.remainder_size = frame.remainder_size
    report.connector_count = frame.connector_count
    report.middle_vertex_collisions = frame.middle_vertex_collisions
    if report.remainder_odd:
        report.notes.append(
            "remainder size is odd; the antipode-splicing scheme cannot pair"
            " its vertices"
        )
    if report.middle_vertex_collisions:
        report.notes.append(
            "connector middle vertices collide in the remainder; any tour"
            " built from them would repeat vertices (simplicity violation)"
        )
    if frame.embedded_vertex_count + frame.remainder_size == odd_up.n_vertices:
        report.notes.append(
            "embedded component and remainder partition the vertex set"
        )
    lap("embed")
    if start == "middle":
        report.lift = lift_circuit(embedded_cycle)
        lap("lift")
    return report
