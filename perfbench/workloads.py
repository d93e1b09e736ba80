"""The three benchmark workloads and their correctness gates.

Each workload has ``setup(seed)`` (input generation and pre-building,
timed as part of set-up) and ``run_pass(state)`` (one pass, timed).  A pass
returns a ``PassResult``: operations attempted, the ones that failed, a
``signature`` of deterministic facts (statuses, node counts, censuses,
export hashes) that must repeat from pass to pass, and the raw figures the
end-to-end metrics are made of.

Inputs come only from the workload seed (the pipeline rounds are the same
for every seed); the package sees only the generated graphs, color sets
and budgets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field

from kneserlab import cli, serialize
from kneserlab import hamilton as ham
from kneserlab.decompose import (
    as_color_block,
    classify_components,
    delete_colors,
    expected_census,
)
from kneserlab.graphs import Family, build
from kneserlab.setcore import binomial

# A search budget in seconds that never binds: every plain search and
# pipeline round is bounded by its node budget, so node counts are exact.
NEVER_BINDS_S = 600.0


@dataclass
class PassResult:
    attempted: int = 0
    failures: list = field(default_factory=list)
    signature: list = field(default_factory=list)
    nodes: int = 0  # kernel nodes over the plain searches
    search_s: float = 0.0  # time inside find_hamiltonian_cycle, plain searches
    pipeline_s: float = 0.0  # summed wall time of the pipeline rounds

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ------------------------------------------------------------ construct

CONSTRUCT_FAMILIES = {
    "full": [Family.odd(9), Family.middle_levels(8), Family.odd(10)],
    "smoke": [Family.odd(5), Family.middle_levels(4), Family.odd(6)],
}


@dataclass
class ConstructState:
    plan: list  # (family, two deleted colors)


def construct_setup(seed: int, size: str = "full") -> ConstructState:
    rng = random.Random(seed)
    plan = [
        (fam, tuple(sorted(rng.sample(range(1, fam.ground + 1), 2))))
        for fam in CONSTRUCT_FAMILIES[size]
    ]
    return ConstructState(plan)


def construct_pass(state: ConstructState) -> PassResult:
    res = PassResult()
    for fam, colors in state.plan:
        g = build(fam)
        s = as_color_block(colors, g.ground)
        census = classify_components(delete_colors(g, s)).counts
        res.check(census == expected_census(fam.n, len(colors), fam.kind),
                  f"{fam} minus {colors}: census {census}")
        first = serialize.graph_to_json(g)
        del g
        second = serialize.graph_to_json(serialize.graph_from_json(first))
        res.check(first == second, f"{fam}: JSON round trip not byte-identical")
        res.signature.append([
            str(fam), list(colors), sorted([list(k), v] for k, v in census.items()),
            len(first), hashlib.sha256(first.encode()).hexdigest()[:16],
        ])
    return res


# --------------------------------------------------------------- verify

VERIFY_ARGV = ["verify", "all", "--max-n", "64"]  # every suite at its cap
VERIFY_CHECKS = 93


def verify_setup(seed: int, size: str = "full") -> list:
    return list(VERIFY_ARGV)


def verify_pass(argv: list) -> PassResult:
    res = PassResult()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    text = out.getvalue()
    last = text.strip().splitlines()[-1] if text.strip() else ""
    want = f"suite all: {VERIFY_CHECKS} passed, 0 failed, 0 skipped"
    res.check(status == 0 and last == want, f"verify all: exit {status}, {last!r}")
    res.signature.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    return res


# ------------------------------------------------------------- hamilton

# Plain searches: instance -> (family, node budget).  Every instance runs
# once per tie-break seed of the pass.  odd(3) is a proof (NONE in 82
# nodes); odd(4) and middle(4) are quick finds; odd(5) mixes quick finds
# with its heavy tail (tie seed 0 exhausts any budget); middle(5) rarely
# finds; odd(6), middle(6) and odd(7) are budget-bound deep searches.
# Budgets keep the seed-dependent searches a small share of the nodes, so
# nodes_per_s depends little on which tie seeds succeed.
PLAIN_SEARCHES = {
    "odd3": (Family.odd(3), 1_000),
    "odd4": (Family.odd(4), 1_000),
    "middle4": (Family.middle_levels(4), 600),
    "odd5": (Family.odd(5), 1_000),
    "middle5": (Family.middle_levels(5), 1_500),
    "odd6": (Family.odd(6), 1_500),
    "middle6": (Family.middle_levels(6), 150),
    "odd7": (Family.odd(7), 30),
}
HAMILTON_PLAIN = {
    "full": list(PLAIN_SEARCHES),
    "probe": list(PLAIN_SEARCHES),
    "smoke": ["odd3", "odd4", "middle4"],
}

# Pipeline rounds (n, start): odd(4) takes the fallback path (odd(3) is
# non-Hamiltonian), odd(5) runs from both starts, odd(6) from odd(5).
HAMILTON_ROUNDS = {
    "full": [(4, "odd"), (5, "odd"), (5, "middle"), (6, "odd")],
    "probe": [(4, "odd"), (5, "odd"), (5, "middle"), (6, "odd")],
    "smoke": [(4, "odd")],
}

# The base search of a round stops at this many nodes: most tie seeds find
# a cycle within it and go on to lift, embed and connect.
PIPELINE_BUDGET = 1_200

TIE_SEEDS_PER_PASS = 8
# The kernel probe (see worker.py) is a hamilton pass cut to the first two
# tie seeds of its searches and rounds, so that it can run often.
PROBE_TIE_SEEDS = 2


def tie_seeds(seed: int) -> list[int]:
    """Tie-break seeds of a workload seed; seed 0 gives 0..7, so the
    default seed keeps odd(5)'s heavy tail (tie seed 0)."""
    return [seed * TIE_SEEDS_PER_PASS + j for j in range(TIE_SEEDS_PER_PASS)]


# Every run makes the same pipeline rounds, on tie seeds 0..15, whatever
# its workload seed.  A round whose base search finds a cycle costs up to
# three times one that exhausts its budget, so rounds drawn from the
# workload seed would move pipeline_s by about a tenth from seed to seed.
# Sixteen tie seeds (twice the plain searches' eight) give pipeline_s
# about a quarter of a pass, so that a run times enough rounds for a
# steady median.  Tie seed 0 keeps the heavy tail: its base search for the
# round into odd(6) exhausts the budget.
PIPELINE_TIE_SEEDS = list(range(2 * TIE_SEEDS_PER_PASS))


# Committed results: the plain searches of the default workload seed (tie
# seeds 0..7), and the pipeline rounds of every seed (0..15).  A plain search
# gives (status, nodes); a round gives (base status, base nodes, fallback
# status, fallback nodes, embedded vertices, remainder size, connectors,
# middle-vertex collisions).
EXPECTED = {
    "odd3": [("none", 82)] * 8,
    "odd4": [("found", 39), ("found", 58), ("found", 557), ("found", 41),
             ("found", 211), ("found", 222), ("found", 48), ("found", 198)],
    "middle4": [("found", 237), ("exhausted-budget", 601),
                ("exhausted-budget", 601), ("found", 138), ("found", 82),
                ("found", 139), ("exhausted-budget", 601),
                ("exhausted-budget", 601)],
    "odd5": [("exhausted-budget", 1001), ("found", 626), ("found", 879),
             ("found", 921), ("exhausted-budget", 1001), ("found", 196),
             ("found", 568), ("exhausted-budget", 1001)],
    "middle5": [("exhausted-budget", 1501)] * 8,
    "odd6": [("exhausted-budget", 1501)] * 8,
    "middle6": [("exhausted-budget", 151)] * 8,
    "odd7": [("exhausted-budget", 31)] * 8,
    "pipeline-4-odd": [("none", 82, "found", 39, 0, 0, 0, 0),
                       ("none", 82, "found", 58, 0, 0, 0, 0),
                       ("none", 82, "found", 557, 0, 0, 0, 0),
                       ("none", 82, "found", 41, 0, 0, 0, 0),
                       ("none", 82, "found", 211, 0, 0, 0, 0),
                       ("none", 82, "found", 222, 0, 0, 0, 0),
                       ("none", 82, "found", 48, 0, 0, 0, 0),
                       ("none", 82, "found", 198, 0, 0, 0, 0),
                       ("none", 82, "found", 58, 0, 0, 0, 0),
                       ("none", 82, "found", 76, 0, 0, 0, 0),
                       ("none", 82, "found", 47, 0, 0, 0, 0),
                       ("none", 82, "found", 77, 0, 0, 0, 0),
                       ("none", 82, "found", 98, 0, 0, 0, 0),
                       ("none", 82, "found", 222, 0, 0, 0, 0),
                       ("none", 82, "found", 97, 0, 0, 0, 0),
                       ("none", 82, "found", 60, 0, 0, 0, 0)],
    "pipeline-5-odd": [("found", 39, None, None, 70, 56, 70, 35),
                       ("found", 58, None, None, 70, 56, 70, 35),
                       ("found", 557, None, None, 70, 56, 70, 35),
                       ("found", 41, None, None, 70, 56, 70, 35),
                       ("found", 211, None, None, 70, 56, 70, 35),
                       ("found", 222, None, None, 70, 56, 70, 35),
                       ("found", 48, None, None, 70, 56, 70, 35),
                       ("found", 198, None, None, 70, 56, 70, 35),
                       ("found", 58, None, None, 70, 56, 70, 35),
                       ("found", 76, None, None, 70, 56, 70, 35),
                       ("found", 47, None, None, 70, 56, 70, 35),
                       ("found", 77, None, None, 70, 56, 70, 35),
                       ("found", 98, None, None, 70, 56, 70, 35),
                       ("found", 222, None, None, 70, 56, 70, 35),
                       ("found", 97, None, None, 70, 56, 70, 35),
                       ("found", 60, None, None, 70, 56, 70, 35)],
    "pipeline-5-middle": [("found", 237, None, None, 70, 56, 70, 35),
                          ("found", 1017, None, None, 70, 56, 70, 35),
                          ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                          ("found", 138, None, None, 70, 56, 70, 35),
                          ("found", 82, None, None, 70, 56, 70, 35),
                          ("found", 139, None, None, 70, 56, 70, 35),
                          ("found", 982, None, None, 70, 56, 70, 35),
                          ("found", 1101, None, None, 70, 56, 70, 35),
                          ("found", 494, None, None, 70, 56, 70, 35),
                          ("found", 627, None, None, 70, 56, 70, 35),
                          ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                          ("found", 453, None, None, 70, 56, 70, 35),
                          ("found", 88, None, None, 70, 56, 70, 35),
                          ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                          ("found", 195, None, None, 70, 56, 70, 35),
                          ("found", 712, None, None, 70, 56, 70, 35)],
    "pipeline-6-odd": [("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("found", 626, None, None, 252, 210, 252, 126),
                       ("found", 879, None, None, 252, 210, 252, 126),
                       ("found", 921, None, None, 252, 210, 252, 126),
                       ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("found", 196, None, None, 252, 210, 252, 126),
                       ("found", 568, None, None, 252, 210, 252, 126),
                       ("found", 1081, None, None, 252, 210, 252, 126),
                       ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("found", 995, None, None, 252, 210, 252, 126),
                       ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("exhausted-budget", 1201, None, None, 0, 0, 0, 0),
                       ("found", 343, None, None, 252, 210, 252, 126)],
}


@dataclass
class HamiltonState:
    seeds: list  # tie-break seeds of the plain searches
    plain: list  # (instance, graph, budget)
    rounds: list
    round_seeds: list  # tie-break seeds of the pipeline rounds


def hamilton_setup(seed: int, size: str = "full") -> HamiltonState:
    plain = [(name, build(PLAIN_SEARCHES[name][0]), PLAIN_SEARCHES[name][1])
             for name in HAMILTON_PLAIN[size]]
    ties = PROBE_TIE_SEEDS if size == "probe" else None  # None: all of them
    return HamiltonState(tie_seeds(seed)[:ties], plain,
                         list(HAMILTON_ROUNDS[size]), PIPELINE_TIE_SEEDS[:ties])


def _gate_expected(res: PassResult, name: str, tie: int, got: tuple,
                   expected: dict):
    table = expected.get(name, [])
    if tie < len(table):
        res.check(got == table[tie],
                  f"{name} tie {tie}: got {got}, committed {table[tie]}")


def hamilton_pass(state: HamiltonState, expected: dict = EXPECTED,
                  clock=time.perf_counter) -> PassResult:
    """One pass; search_s and pipeline_s are timed with clock."""
    res = PassResult()
    for name, g, budget in state.plain:
        for tie in state.seeds:
            b = ham.SearchBudget(max_nodes=budget, max_seconds=NEVER_BINDS_S, seed=tie)
            t0 = clock()
            r = ham.find_hamiltonian_cycle(g, b)
            res.search_s += clock() - t0
            res.nodes += r.nodes
            res.check(r.status != ham.FOUND or ham.verify_cycle(g, r.cycle),
                      f"{name} tie {tie}: FOUND cycle fails verify_cycle")
            got = (r.status, r.nodes)
            _gate_expected(res, name, tie, got, expected)
            res.signature.append([name, tie, *got])
    for n, start in state.rounds:
        for tie in state.round_seeds:
            b = ham.SearchBudget(max_nodes=PIPELINE_BUDGET,
                                 max_seconds=NEVER_BINDS_S, seed=tie)
            t0 = clock()
            rep = ham.recursion_pipeline(n, b, start=start)
            res.pipeline_s += clock() - t0
            key = f"pipeline-{n}-{start}"
            res.check(_round_ok(rep), f"{key} tie {tie}: inconsistent report")
            fb = rep.fallback_search
            got = (
                rep.base_search.status, rep.base_search.nodes,
                fb.status if fb else None, fb.nodes if fb else None,
                rep.embedded_vertex_count, rep.remainder_size,
                rep.connector_count, rep.middle_vertex_collisions,
            )
            _gate_expected(res, key, tie, got, expected)
            res.signature.append([key, tie, *got])
    return res


def _round_ok(rep) -> bool:
    """Facts every pipeline report must satisfy whatever the seed."""
    for search in (rep.base_search, rep.fallback_search):
        if search is not None and search.found and not ham.verify_cycle(
            search.cycle.graph, search.cycle
        ):
            return False
    if rep.embedded_vertex_count:
        n = rep.n
        return (rep.embedded_vertex_count == 2 * binomial(2 * n - 3, n - 2)
                and rep.remainder_size == binomial(2 * (n - 1), n - 2))
    return True


def kernel_parity(state: HamiltonState) -> PassResult:
    """Run every plain search once through both kernels; statuses and node
    counts must agree.  Attempts nothing when no compiled kernel imports."""
    res = PassResult()
    try:
        from kneserlab import _hamcore
    except ImportError:
        return res
    from kneserlab import _hamcore_py

    for name, g, budget in state.plain:
        for tie in state.seeds:
            b = ham.SearchBudget(max_nodes=budget, max_seconds=NEVER_BINDS_S, seed=tie)
            py = ham.find_hamiltonian_cycle(g, b, kernel=_hamcore_py)
            cy = ham.find_hamiltonian_cycle(g, b, kernel=_hamcore)
            res.check((py.status, py.nodes) == (cy.status, cy.nodes),
                      f"{name} tie {tie}: python {py.status}/{py.nodes},"
                      f" compiled {cy.status}/{cy.nodes}")
    return res


# ------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    # False for workloads that never search: their nodes_per_s and
    # pipeline_s come from the kernel probe.
    searches: bool


WORKLOADS = {
    "construct": Workload(construct_setup, construct_pass, searches=False),
    "verify": Workload(verify_setup, verify_pass, searches=False),
    "hamilton": Workload(hamilton_setup, hamilton_pass, searches=True),
}
