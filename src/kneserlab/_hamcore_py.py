"""Pure-Python Hamiltonian cycle search kernel.

The only search kernel: kneserlab.hamilton.find_hamiltonian_cycle calls
solve() as hamilton._kernel.solve, and the benchmark patches it there.
Node counts are deterministic for a given rank array and node budget.

The search is a depth-first backtrack from a fixed start vertex, run as
one loop over an explicit stack with a frame per path vertex, so its
depth is not bounded by the interpreter's recursion limit.  It has:
  * candidate ordering by fewest remaining continuations (ties broken by
    a caller-supplied rank array, then by index);
  * a degree-availability prune: every unvisited vertex must keep at
    least two usable connections (unvisited neighbors, the path tip, or
    the start vertex);
  * forced-edge handling: a candidate whose only other usable connection
    is the tip must be taken; two such candidates kill the branch;
  * a connectivity prune: at a node that has candidates and none of them
    forced, every unvisited vertex must stay reachable from the tip
    through unvisited vertices, or the node gets no children.

A node costs O(deg): one pass over the tip's unvisited neighbors takes
the tip's edge out of each one's count of usable connections and, until
the node is found dead, classifies it as a candidate, forced or stranded.
A pop walks the row again and puts back the counts of the unvisited
neighbors.  The count of a vertex on the path is left stale: nothing
reads it while the vertex is on the path, and as the path is a stack the
same neighbors are skipped when a vertex is pushed and when it is popped,
so the count is right again once the vertex leaves the path.  The budgets
are read only at the node counts where one can run out: past max_nodes,
and the clock every _CLOCK_STRIDE nodes.

The connectivity check is deferred: it runs as one batched check per dead
end (plus a binary search when that check fails), not once per node, and
node counts are those of a search that checks every node when it enters
it.

  * Below the root, every unvisited vertex x that is not a neighbor of
    the tip keeps free_deg[x] >= 2 usable connections (free_deg[x]
    counts its unvisited neighbors, and the start vertex if adjacent).
    The last path vertex that took one of them was the tip at its own
    node and scanned x: it killed the branch if x had none left, or took
    x next, as a forced candidate, if x had one.  So a node scans only
    the tip's neighbors.
    The non-neighbors are checked once, at the root, where a vertex's
    usable connections number its degree: `starved` is set when a vertex
    that is neither the start nor one of its neighbors has degree < 2.
  * The check at the node of path index v asks whether G[W_v ∪ {path[v]}]
    is connected, W_v being the unvisited set at that node.  Lemma: if it
    holds at v, it holds at every ancestor a, since W_a ∪ {path[a]} =
    W_v ∪ path[a..v] and path[a..v] hangs off path[v].  So on any
    root-to-leaf path the check fails at the shallowest failing node and
    at every node below it.
  * A node that would run the check is marked pending instead, and the
    search descends into its first candidate unchecked.  `pending` holds
    the path indices of the unchecked nodes, shallowest first; every
    index up to `verified` is known to pass.  Every dead end resolves and
    empties `pending`, and the search pops only after a dead end, so
    `pending` is empty whenever it pops.
  * Resolution: at a dead end (a node with no children), the deepest
    pending node u gets one check; if it passes, by the lemma so does
    every node above it.  If it fails, a binary search over `pending`
    finds the shallowest failing node f.  Before EXHAUSTED_BUDGET, for
    the node budget or the clock, everything pending is resolved the
    same way.  FOUND needs no resolution: the check holds at a leaf that
    covers every vertex, so by the lemma at every node above it.
  * Rollback: f would have been a node with no children, so the search
    pops back to f, which becomes the dead end, and takes out of `nodes`
    the nodes below it.  Those are path[f + 1:], as the search has only
    descended since it entered f.  A rollback lowers `nodes` and the
    search goes on, so every count it returns counts the same nodes as a
    search that checks every node when it enters it; the next budget
    read is taken from the lowered count, so the clock is read at the
    same counts too.
  * The check at u reads path[u + 1:] as unvisited.  It is anchored at
    a = `verified`: G[W_a ∪ {path[a]}] is G[W_u ∪ R ∪ {path[u]}] with
    R = path[a:u], so every component of G[W_u ∪ {path[u]}] holds path[u]
    or a W_u-neighbor of R, and G[W_u ∪ {path[u]}] is connected iff a
    search from path[u] reaches all those neighbors.  The search runs on
    int bit masks, bit y of masks[x] being set iff y is a neighbor of x:
    each level ORs the masks of the frontier's vertices and keeps what is
    in W_u and not yet reached.  It passes as soon as every W_u-neighbor
    of R is reached, and fails when the frontier runs out first.  With
    nothing verified yet it must reach all of W_u, so solve() stays exact
    on any input, disconnected ones included.
  * W_u is the complement of pm[u + 1], pm[i] being the mask of path[:i].
    `verified` falls on a pop or a rollback to below every path index it
    changes, so path[:a + 1] is as it was when pm[:a + 2] was made: a
    check keeps those prefix masks and extends them over path[a + 1:u + 1]
    only.

The search is exhaustive, so a NONE result is a proof that no Hamiltonian
cycle exists.
"""

from __future__ import annotations

import time
from typing import Sequence

KERNEL_NAME = "python"

FOUND = "found"
NONE = "none"  # search space exhausted: proof of non-Hamiltonicity
EXHAUSTED_BUDGET = "exhausted-budget"  # node or time budget exceeded

_CLOCK_STRIDE = 4096


def _connectivity_check(masks: Sequence[int], path: list):
    """The connectivity check over a search's path, which it shares, as a
    breadth-first search on int bit masks (bit y of masks[x] is set iff
    y is a neighbor of x).  pm[i] is the mask of path[:i], kept from check
    to check."""
    full = (1 << len(masks)) - 1
    pm = [0]

    def holds_at(u: int, anchor: int) -> bool:
        """Whether the check holds at the node of path index u, given that
        it holds at path index anchor < u (-1: at none); path[u + 1:] is
        read as unvisited."""
        # path[:anchor + 1] is as it was when pm[:anchor + 2] was made
        del pm[anchor + 2:]
        reached = pm[-1]
        for x in path[len(pm) - 1:u + 1]:
            reached |= 1 << x
            pm.append(reached)
        unreached = full ^ reached  # W_u
        if anchor < 0:
            seeds = unreached
        else:
            seeds = 0
            for x in path[anchor:u]:
                seeds |= masks[x]
        frontier = masks[path[u]] & unreached
        while True:
            unreached ^= frontier
            if not seeds & unreached:
                return True
            if not frontier:
                return False
            step = 0
            while frontier:
                x = frontier.bit_length() - 1
                step |= masks[x]
                frontier ^= 1 << x
            frontier = step & unreached

    return holds_at


def _resolve(holds_at, pending: list, verified: int) -> tuple[int, int]:
    """Check the pending path indices (shallowest first, all deeper than
    verified) and empty the list.  Returns the index of the shallowest
    failing one, or -1 if all pass, and the new verified index."""
    deepest = pending[-1]
    if holds_at(deepest, verified):
        pending.clear()
        return -1, deepest
    lo, hi = 0, len(pending) - 1
    while lo < hi:  # pending[hi] fails, and the failures are a suffix
        mid = (lo + hi) // 2
        if holds_at(pending[mid], verified):
            verified = pending[mid]
            lo = mid + 1
        else:
            hi = mid
    fail = pending[lo]
    pending.clear()
    return fail, verified


def _next_read(nodes: int, max_nodes: int) -> int:
    """The first node count after `nodes` at which a budget is read: the
    node budget past max_nodes, the clock at every _CLOCK_STRIDE nodes."""
    return min(max(nodes, max_nodes) + 1,
               (nodes // _CLOCK_STRIDE + 1) * _CLOCK_STRIDE)


def solve(
    neighbors: Sequence[Sequence[int]],
    start: int,
    rank: Sequence[int],
    max_nodes: int,
    max_seconds: float,
    masks: Sequence[int] | None = None,
) -> tuple[str, list[int], int]:
    """Search for a Hamiltonian cycle through `start`.

    Returns (status, cycle_vertices, nodes_expanded); the cycle list is
    empty unless status is FOUND, in which case it starts at `start` and
    the closing edge back to it is implicit.  `neighbors` is only read.
    Bit y of masks[x] is set iff y is in neighbors[x]; the masks are
    derived from `neighbors` when not given.  Two vertices have no cycle:
    it would reuse their one edge.
    """
    nv = len(neighbors)
    if nv in (0, 2):
        return NONE, [], 0
    if nv == 1:
        return FOUND, [start], 0
    # free_deg[x] counts x's unvisited neighbors, plus one if x is
    # adjacent to the start; an on-path vertex's count is stale until it
    # is popped
    free_deg = list(map(len, neighbors))
    on_start = bytearray(nv)
    for w in neighbors[start]:
        on_start[w] = 1
        free_deg[w] += 1
    # at the root a vertex's usable connections number its degree
    starved = min(map(len, neighbors)) < 2 and any(
        len(row) < 2
        for x, row in enumerate(neighbors)
        if x != start and not on_start[x]
    )

    # candidates by fewest unvisited neighbors, then rank, then index; the
    # tables are bound as defaults so that solve's own reads stay local
    def key(x, free_deg=free_deg, on_start=on_start, rank=rank):
        return free_deg[x] - on_start[x], rank[x], x

    visited = bytearray(nv)
    path = []
    if masks is None:
        masks = [sum(map((1).__lshift__, row)) for row in neighbors]
    holds_at = _connectivity_check(masks, path)
    # frames[i] iterates over path[i]'s untried candidates; the tip has no
    # frame until it is expanded
    frames = []
    no_more = iter(())
    pending = []  # path indices of unchecked nodes, shallowest first
    verified = -1  # the check holds at every path index <= verified
    nodes = 0
    next_read = _next_read(0, max_nodes)
    out_of_budget = False
    deadline = time.monotonic() + max_seconds
    tip = start
    # the tip gets no children: a neighbor is stranded or a second one
    # forced, a budget ran out, or, at the root, a vertex is starved
    dead = starved
    while True:
        visited[tip] = 1
        path.append(tip)
        nodes += 1
        # one pass over the tip's unvisited neighbors takes the tip's
        # edge out of their counts and, until the node is dead, runs the
        # availability prune and collects candidates; below the root no
        # non-neighbor can be starved
        cands = []
        forced = -1
        for x in neighbors[tip]:
            if visited[x]:
                continue
            avail = free_deg[x] - 1
            free_deg[x] = avail
            if dead:
                continue
            if avail > 1:
                cands.append(x)
            elif avail == 0 or forced >= 0:
                dead = True  # x is stranded, or a second one is forced
            else:  # tip edge is one of exactly two usable
                forced = x
        if nodes >= next_read:
            out_of_budget = nodes > max_nodes or time.monotonic() > deadline
            next_read = _next_read(nodes, max_nodes)
            dead = dead or out_of_budget
        if not dead:
            if forced >= 0:
                frames.append(no_more)
                tip = forced
                continue
            if cands:
                pending.append(len(path) - 1)
                if len(cands) > 1:
                    cands.sort(key=key)
                untried = iter(cands)
                frames.append(untried)
                tip = next(untried)
                continue
            if len(path) == nv and on_start[tip]:
                return FOUND, path, nodes
        # the tip is a dead end, or the budget ran out: resolve what is
        # pending first
        fail = -1
        if pending:
            fail, verified = _resolve(holds_at, pending, verified)
        if fail >= 0:
            # the shallowest failing node gets no children: pop back to
            # it, uncount the nodes below it, and make it the dead end
            nodes -= len(path) - 1 - fail
            next_read = _next_read(nodes, max_nodes)
            out_of_budget = False
            while len(path) > fail + 1:
                w = path.pop()
                visited[w] = 0
                for y in neighbors[w]:
                    if not visited[y]:
                        free_deg[y] += 1
            del frames[fail:]
        elif out_of_budget:
            return EXHAUSTED_BUDGET, [], nodes
        # backtrack past the dead end and exhausted frames to the next
        # untried candidate
        dead = False
        while True:
            if not frames:
                return NONE, [], nodes
            w = path.pop()
            visited[w] = 0
            for y in neighbors[w]:
                if not visited[y]:
                    free_deg[y] += 1
            if verified == len(path):
                verified -= 1
            tip = next(frames[-1], -1)
            if tip >= 0:
                break
            frames.pop()
