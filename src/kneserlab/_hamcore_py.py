"""Pure-Python Hamiltonian cycle search kernel.

The only search kernel: kneserlab.hamilton.find_hamiltonian_cycle calls
solve() as hamilton._kernel.solve, and the benchmark patches it there.
Node counts are deterministic for a given rank array and node budget.

The search is a depth-first backtrack from a fixed start vertex with:
  * candidate ordering by fewest remaining continuations (ties broken by
    a caller-supplied rank array, then by index);
  * a degree-availability prune: every unvisited vertex must keep at
    least two usable connections (unvisited neighbors, the path tip, or
    the start vertex);
  * forced-edge handling: a candidate whose only other usable connection
    is the tip must be taken; two such candidates kill the branch;
  * a connectivity prune: every unvisited vertex must stay reachable from
    the tip through unvisited vertices.

A node costs O(deg) plus a local connectivity check, kept so by two
invariants:

  * Below the root, every unvisited vertex x that is not a neighbor of
    the tip keeps free_deg[x] + on_start[x] >= 2 usable connections
    (free_deg[x] counts its unvisited neighbors).  The last path vertex
    that took one of them was the tip at its own node and scanned x: it
    killed the branch if x had none left, or took x next, as a forced
    candidate, if x had one.  So a node scans only the tip's neighbors.
    The non-neighbors are checked once, at the root, where a vertex's
    usable connections number its degree: `starved` is set when a vertex
    that is neither the start nor one of its neighbors has degree < 2.
  * An anchor is a node whose connectivity check ran and passed; its
    path index is passed down the recursion, and forced nodes, which
    skip the check, pass on the one they received.  At anchor index a,
    G[U ∪ {path[a]}] was connected, U being the unvisited set then.  If
    W is the unvisited set now and R = path[a:-1], that graph is
    G[W ∪ R ∪ {tip}], so every component of G[W ∪ {tip}] holds the tip
    or a W-neighbor of R, and G[W ∪ {tip}] is connected iff a
    multi-source search from those vertices joins them all.  The search
    stops as soon as its fronts have merged into one, or one of them
    runs out.  Nodes with no anchor (the root, or a forced chain below
    it) fall back to a full search from the tip, so solve() stays exact
    on any input, disconnected ones included.

The search is exhaustive, so a DEAD result is a proof that no Hamiltonian
cycle exists.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

KERNEL_NAME = "python"

FOUND = 0
DEAD = 1  # search space exhausted: no Hamiltonian cycle
BUDGET = 2  # node or time budget exceeded

_CLOCK_STRIDE = 4096


def solve(
    neighbors: Sequence[Sequence[int]],
    start: int,
    rank: Sequence[int],
    max_nodes: int,
    max_seconds: float,
) -> tuple[int, list[int], int]:
    """Search for a Hamiltonian cycle through `start`.

    Returns (status, cycle_vertices, nodes_expanded); the cycle list is
    empty unless status is FOUND, in which case it starts at `start` and
    the closing edge back to it is implicit.  `neighbors` is only read.
    """
    nv = len(neighbors)
    if nv == 0:
        return DEAD, [], 0
    if nv == 1:
        return FOUND, [start], 0
    on_start = bytearray(nv)
    for w in neighbors[start]:
        on_start[w] = 1

    visited = bytearray(nv)
    free_deg = [len(row) for row in neighbors]
    path = [start]
    visited[start] = 1
    for w in neighbors[start]:
        free_deg[w] -= 1
    # at the root a vertex's usable connections number its degree
    starved = any(
        len(row) < 2
        for x, row in enumerate(neighbors)
        if x != start and not on_start[x]
    )

    nodes = 0
    deadline = time.monotonic() + max_seconds
    queue = [0] * nv  # reusable search scratch
    stamp = [0] * nv  # stamp[x] == epoch: x reached by the current search
    front = [0] * nv  # front label of a reached vertex
    epoch = 0

    def connected_from(tip: int) -> bool:
        """All unvisited vertices reachable from tip through unvisited."""
        nonlocal epoch
        epoch += 1
        tail = 0
        for w in neighbors[tip]:
            if not visited[w] and stamp[w] != epoch:
                stamp[w] = epoch
                queue[tail] = w
                tail += 1
        head = 0
        while head < tail:
            for y in neighbors[queue[head]]:
                if not visited[y] and stamp[y] != epoch:
                    stamp[y] = epoch
                    queue[tail] = y
                    tail += 1
            head += 1
        return tail == nv - len(path)

    def connected_since(anchor: int) -> bool:
        """All unvisited vertices reachable from the tip through unvisited,
        given that this held at the anchor's node."""
        nonlocal epoch
        epoch += 1
        # front 0 grows from the tip; every W-neighbor of path[anchor:-1]
        # not yet reached starts a front of its own
        parent = [0]
        pending = [0]  # queued, unexpanded vertices per front root
        tail = 0
        for w in neighbors[path[-1]]:
            if not visited[w] and stamp[w] != epoch:
                stamp[w] = epoch
                front[w] = 0
                queue[tail] = w
                tail += 1
        pending[0] = tail
        for i in range(anchor, len(path) - 1):
            for w in neighbors[path[i]]:
                if not visited[w] and stamp[w] != epoch:
                    stamp[w] = epoch
                    front[w] = len(parent)
                    parent.append(len(parent))
                    pending.append(1)
                    queue[tail] = w
                    tail += 1
        groups = len(parent)
        head = 0
        while groups > 1:
            x = queue[head]
            head += 1
            fx = front[x]
            while parent[fx] != fx:
                fx = parent[fx]
            for y in neighbors[x]:
                if visited[y]:
                    continue
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    front[y] = fx
                    pending[fx] += 1
                    queue[tail] = y
                    tail += 1
                    continue
                fy = front[y]
                while parent[fy] != fy:
                    fy = parent[fy]
                if fy != fx:  # two fronts meet: one group fewer
                    parent[fy] = fx
                    pending[fx] += pending[fy]
                    groups -= 1
                    if groups == 1:
                        return True
            pending[fx] -= 1
            if not pending[fx]:  # this group's component is closed off
                return False
        return True

    def extend(tip: int, anchor: Optional[int]) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            return BUDGET
        if nodes % _CLOCK_STRIDE == 0 and time.monotonic() > deadline:
            return BUDGET
        if len(path) == nv:
            return FOUND if on_start[tip] else DEAD
        if starved and len(path) == 1:
            return DEAD

        # availability prune and candidate collection over the tip's
        # neighbors; below the root no non-neighbor can be starved
        cands = []
        forced = None
        n_forced = 0
        for x in neighbors[tip]:
            if visited[x]:
                continue
            avail = free_deg[x] + on_start[x]
            if avail < 1:  # only usable edge is the tip itself
                return DEAD
            cands.append(x)
            if avail == 1:  # tip edge is one of exactly two usable
                forced = x
                n_forced += 1
        if not cands or n_forced > 1:
            return DEAD
        if forced is not None:
            cands = [forced]
        elif not (
            connected_from(tip) if anchor is None else connected_since(anchor)
        ):
            return DEAD
        else:
            anchor = len(path) - 1
        cands.sort(key=lambda x: (free_deg[x], rank[x], x))

        for w in cands:
            visited[w] = 1
            path.append(w)
            for y in neighbors[w]:
                free_deg[y] -= 1
            status = extend(w, anchor)
            if status == FOUND:
                return FOUND  # leave the completed path in place
            for y in neighbors[w]:
                free_deg[y] += 1
            path.pop()
            visited[w] = 0
            if status == BUDGET:
                return BUDGET
        return DEAD

    status = extend(start, None)
    return status, (list(path) if status == FOUND else []), nodes
