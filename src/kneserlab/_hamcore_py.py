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

The search is exhaustive, so a DEAD result is a proof that no Hamiltonian
cycle exists.
"""

from __future__ import annotations

import time

KERNEL_NAME = "python"

FOUND = 0
DEAD = 1  # search space exhausted: no Hamiltonian cycle
BUDGET = 2  # node or time budget exceeded

_CLOCK_STRIDE = 4096


def solve(
    neighbors: list[list[int]],
    start: int,
    rank: list[int],
    max_nodes: int,
    max_seconds: float,
) -> tuple[int, list[int], int]:
    """Search for a Hamiltonian cycle through `start`.

    Returns (status, cycle_vertices, nodes_expanded); the cycle list is
    empty unless status is FOUND, in which case it starts at `start` and
    the closing edge back to it is implicit.
    """
    nv = len(neighbors)
    if nv == 0:
        return DEAD, [], 0
    if nv == 1:
        return FOUND, [start], 0
    adj_row = [bytearray(nv) for _ in range(nv)]
    for v, row in enumerate(neighbors):
        for w in row:
            adj_row[v][w] = 1

    visited = bytearray(nv)
    free_deg = [len(neighbors[v]) for v in range(nv)]
    path = [start]
    visited[start] = 1
    for w in neighbors[start]:
        free_deg[w] -= 1

    nodes = 0
    deadline = time.monotonic() + max_seconds
    start_row = adj_row[start]
    queue = [0] * nv  # reusable BFS scratch
    reach = bytearray(nv)

    def connected_from(tip: int) -> bool:
        """All unvisited vertices reachable from tip through unvisited."""
        for i in range(nv):
            reach[i] = 0
        head = tail = 0
        for w in neighbors[tip]:
            if not visited[w] and not reach[w]:
                reach[w] = 1
                queue[tail] = w
                tail += 1
        want = nv - len(path)
        got = tail
        while head < tail:
            x = queue[head]
            head += 1
            for y in neighbors[x]:
                if not visited[y] and not reach[y]:
                    reach[y] = 1
                    queue[tail] = y
                    tail += 1
                    got += 1
        return got == want

    def extend(tip: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            return BUDGET
        if nodes % _CLOCK_STRIDE == 0 and time.monotonic() > deadline:
            return BUDGET
        if len(path) == nv:
            return FOUND if adj_row[tip][start] else DEAD
        tip_row = adj_row[tip]

        # availability prune over all unvisited vertices, and candidate
        # collection (unvisited neighbors of the tip) in one sweep
        cands = []
        forced = None
        forced_conflict = False
        for x in range(nv):
            if visited[x]:
                continue
            avail = free_deg[x] + (1 if start_row[x] else 0)
            if tip_row[x]:
                if avail < 1:  # only usable edge is the tip itself
                    return DEAD
                cands.append(x)
                if avail == 1:  # tip edge is one of exactly two usable
                    if forced is not None:
                        forced_conflict = True
                    forced = x
            else:
                if avail < 2:
                    return DEAD
        if not cands:
            return DEAD
        if forced_conflict:
            return DEAD
        if forced is not None:
            cands = [forced]
        elif not connected_from(tip):
            return DEAD
        cands.sort(key=lambda x: (free_deg[x], rank[x], x))

        for w in cands:
            visited[w] = 1
            path.append(w)
            for y in neighbors[w]:
                free_deg[y] -= 1
            status = extend(w)
            if status == FOUND:
                return FOUND  # leave the completed path in place
            for y in neighbors[w]:
                free_deg[y] += 1
            path.pop()
            visited[w] = 0
            if status == BUDGET:
                return BUDGET
        return DEAD

    status = extend(start)
    return status, (list(path) if status == FOUND else []), nodes
