"""The two enumeration kernels of the package, on plain integers.

`sec_violations` is the subset sweep behind the feasibility checker
(lazy SEC separation is a min cut, in `combcert.lp`).
`hamiltonian_cycles` enumerates the tours of a balanced bipartite graph,
from an (a, b) -> edge index table straight to tuples of edge indices.
Inputs are plain ints, so results are exact at any precision.  Callers
reach both as attributes of this module, which is where layer tracing
wraps them.
"""

from __future__ import annotations

from itertools import combinations


def sec_violations(
    num_vertices: int,
    edge_masks: list[int],
    weights: list[int],
    denom: int,
    lo: int,
    hi: int,
) -> list[tuple[int, int]]:
    """Scan all vertex subsets S with lo <= |S| <= hi.

    Edge e (vertex bitmask `edge_masks[i]`, scaled integer weight
    `weights[i]`) counts toward S when both endpoints lie in S.  A subset
    violates its subtour bound when the scaled internal weight exceeds
    denom * (|S| - 1).  Returns the (subset_mask, scaled_weight) pairs of
    the violated subsets, sorted by (popcount, mask).
    """
    pairs = [(m, w) for m, w in zip(edge_masks, weights) if w]
    out = []
    for size in range(lo, hi + 1):
        limit = denom * (size - 1)
        for combo in combinations(range(num_vertices), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            total = 0
            for m, w in pairs:
                if m & mask == m:
                    total += w
            if total > limit:
                out.append((mask, total))
    out.sort(key=lambda item: (bin(item[0]).count("1"), item[0]))
    return out


def hamiltonian_cycles(
    n: int, position: list[list[int]]
) -> list[tuple[int, ...]]:
    """Canonical Hamiltonian cycles of a balanced bipartite graph.

    `position[a][b]` is the index of the edge between class-1 vertex a and
    class-2 vertex b, or -1 when they are not joined; the caller passes the
    indices into ``sorted(instance.edges)``.  A cycle (a_0 = 0, b_0, a_1,
    b_1, ..., a_{n-1}, b_{n-1}) is returned as the tuple of its 2n edge
    indices in tour order: entry 2k is the edge a_k b_k and entry 2k + 1
    the edge b_k a_{k+1}, the last one closing back to a_0.  Each
    undirected cycle appears exactly once, in the direction with
    b_0 < b_{n-1}, and the list is in lexicographic order of the vertex
    sequences.

    One depth-first search in a single frame, on an explicit stack of
    candidate bitmasks.  The edge-index path is updated as each vertex is
    placed, so a cycle costs one ``tuple(path)``.  Two cuts skip subtrees
    that hold no canonical cycle: b_{n-1} must be a neighbour of a_0 above
    b_0 (the set `hi`), so the last unplaced vertex of `hi` is never placed
    before the end; and the final a and b are forced, so the search stops
    at b_{n-2}.
    """
    if n < 2:
        return []
    if n == 2:
        tour = (position[0][0], position[1][0], position[1][1], position[0][1])
        return [tour] if min(tour) >= 0 else []
    adj12 = [0] * n  # class-1 vertex -> bitmask of its class-2 neighbours
    adj21 = [0] * n  # class-2 vertex -> bitmask of its class-1 neighbours
    for a, row in enumerate(position):
        for b, k in enumerate(row):
            if k >= 0:
                adj12[a] |= 1 << b
                adj21[b] |= 1 << a
    full = (1 << n) - 1
    top = 2 * n - 3  # depth of b_{n-2}, the last free choice
    row0 = position[0]
    seq = [0] * top  # seq[d]: the vertex placed at depth d
    used = [0] * top  # used[d]: bitmask of seq[d]'s class placed by depth d
    cands = [0] * (top + 1)  # cands[d]: candidates at depth d not yet tried
    path = [0] * (2 * n)
    used[0] = 1
    out = []
    mask0 = adj12[0]
    while mask0:
        low0 = mask0 & -mask0
        mask0 ^= low0
        hi = adj12[0] & ~((low0 << 1) - 1)
        if not hi:
            break  # hi only shrinks as b_0 grows
        b0 = low0.bit_length() - 1
        seq[1] = b0
        used[1] = low0
        path[0] = row0[b0]
        cands[2] = adj21[b0] & ~1
        d = 2
        while d > 1:
            mask = cands[d]
            if not mask:
                d -= 1
                continue
            low = mask & -mask
            cands[d] = mask ^ low
            v = low.bit_length() - 1
            if d & 1:  # class-2 vertex v after class-1 vertex seq[d - 1]
                path[d - 1] = position[seq[d - 1]][v]
                placed = used[d - 2] | low
                if d == top:
                    # The one unplaced b lies in hi, and v meets the last a.
                    b = (full & ~placed).bit_length() - 1
                    k = last_row[b]
                    if k >= 0:
                        path[d] = last_row[v]
                        path[d + 1] = k
                        path[d + 2] = row0[b]
                        out.append(tuple(path))
                    continue
                used[d] = placed
                seq[d] = v
                d += 1
                cands[d] = adj21[v] & ~used[d - 2]
            else:  # class-1 vertex v after class-2 vertex seq[d - 1]
                path[d - 1] = position[v][seq[d - 1]]
                used[d] = used[d - 2] | low
                seq[d] = v
                d += 1
                c = adj12[v] & ~used[d - 2]
                rest = hi & ~used[d - 2]
                if not rest & (rest - 1):  # keep the last of hi for b_{n-1}
                    c &= ~rest
                if d == top:
                    a = (full & ~used[d - 1]).bit_length() - 1
                    last_row = position[a]
                    c &= adj12[a]
                cands[d] = c
    return out
