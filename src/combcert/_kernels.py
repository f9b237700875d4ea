"""The two enumeration kernels of the package, on plain integers.

`sec_violations` is the subset sweep behind the feasibility checker
(lazy SEC separation is a min cut, in `combcert.lp`).
`hamiltonian_cycles` enumerates the tours of a balanced bipartite graph.
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
    n: int, adj12: list[int], adj21: list[int]
) -> list[tuple[int, ...]]:
    """Canonical Hamiltonian cycles of a balanced bipartite graph.

    adj12[i] is the bitmask of class-2 neighbours of class-1 vertex i;
    adj21[j] likewise for class-2 vertex j.  Returns alternating index
    sequences (a0=0, b0, a1, b1, ..., b_{n-1}); each undirected cycle
    appears exactly once, in the direction with b0 < b_{n-1}.
    """
    if n < 2:
        return []
    seq = [0] * (2 * n)

    def extend(depth: int, used1: int, used2: int):
        # Even depth: place a class-2 vertex after seq[depth - 1] (class 1).
        if depth == 2 * n - 1:
            last_candidates = adj12[seq[depth - 1]] & ~used2 & adj21_back
            b = 0
            mask = last_candidates
            while mask:
                low = mask & -mask
                b = low.bit_length() - 1
                if seq[1] < b:
                    seq[depth] = b
                    yield tuple(seq)
                mask ^= low
            return
        if depth % 2 == 1:
            candidates = adj12[seq[depth - 1]] & ~used2
            mask = candidates
            while mask:
                low = mask & -mask
                b = low.bit_length() - 1
                seq[depth] = b
                yield from extend(depth + 1, used1, used2 | low)
                mask ^= low
        else:
            candidates = adj21[seq[depth - 1]] & ~used1
            mask = candidates
            while mask:
                low = mask & -mask
                a = low.bit_length() - 1
                seq[depth] = a
                yield from extend(depth + 1, used1 | low, used2)
                mask ^= low

    # Precompute which class-2 vertices can close the cycle back to vertex 0.
    adj21_back = 0
    for j in range(n):
        if adj21[j] & 1:
            adj21_back |= 1 << j
    return list(extend(1, 1, 0))
