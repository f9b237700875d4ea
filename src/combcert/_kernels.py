"""The two kernels of the package, on plain integers: subtour cuts and tours.

Subtour cuts.  A point's support arrives as `constraints.scan_inputs`
gives it: per edge of nonzero weight, its vertex bitmask and its weight
times D, the common denominator.  With d_v the weighted degree of v,

    f(S) = sum over v in S of (2D - D d_v)  +  D x(delta(S))
         = 2D (|S| - x(E(S))),

so S violates its subtour row exactly when f(S) < 2D.  f(S) is, up to
one constant, the capacity of the cut around S in the network
`_network` builds: each support edge carries D x_e both ways, and each
vertex v has an arc of capacity 2D - D d_v to a sink t, or, where that
is negative (degree above 2), an arc of the excess from a source s.
The source arcs add their total to every cut, the shift.  One max-flow
routine, `_min_cut`, serves both cut kernels:

  `most_violated_set`  lazy separation: a set of least f, by 2(N-1) flows
  `violated_sets`      every set with f(S) < 2D and 3 <= |S| <= N - 1,
                       by branching on min cuts

Tours.  `hamiltonian_cycles` enumerates the tours of a balanced
bipartite graph by a recursive depth-first search, from an (a, b) ->
edge index table straight to tuples of edge indices.

Inputs are plain ints, so results are exact at any precision.  Callers
reach the kernels as attributes of this module, which is where layer
tracing wraps them.
"""

from __future__ import annotations

from .errors import CombcertError


def _network(
    num_vertices: int, edge_masks: list[int], weights: list[int], denom: int
) -> tuple:
    """The cut network of f for the weights clipped at 0, built once per point.

    Returns (adjacent, to_sink, from_source, excess): `adjacent[u][v]` is
    the capacity of edge uv in each direction, `to_sink[v]` and
    `from_source[v]` the capacities of v's arcs to t and from s (at most
    one is nonzero), and `excess` the vertices with a source arc.  The cut
    around S has capacity f(S) plus the shift, sum(from_source).
    """
    terms = [2 * denom] * num_vertices
    adjacent: list[dict[int, int]] = [{} for _ in range(num_vertices)]
    for mask, w in zip(edge_masks, weights):
        if w > 0:
            u, v = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            terms[u] -= w
            terms[v] -= w
            adjacent[u][v] = adjacent[v][u] = w
    to_sink = [c if c > 0 else 0 for c in terms]
    from_source = [-c if c < 0 else 0 for c in terms]
    excess = [v for v, c in enumerate(from_source) if c]
    return adjacent, to_sink, from_source, excess


def _min_cut(
    network: tuple, sources: int, sinks: int, limit: int
) -> tuple[int, int] | None:
    """Minimum cut between s merged with the vertices in `sources` and t
    merged with the vertices in `sinks`.

    Edmonds-Karp on integer capacities.  Returns (cut capacity, mask of
    the vertices reachable from s in the final residual graph), which is
    the least source side of a minimum cut, or None as soon as the flow
    reaches `limit`.
    """
    adjacent, to_sink, from_source, excess = network
    residual = [dict(arcs) for arcs in adjacent]
    sink_arc = list(to_sink)
    source_arc = list(from_source) if excess else from_source  # read-only if none
    roots = []
    rest = sources
    while rest:
        low = rest & -rest
        roots.append(low.bit_length() - 1)
        rest ^= low
    parent = [-1] * len(adjacent)  # -1: entered from s
    flow = 0
    while True:
        reached = sources
        queue = list(roots)
        tail = -1  # last vertex of an augmenting path
        for v in excess:
            if source_arc[v] and not reached >> v & 1:
                reached |= 1 << v
                parent[v] = -1
                if sinks >> v & 1:
                    tail = v
                    break
                queue.append(v)
        if tail < 0:
            for u in queue:
                if sink_arc[u]:
                    tail = u
                    break
                for v, cap in residual[u].items():
                    if cap and not reached >> v & 1:
                        reached |= 1 << v
                        parent[v] = u
                        if sinks >> v & 1:
                            tail = v
                            break
                        queue.append(v)
                if tail >= 0:
                    break
        if tail < 0:
            return flow, reached
        # A path ending in a `sinks` vertex reaches t by an uncapacitated
        # arc, and one starting at a `sources` vertex leaves s by one.
        push = None if sinks >> tail & 1 else sink_arc[tail]
        v, u = tail, parent[tail]
        while u >= 0:
            if push is None or residual[u][v] < push:
                push = residual[u][v]
            v, u = u, parent[u]
        head = v
        if not sources >> head & 1:
            if push is None or source_arc[head] < push:
                push = source_arc[head]
            source_arc[head] -= push
        if not sinks >> tail & 1:
            sink_arc[tail] -= push
        v = tail
        while v != head:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        flow += push
        if flow >= limit:
            return None


def most_violated_set(
    num_vertices: int, edge_masks: list[int], weights: list[int], denom: int
) -> int | None:
    """Vertex mask of a most violated subtour set, or None if none is violated.

    The point must lie in the unit box and within the degree rows, so the
    network has no source arcs and the cut around S is f(S) itself.  Each
    max flow forces one vertex into S and one or more out of it: vertex 0
    in and k out, then k in and 0..k-1 out, for k = 1..N-1.  These 2(N-1)
    flows cover every S other than the empty set and V.  Within a flow, S
    is the least source side.  A flow's S replaces the one kept when its
    cut is below the best so far, which starts at 2D; a flow at or above
    it is refused at that limit after an augmentation.  A flow of value 0
    makes none, so once the best is 0 every later zero cut replaces S.
    So the first strict minimum in that order wins, unless the minimum is
    0: then the last zero cut does.  Sets of one or two vertices are never violated inside
    the unit box, so a violated S has 3 <= |S| <= N - 1, the default
    window of the subtour family.
    """
    if weights and (min(weights) < 0 or max(weights) > denom):
        raise CombcertError("min-cut separation needs a point inside the unit box")
    network = _network(num_vertices, edge_masks, weights, denom)
    if network[3]:  # a vertex of degree above 2 has a source arc
        raise CombcertError("min-cut separation needs a point within the degree rows")
    best, best_mask = 2 * denom, None
    for k in range(1, num_vertices):
        for sources, sinks in ((1, 1 << k), (1 << k, (1 << k) - 1)):
            found = _min_cut(network, sources, sinks, best)
            if found is not None:
                best, best_mask = found
    return best_mask


def violated_sets(
    num_vertices: int,
    edge_masks: list[int],
    weights: list[int],
    denom: int,
    budget: int,
) -> list[int]:
    """Vertex masks of every set S with f(S) < 2D and 3 <= |S| <= N - 1,
    the window of the subtour family, for the weights clipped at 0.

    A negative weight counts as 0 here.  That only raises x(E(S)), so every
    set in the window that the weights themselves violate is listed, and
    the caller re-checks each listed set against them.

    The sets are split by their lowest vertex k: root branch k forces k in
    and 0..k-1 out.  A branch runs one flow and is pruned when its cut
    reaches 2D plus the shift; otherwise its least minimum cut S is found,
    and the rest of the branch splits over its free vertices u_1 < u_2 < ...:
    branch i agrees with S on u_1..u_{i-1} and disagrees on u_i.  Each
    found set thus costs at most N flows (Vazirani & Yannakakis,
    "Suboptimal cuts", 1992).  Found sets outside the window are not
    listed, but their branches are still searched, since those hold the
    sets inside it: V, found at any point whose total weight exceeds
    N - 1 (every point on the degree equalities), and each pair joined by
    a weight above 1; a single vertex is never found.  The search stops
    once `budget` + 1 sets are listed, so it runs at most
    (budget + 2 + P) N flows, P the number of weights above 1.
    """
    network = _network(num_vertices, edge_masks, weights, denom)
    limit = 2 * denom + sum(network[2])  # 2D plus the shift
    full = (1 << num_vertices) - 1
    branches = [(1 << k, (1 << k) - 1) for k in range(num_vertices)]
    out: list[int] = []
    while branches and len(out) <= budget:
        sources, sinks = branches.pop()
        found = _min_cut(network, sources, sinks, limit)
        if found is None:
            continue
        cut = found[1]
        if 3 <= cut.bit_count() < num_vertices:
            out.append(cut)
        free = full & ~(sources | sinks)
        while free:
            low = free & -free
            free ^= low
            if cut & low:
                branches.append((sources, sinks | low))
                sources |= low
            else:
                branches.append((sources | low, sinks))
                sinks |= low
    return out


def hamiltonian_cycles(
    n: int, position: list[list[int]]
) -> list[tuple[int, ...]]:
    """Canonical Hamiltonian cycles of a balanced bipartite graph.

    `position[a][b]` is the index into `BipartiteInstance.sorted_edges` of
    the edge between class-1 vertex a and class-2 vertex b, or -1 if none.
    A cycle (a_0 = 0, b_0, a_1, b_1, ..., a_{n-1}, b_{n-1}) is returned as
    the tuple of its 2n edge indices: entry 2k is the edge a_k b_k, entry
    2k + 1 the edge b_k a_{k+1}, and the last closes back to a_0.  Each
    undirected cycle appears once, in the direction with b_0 < b_{n-1}, and
    the list is in lexicographic order of the vertex sequences.

    A recursive depth-first search over bitmasks of the unplaced vertices
    fills one edge-index path.  b_{n-1} must be a neighbour of a_0 above
    b_0 (the set `hi`), so the last unplaced vertex of `hi` is held back
    for the end, and once `hi` is empty no larger b_0 is tried.
    """
    adj12 = [0] * n  # class-1 vertex -> bitmask of its class-2 neighbours
    adj21 = [0] * n  # class-2 vertex -> bitmask of its class-1 neighbours
    for a, row in enumerate(position):
        for b, k in enumerate(row):
            if k >= 0:
                adj12[a] |= 1 << b
                adj21[b] |= 1 << a
    path = [0] * (2 * n)
    out = []

    def extend(a: int, i: int, cands: int, free1: int, free2: int) -> None:
        # Each b in `cands` as b_k after a_k = a (i = 2k), then each a_{k+1}.
        while cands:
            low = cands & -cands
            cands ^= low
            b = low.bit_length() - 1
            path[i] = position[a][b]
            left = free2 ^ low
            rest = hi & left
            after = adj21[b] & free1
            while after:
                low1 = after & -after
                after ^= low1
                a1 = low1.bit_length() - 1
                path[i + 1] = position[a1][b]
                if low1 != free1:
                    c = adj12[a1] & left
                    if not rest & (rest - 1):  # keep the last of hi for b_{n-1}
                        c &= ~rest
                    extend(a1, i + 2, c, free1 ^ low1, left)
                elif adj12[a1] & left:  # a1 is a_{n-1}; the b left is in hi
                    last = left.bit_length() - 1
                    path[i + 2 :] = position[a1][last], position[0][last]
                    out.append(tuple(path))

    for b0 in range(n):
        hi = adj12[0] >> (b0 + 1) << (b0 + 1)
        if not hi:
            break  # hi only shrinks as b_0 grows
        extend(0, 0, adj12[0] & 1 << b0, (1 << n) - 2, (1 << n) - 1)
    del extend  # it refers to itself: a cycle that would hold `out`
    return out
