"""Independent reference computations the tests compare against.

Everything here is written from the definitions, in a deliberately different
style and search space from the library (name-keyed Dijkstra over edge lists
and Floyd-Warshall beside the library's index-based Dijkstra; Floyd-Warshall
over the whole complete graph beside the generator's identity-block searches
and left translation for invariant instances; serve-partitions and frozenset
cliques beside the library's bitmask serve-groups; direct ball checks instead
of complement distances), so agreement is evidence and not an echo.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, product
from math import inf


def dijkstra_metric(vertices, edges, weights=None) -> dict:
    """All-pairs shortest paths as nested dicts, single-source Dijkstra."""
    if weights is None:
        weights = [1] * len(edges)
    adjacency = {v: [] for v in vertices}
    for (u, v), w in zip(edges, weights):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    table = {}
    for source in vertices:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            dv, v = heapq.heappop(heap)
            if dv > dist.get(v, inf):
                continue
            for u, w in adjacency[v]:
                alt = dv + w
                if alt < dist.get(u, inf):
                    dist[u] = alt
                    heapq.heappush(heap, (alt, u))
        table[source] = dist
    return table


def floyd_warshall_metric(vertices, edges, weights=None) -> dict:
    """All-pairs shortest paths as nested dicts, by relaxing through every
    intermediate vertex in turn."""
    if weights is None:
        weights = [1] * len(edges)
    table = {u: {v: 0 if u == v else inf for v in vertices} for u in vertices}
    for (u, v), w in zip(edges, weights):
        table[u][v] = table[v][u] = min(table[u][v], w)
    for k in vertices:
        for u in vertices:
            for v in vertices:
                table[u][v] = min(table[u][v], table[u][k] + table[k][v])
    return table


def invariant_instance_direct(group, base_size: int, seed: int) -> tuple:
    """generators.random_invariant_instance from its documented construction:
    costs c(g, i, j) drawn by randint(1, 4) in (g, i, j) reading order,
    skipping c(e, i, i) and every cost already set as the mirror of an earlier
    one (c(g^-1, j, i) = c(g, i, j)); the complete graph on the points (g, i)
    with weights c(g^-1 h, i, j), closed by Floyd-Warshall; left translation
    (g, (h, i)) -> (gh, i) as the action.  Returns (points, table, perms,
    space name, action name)."""
    rng = random.Random(seed)
    elements = range(len(group))
    inverse = {g: next(h for h in elements if group.mul(g, h) == group.identity)
               for g in elements}
    slots = range(base_size)
    cost = {}
    for g, i, j in product(elements, slots, slots):
        if (g, i, j) not in cost and (g, i) != (group.identity, j):
            cost[g, i, j] = cost[inverse[g], j, i] = rng.randint(1, 4)
    pairs = list(product(elements, slots))
    points = [f"{group.elements[g]}.{i}" for g, i in pairs]
    edges = list(combinations(pairs, 2))
    weights = [cost[group.mul(inverse[g], h), i, j] for (g, i), (h, j) in edges]
    closure = floyd_warshall_metric(pairs, edges, weights)
    table = [[closure[x][y] for y in pairs] for x in pairs]
    perms = [[pairs.index((group.mul(g, h), i)) for h, i in pairs] for g in elements]
    label = f"{group.name}xB{base_size}s{seed}"
    return points, table, perms, label, f"{label}_translate"


def quotient_distance_direct(action, x: int, y: int):
    """Orbit distance straight from the definition: scan all image pairs."""
    k = len(action.group)
    return min(action.space.dist[action.perms[g][x]][action.perms[h][y]]
               for g in range(k) for h in range(k))


def lebesgue_direct(space, members):
    """Largest r (a realized distance, or infinity) such that every open
    r-ball around every point fits inside some member.  The open 0-ball is
    empty and fits anywhere, so a point in no member gives 0."""
    n = len(space)
    values = sorted({space.dist[i][j] for i in range(n) for j in range(n)})

    def fits_everywhere(r) -> bool:
        for x in range(n):
            need = {y for y in range(n) if space.dist[x][y] < r}
            if not any(need <= member for member in members):
                return False
        return True

    if fits_everywhere(inf):
        return inf
    best = None
    for r in values:
        if fits_everywhere(r):
            best = r
    return best


def _diameter(space, pts) -> int:
    pts = list(pts)
    return max((space.dist[a][b] for a in pts for b in pts), default=0)


def mesh_direct(space, members):
    """Largest distance between two points of one member, over all pairs."""
    return max(_diameter(space, member) for member in members)


def min_dimension_partition(space, R, B):
    """Minimal cover dimension with Lebesgue number >= R and mesh <= B, by
    exhausting serve-partitions; None when no cover can exist.

    Any cover achieving Lebesgue >= R assigns each point a member containing
    its open R-ball; shrinking members to the union of the balls they serve
    keeps every requirement and never raises multiplicity.  Members are then
    determined by the partition of points into serve-groups, so scanning all
    partitions whose block-ball-unions have diameter <= B visits an optimal
    cover.
    """
    n = len(space)
    balls = [frozenset(y for y in range(n) if space.dist[x][y] < R)
             for x in range(n)]
    if any(_diameter(space, b) > B for b in balls):
        return None

    best = [n + 1]
    unions: list[set[int]] = []

    def multiplicity() -> int:
        distinct = {frozenset(u) for u in unions}
        return max(sum(1 for u in distinct if y in u) for y in range(n))

    def place(x: int) -> None:
        if x == n:
            best[0] = min(best[0], multiplicity())
            return
        for u in unions:
            grown = u | balls[x]
            if _diameter(space, grown) <= B:
                saved = set(u)
                u |= balls[x]
                place(x + 1)
                u.clear()
                u |= saved
        unions.append(set(balls[x]))
        place(x + 1)
        unions.pop()

    place(0)
    return best[0] - 1


def min_dimension_cliques(space, R, B):
    """Minimal cover dimension with Lebesgue number >= R and mesh <= B, by
    backtracking over every point set of diameter <= B as a candidate
    member; None when no cover can exist.

    Members of such a cover are sets of diameter <= B, and each open R-ball
    lies inside one of them, so choosing members among all such sets, each
    serving some point whose ball no chosen member contains yet, visits an
    optimal cover.  Multiplicity caps are tried from 1 upwards.
    """
    n = len(space)
    balls = [frozenset(y for y in range(n) if space.dist[x][y] < R)
             for x in range(n)]
    if any(_diameter(space, b) > B for b in balls):
        return None
    family = []
    level = [frozenset([p]) for p in range(n)]
    while level:
        family += level
        level = sorted({s | {p} for s in level for p in range(max(s) + 1, n)
                        if all(space.dist[p][q] <= B for q in s)}, key=sorted)
    # Largest sets first: any order is complete, and this one finds a
    # whole-space member at once where one is allowed.
    serve = [[c for c in reversed(family) if balls[x] <= c] for x in range(n)]

    for cap in range(1, n + 1):
        chosen: list[frozenset] = []
        count = [0] * n

        def complete() -> bool:
            unserved = [x for x in range(n)
                        if not any(balls[x] <= c for c in chosen)]
            if not unserved:
                return True
            full = {y for y in range(n) if count[y] == cap}
            options = {x: [c for c in serve[x] if full.isdisjoint(c)]
                       for x in unserved}
            x = min(unserved, key=lambda x: len(options[x]))
            for c in options[x]:
                chosen.append(c)
                for y in c:
                    count[y] += 1
                if complete():
                    return True
                chosen.pop()
                for y in c:
                    count[y] -= 1
            return False

        if complete():
            return cap - 1
    raise AssertionError("the open balls themselves always form a cover")


def subgroup_closure_direct(group, generators) -> tuple:
    """Smallest subgroup containing the generators: the identity, the
    generators and their inverses, closed under every pairwise product
    until a round adds nothing."""
    table = group.mul_table
    current = {group.identity, *generators}
    current |= {b for a in generators for b in range(len(group))
                if table[a][b] == group.identity}
    while True:
        grown = current | {table[a][b] for a in current for b in current}
        if grown == current:
            return tuple(sorted(current))
        current = grown


def lift_pieces_direct(action, q, cover, s) -> list:
    """The split of each quotient-cover member, per coset, from distances.

    For each member: its fiber, the least fiber point x, and for each left
    coset of the displacement subgroup H at x (lowest element first, cosets
    in that order) the triple (f, H', piece) where H' is the subgroup
    generated by the elements moving f.x by at most 4s, and the piece is the
    set of fiber points within s of some h.f.x with h in H'.  Nothing is
    translated: every coset is measured at its own point."""
    space, group = action.space, action.group

    def displacement(x):
        return subgroup_closure_direct(
            group, [g for g in range(len(group))
                    if space.dist[x][action.perms[g][x]] <= 4 * s])

    out = []
    for member in cover.members:
        fiber = frozenset(y for y in range(len(space)) if q.orbit_of[y] in member)
        x = min(fiber)
        base = displacement(x)
        cosets: dict = {}
        for f in range(len(group)):
            cosets.setdefault(frozenset(group.mul_table[f][h] for h in base), f)
        pieces = []
        for f in sorted(cosets.values()):
            fx = action.perms[f][x]
            local = displacement(fx)
            centers = [action.perms[h][fx] for h in local]
            pieces.append((f, local, frozenset(
                y for y in fiber if min(space.dist[y][z] for z in centers) <= s)))
        out.append((fiber, x, pieces))
    return out


def equivariance_witness_direct(action, members):
    """The first (member index, group element), in index order, whose image
    is not a member; None when every element maps the family onto itself.
    Every member is mapped by every element, the whole space included."""
    family = [set(m) for m in members]
    for k, member in enumerate(family):
        for g, perm in enumerate(action.perms):
            if {perm[x] for x in member} not in family:
                return k, g
    return None
