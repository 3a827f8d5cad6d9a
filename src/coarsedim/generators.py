"""Deterministic instance generators: standard example spaces, their
canonical actions, and seeded random corpora.

Every random construction threads a single random.Random(seed); there is no
other source of randomness in the package, so any generated instance can be
reproduced from its parameters alone.

Each generator names what it builds after its parameters (`P9`, `C6_rot3`,
`grid3x3_halfturn`, `P9_cover_s4`) and takes no name of its own; to rename
an object, call its constructor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from operator import add, le
from typing import Mapping, Sequence

from .covers import Cover
from .groups import FiniteGroup, IsometricAction, cyclic_group
from .metric import FiniteMetricSpace, _ball, build_graph_metric, check_count, is_scalar


def path_space(n: int) -> FiniteMetricSpace:
    """Path with n vertices and unit edges: d(i, j) = |i - j|."""
    if check_count(n, "n") < 1:
        raise ValueError("path needs at least one vertex")
    points = [str(i) for i in range(n)]
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(points, dist, name=f"P{n}")


def cycle_space(n: int) -> FiniteMetricSpace:
    """Cycle with n vertices and unit edges: d(i, j) = min(|i-j|, n-|i-j|)."""
    if check_count(n, "n") < 3:
        raise ValueError("cycle needs at least three vertices")
    points = [str(i) for i in range(n)]
    dist = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(points, dist, name=f"C{n}")


def grid_space(width: int, height: int) -> FiniteMetricSpace:
    """width x height grid graph with unit edges (taxicab distances)."""
    if check_count(width, "width") < 1 or check_count(height, "height") < 1:
        raise ValueError("grid needs positive dimensions")
    coords = [(i, j) for i in range(width) for j in range(height)]
    points = [f"{i},{j}" for i, j in coords]
    dist = [[abs(a - c) + abs(b - d) for (c, d) in coords] for (a, b) in coords]
    return FiniteMetricSpace(points, dist, name=f"grid{width}x{height}")


def path_reflection_action(space: FiniteMetricSpace) -> IsometricAction:
    """Order-two action flipping the path end to end."""
    n = len(space)
    group = cyclic_group(2)
    perms = [list(range(n)), [n - 1 - i for i in range(n)]]
    return IsometricAction(group, space, perms, name=f"{space.name}_reflect")


def cycle_rotation_action(space: FiniteMetricSpace, shift: int) -> IsometricAction:
    """Rotation of the n-cycle by `shift`, as the cyclic group it generates."""
    n = len(space)
    shift %= n
    order = n // gcd(n, shift) if shift else 1
    group = cyclic_group(order)
    perms = [[(i + k * shift) % n for i in range(n)] for k in range(order)]
    return IsometricAction(group, space, perms, name=f"{space.name}_rot{shift}")


def cycle_reflection_action(space: FiniteMetricSpace) -> IsometricAction:
    """Order-two action i -> -i mod n on the cycle."""
    n = len(space)
    group = cyclic_group(2)
    perms = [list(range(n)), [(n - i) % n for i in range(n)]]
    return IsometricAction(group, space, perms, name=f"{space.name}_reflect")


def grid_rotation_action(space: FiniteMetricSpace, width: int,
                         height: int) -> IsometricAction:
    """Half-turn of the grid about its center."""
    if len(space) != width * height:
        raise ValueError("grid dimensions do not match the space")
    group = cyclic_group(2)
    flip = [0] * (width * height)
    for i in range(width):
        for j in range(height):
            flip[i * height + j] = (width - 1 - i) * height + (height - 1 - j)
    perms = [list(range(width * height)), flip]
    return IsometricAction(group, space, perms, name=f"{space.name}_halfturn")


def cayley_ball_space(n: int, gens: Sequence[int], radius: int) -> FiniteMetricSpace:
    """Ball of the given radius around 0 in a circulant Cayley graph of Z/n,
    with the shortest-path metric of the induced subgraph.

    Shortest generator words have in-ball prefixes, so the induced subgraph
    is connected and the construction always yields a metric.
    """
    if check_count(n, "n") < 1:
        raise ValueError("cyclic order must be >= 1")
    check_count(radius, "radius")
    steps = sorted({g % n for g in gens if g % n != 0} |
                   {(-g) % n for g in gens if g % n != 0})
    # BFS word lengths; only the component of 0 matters for a ball around 0
    word = {0: 0}
    frontier = [0]
    while frontier:
        new = []
        for v in frontier:
            for st in steps:
                u = (v + st) % n
                if u not in word:
                    word[u] = word[v] + 1
                    new.append(u)
        frontier = new
    members = sorted(v for v in word if word[v] <= radius)
    vertices = [str(v) for v in members]
    inside = set(members)
    edges = []
    for v in members:
        for st in steps:
            u = (v + st) % n
            if u in inside and v < u:
                edges.append((str(v), str(u)))
    return build_graph_metric(vertices, edges, name=f"cayley{n}r{radius}")


def random_graph_space(n: int, seed: int, edge_chance: Fraction = Fraction(2, 5),
                       max_weight: int = 3) -> FiniteMetricSpace:
    """Connected random graph metric: a random spanning tree plus extra edges,
    each pair joined with the exact chance edge_chance (an int or Fraction in
    [0, 1]), integer weights in 1..max_weight, shortest-path closure."""
    if check_count(n, "n") < 1:
        raise ValueError("need at least one vertex")
    if not is_scalar(edge_chance) or not 0 <= edge_chance <= 1:
        raise ValueError(f"edge_chance must be an int or Fraction in [0, 1], "
                         f"got {edge_chance!r}")
    if check_count(max_weight, "max_weight") < 1:
        raise ValueError("max_weight must be >= 1")
    rng = random.Random(seed)
    vertices = [str(i) for i in range(n)]
    edges = []
    weights = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((str(u), str(v)))
        weights.append(rng.randint(1, max_weight))
    present = set(edges)
    num, den = edge_chance.numerator, edge_chance.denominator
    for u in range(n):
        for v in range(u + 1, n):
            if (str(u), str(v)) in present:
                continue
            if rng.randrange(den) < num:
                edges.append((str(u), str(v)))
                weights.append(rng.randint(1, max_weight))
    return build_graph_metric(vertices, edges, weights, name=f"random{n}s{seed}")


def random_invariant_instance(group: FiniteGroup, base_size: int, seed: int
                              ) -> tuple[FiniteMetricSpace, IsometricAction]:
    """Random space carrying a free action of the given group.

    Points are (group element, slot) pairs, (g, i) at index g*base_size + i.
    Random edge costs in 1..4 are drawn, in (g, i, j) reading order, subject
    to c(g, i, j) = c(g^(-1), j, i), which makes the complete-graph weight
    w((g,i),(h,j)) = c(g^(-1)h, i, j) symmetric and invariant under left
    translation.  The metric is the shortest-path closure, and the action is
    left translation, g: (h, j) -> (gh, j).  Translation preserves the
    weights, so it is an automorphism of the weighted graph and hence an
    isometry of the closure.

    So the closure is fixed by the b rows of the identity block (e, i), which
    meets every orbit once: d((g,i),(h,j)) = d((e,i),(g^(-1)h, j)), read
    through the permutation of g^(-1).  Each of those rows comes from a dense
    Dijkstra search from (e, i), whose weight rows are themselves translates
    of the identity block's.  A search stops once the distance it settles
    plus 1 (the least weight) reaches the largest tentative distance, since
    no remaining step can lower one.  That is O(b*n^2) for n = |group|*b
    points, against O(n^3) to close all n^2 entries by relaxation.
    """
    if check_count(base_size, "base_size") < 1:
        raise ValueError("base_size must be >= 1")
    rng = random.Random(seed)
    k, b, e = len(group), base_size, group.identity
    n = k * b
    inv = [group.inverse(g) for g in range(k)]
    # weight[i][h*b + j] = c(h, i, j): the weight rows of the identity block
    weight = [[0] * n for _ in range(b)]
    for g in range(k):
        for i in range(b):
            for j in range(b):
                if weight[i][g * b + j] or (g == e and i == j):
                    continue
                weight[i][g * b + j] = weight[j][inv[g] * b + i] = rng.randint(1, 4)
    perms = [[group.mul(g, h) * b + i for h in range(k) for i in range(b)]
             for g in range(k)]

    def translate(row: list, u: int) -> list:
        """Row u's entries from a row of the identity block's slot u % b."""
        return list(map(row.__getitem__, perms[inv[u // b]]))

    rows = []
    for i in range(b):
        d, left = weight[i][:], set(range(n)) - {e * b + i}
        while left:
            u = min(left, key=d.__getitem__)
            du = d[u]
            if du + 1 >= max(d):
                break
            left.remove(u)
            d = list(map(min, d, map(add, repeat(du), translate(weight[u % b], u))))
        rows.append(d)

    label = f"{group.name}xB{b}s{seed}"
    points = [f"{group.elements[g]}.{i}" for g in range(k) for i in range(b)]
    space = FiniteMetricSpace(points, [translate(rows[u % b], u) for u in range(n)],
                              name=label)
    action = IsometricAction(group, space, perms, name=f"{label}_translate")
    return space, action


def random_cover(space: FiniteMetricSpace, seed: int) -> Cover:
    """Valid random cover: a few random closed balls, then balls around
    uncovered points until everything is covered, deduplicated."""
    rng = random.Random(seed)
    n = len(space)
    radii = sorted(set(chain.from_iterable(space.dist)))
    small = radii[:max(2, len(radii) * 2 // 3)]
    members = [_ball(space, rng.randrange(n), rng.choice(small), le)
               for _ in range(rng.randint(1, 3))]
    covered = set().union(*members)
    for x in range(n):
        if x not in covered:
            members.append(_ball(space, x, rng.choice(small), le))
            covered |= members[-1]
    return Cover(space, dict.fromkeys(members), name=f"{space.name}_cover_s{seed}")


@dataclass(frozen=True)
class GeneratedInstance:
    space: FiniteMetricSpace
    action: IsometricAction | None


# The parameters each kind takes, in the order its error message lists them.
KIND_PARAMS = {"path": ("n",), "cycle": ("n", "action", "shift"), "grid": ("w", "h"),
               "cayley-ball": ("n", "gens", "radius"), "random": ("n", "p", "maxw")}


def _int_param(params: Mapping[str, str], key: str, default: int | None = None) -> int:
    if key not in params:
        if default is None:
            raise ValueError(f"missing parameter {key!r}")
        return default
    try:
        return int(params[key])
    except ValueError:
        raise ValueError(f"parameter {key!r} must be an integer, got "
                         f"{params[key]!r}") from None


def generate_instance(kind: str, params: Mapping[str, str] | None = None,
                      seed: int = 0) -> GeneratedInstance:
    """One generated space, with its canonical action when the kind has one.

    Kinds and parameters:
      path        n (default 5); reflection action
      cycle       n (default 6), action=rotation|reflection|none,
                  shift (rotation only; default n//2 if even else 1);
                  rotation action
      grid        w,h (default 3,3); half-turn action
      cayley-ball n, gens (e.g. "1+5"), radius; no action
      random      n (default 8), p (rational, default 2/5), maxw (default 3);
                  no action

    Any other parameter is a ValueError.
    """
    params = dict(params or {})
    if kind not in KIND_PARAMS:
        raise ValueError(f"unknown instance kind {kind!r}")
    takes = KIND_PARAMS[kind]
    for key in params:
        if key not in takes:
            raise ValueError(f"unknown parameter {key!r} for {kind}; it takes "
                             f"{', '.join(takes)}")
    if kind == "path":
        n = _int_param(params, "n", 5)
        space = path_space(n)
        return GeneratedInstance(space, path_reflection_action(space))
    if kind == "cycle":
        n = _int_param(params, "n", 6)
        space = cycle_space(n)
        which = params.get("action", "rotation")
        if which == "rotation":
            shift = _int_param(params, "shift", n // 2 if n % 2 == 0 else 1)
            return GeneratedInstance(space, cycle_rotation_action(space, shift))
        if "shift" in params:
            raise ValueError(f"parameter 'shift' needs action=rotation, got "
                             f"action={which}")
        if which == "reflection":
            return GeneratedInstance(space, cycle_reflection_action(space))
        if which == "none":
            return GeneratedInstance(space, None)
        raise ValueError(f"unknown cycle action {which!r}")
    if kind == "grid":
        w = _int_param(params, "w", 3)
        h = _int_param(params, "h", 3)
        space = grid_space(w, h)
        return GeneratedInstance(space, grid_rotation_action(space, w, h))
    if kind == "cayley-ball":
        n = _int_param(params, "n")
        radius = _int_param(params, "radius")
        gens_text = params.get("gens")
        if not gens_text:
            raise ValueError("cayley-ball needs gens, e.g. gens=1+5")
        try:
            gens = [int(tok) for tok in gens_text.split("+")]
        except ValueError:
            raise ValueError(f"parameter 'gens' must be integers joined by '+', got "
                             f"{gens_text!r}") from None
        return GeneratedInstance(cayley_ball_space(n, gens, radius), None)
    # kind == "random"
    n = _int_param(params, "n", 8)
    try:
        p = Fraction(params.get("p", "2/5"))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"parameter 'p' must be a fraction, got "
                         f"{params['p']!r}") from None
    if not 0 <= p <= 1:
        raise ValueError(f"parameter 'p' must be in [0, 1], got {params['p']!r}")
    maxw = _int_param(params, "maxw", 3)
    return GeneratedInstance(random_graph_space(n, seed, p, maxw), None)
