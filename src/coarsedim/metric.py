"""Finite metric spaces over exact scalars.

Distances are ints or Fractions, never floats: every downstream certificate
is an exact comparison, and a single rounded value would poison all of them.
The one non-rational value in the toolkit is INF, the marker for a minimum
taken over an empty set.  The rules every constructor checks its input by
are written here once: check_scalar, check_index (and check_indices for a
whole collection) and check_count.  So is the form of every distance
computed from a table, FiniteMetricSpace._scalar, and the text every scalar
is written as, scalar_str.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from fractions import Fraction
from functools import partial
from itertools import chain, compress, repeat
from operator import itemgetter, le, lt
from typing import Iterable, Sequence

from .errors import Violation

Scalar = int | Fraction

#: Marker for "no points to measure": distance to the empty set, or the
#: Lebesgue number of a cover with a whole-space member.  A float, but it
#: compares exactly against every int and Fraction, and it never enters
#: arithmetic that lands back in a distance table.
INF = math.inf


def is_scalar(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, Fraction))


def scalar_str(value) -> str:
    """The canonical text of a scalar, INF included: what documents write,
    what parse_scalar reads back, and how the estimators' cover names show
    their scales."""
    if value == INF:
        return "inf"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int.__repr__(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if is_scalar(value):
        return int.__repr__(value)      # not an int subclass's own __str__
    raise TypeError(f"not an exact scalar: {value!r}")


def check_scalar(value, name: str = "value") -> Scalar:
    """Reject floats and anything else inexact."""
    if not is_scalar(value):
        raise TypeError(f"{name} must be an int or Fraction, got {value!r}")
    return value


def check_positive(value, name: str = "value") -> Scalar:
    """check_scalar, then reject a value that is not above zero."""
    if not check_scalar(value, name) > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative(value, name: str = "value") -> Scalar:
    """check_scalar, then reject a value below zero."""
    if check_scalar(value, name) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_count(value, what: str) -> int:
    """Reject anything but a nonnegative int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a nonnegative int, got {value!r}")
    return value


def check_index(value, n: int, what: str) -> int:
    """Reject anything but an int (a bool is not one) in range(n)."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < n:
        raise ValueError(f"{what} must be an int in range({n}), got {value!r}")
    return value


def check_indices(values, n: int, what: str):
    """check_index on every element of a collection, which is returned.  A
    collection of plain ints in range passes on C-level passes alone; any
    other is checked element by element, so the first bad one in iteration
    order raises."""
    if values and not ({int}.issuperset(map(type, values))
                       and 0 <= min(values) and max(values) < n):
        for value in values:
            check_index(value, n, what)
    return values


def _no_reassignment(self, name, value):
    """The __setattr__ of every core object: a public attribute is set only
    by its constructor, with _construct; a private one is a kept form, set
    once.  So nothing kept can go stale."""
    if not name.startswith("_") or name in vars(self):
        raise AttributeError(f"the {name} of {self!r} cannot be reassigned")
    object.__setattr__(self, name, value)


def _no_deletion(self, name):
    """The __delattr__ of every core object: no attribute is deleted, so a
    kept form is never set twice and no field goes missing."""
    raise AttributeError(f"the {name} of {self!r} cannot be deleted")


def _construct(obj, **fields) -> None:
    """Set a core object's fields, from its constructor, past the rule."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


class FiniteMetricSpace:
    """Named points with a dense table of exact pairwise distances.

    The table is stored as given; nothing about the metric axioms is
    assumed at construction time.  Run validate_metric to get the report.
    No attribute can be reassigned or deleted.  The space keeps forms
    derived from its table, each built once: its integer rows, its diameter
    and, when every integer entry is in 0..255, its byte table (the integer
    rows in one bytes object), which the metric check and the search's ball
    masks read in C.
    """

    __setattr__, __delattr__ = _no_reassignment, _no_deletion
    _index = _diameter = _bytes = _scale = _integers = None     # kept forms, each set once

    def __init__(self, points: Sequence[str], dist: Sequence[Sequence[Scalar]],
                 name: str = "space"):
        self._build(points, dist, name, None, None)

    @classmethod
    def _built(cls, points, rows, name, scale, integers) -> FiniteMetricSpace:
        """The constructor, for a table whose integer form (see integer_rows)
        the caller's pass built; only the entry types go unchecked."""
        (m := cls.__new__(cls))._build(points, rows, name, scale, integers)
        return m

    def _build(self, points, dist, name, scale, integers) -> None:
        points = tuple(str(p) for p in points)
        if not points:
            raise ValueError("a metric space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("point names must be distinct")
        n = len(points)
        if len(dist) != n:
            raise ValueError(f"distance table has {len(dist)} rows for {n} points")
        # Row lengths and (unless _built knows them) exact entry types are
        # checked in one C-level pass over the whole table, whose tuple rows
        # are kept, not copied.  Any other table (a short row, a bool, a
        # float, an int subclass, a row that is not iterable) is checked row
        # by row, so that the first fault in reading order raises.
        try:
            rows = tuple(map(tuple, dist))
            checked = set(map(len, rows)) == {n}
            if checked and scale is None:
                types = set(map(type, chain.from_iterable(rows)))
                checked = types <= {int, Fraction}
                scale = 1 if types <= {int} else None
        except TypeError:  # a row that is not iterable; the loop raises
            checked = False
        if not checked:
            for i, row in enumerate(dist):
                row = tuple(row)
                if len(row) != n:
                    raise ValueError(f"distance table row {i} has length {len(row)}, "
                                     f"expected {n}")
                for j, v in enumerate(row):
                    check_scalar(v, f"dist[{i}][{j}]")
        _construct(self, points=points, dist=rows, name=str(name))
        if scale is not None:
            self._scale, self._integers = scale, rows if scale == 1 else integers

    def __len__(self) -> int:
        return len(self.points)

    def d(self, x: int, y: int) -> Scalar:
        return self.dist[x][y]

    def index(self, point: str) -> int:
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.points)}
        try:
            return self._index[point]
        except KeyError:
            raise KeyError(f"unknown point {point!r} in space {self.name!r}") from None

    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """The table as plain ints with the same order, ties, equalities and
        triangle inequalities, so that comparisons on it run in C: the table
        itself when every entry is a plain int, else the rows scaled by a
        common multiple of the denominators, integer_scale().  A loaded table
        or a quotient (at its source's scale) gets them from the pass that
        builds it, any other table from the LCM on first use, and they are
        kept.  An entry k read off them stands for the distance _scalar(k)."""
        if self._integers is None:
            self._scale, self._integers = _integer_rows(self.dist)
        return self._integers

    def integer_scale(self) -> int:
        """The factor integer_rows() scales the table by (1: not at all)."""
        self.integer_rows()
        return self._scale

    def _scalar(self, k: int) -> Scalar:
        """The distance an entry k of integer_rows() stands for, in canonical
        form: an int when it is whole, else a Fraction in lowest terms, the
        value and type parse_scalar reads back from its written string.
        Every distance computed from the table is returned through it."""
        scale = self.integer_scale()
        if scale == 1:
            return k
        value = Fraction(k, scale)
        return value.numerator if value.denominator == 1 else value

    def byte_table(self) -> bytes | None:
        """integer_rows() as one bytes object, row after row, n bytes a row:
        row i is bytes(integer_rows()[i]).  None when an entry is outside
        0..255 (the table then has no byte form).  Built on first use and
        kept, like the integer rows."""
        if self._bytes is None:
            try:
                self._bytes = b"".join(map(bytes, self.integer_rows()))
            except ValueError:      # an entry outside 0..255
                self._bytes = b""
        return self._bytes or None

    def diameter(self) -> Scalar:
        """The largest entry of the table, the space's diameter: found on
        integer_rows(), computed on first use and kept, like them."""
        if self._diameter is None:
            self._diameter = self._scalar(max(map(max, self.integer_rows())))
        return self._diameter

    def check_point(self, x: int) -> int:
        return check_index(x, len(self.points), f"a point index of {self.name!r}")

    def check_points(self, xs):
        """check_indices against the points; xs is returned."""
        return check_indices(xs, len(self.points), f"a point index of {self.name!r}")

    def __eq__(self, other) -> bool:
        # The label is not part of the geometry.
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.points == other.points and self.dist == other.dist

    __hash__ = None  # never used as a dict key

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({self.name!r}, {len(self)} points)"


def validate_metric(m: FiniteMetricSpace) -> list[Violation]:
    """Exhaustive check of the metric axioms; lists every violated pair/triple.

    A valid table is recognised by an all-clear pass that is exact, not a
    filter.  It reads the space's byte table (see
    FiniteMetricSpace.byte_table) when the table has one, else its integer
    rows.  On the byte table every pre-check is a C-level pass: identity
    and positivity hold when the table has n zeros, all on the diagonal
    flat[::n+1]; symmetry, when each column flat[j::n] equals row j.  On
    the integer rows they are checked row by row.

    Each row is then packed into one int with a fixed-width lane per point
    and a guard bit at the top of every lane.  On one-byte lanes (every
    entry below 64) a row of the byte table is its packed row as it
    stands.  On wider lanes each integer row is packed as one machine
    array on 2-, 4- or 8-byte lanes, and entry by entry on others.  For a
    pair (i, j), row_j + d(i,j)*ONES + GUARDS - row_i keeps every guard bit
    exactly when d(i,k) <= d(i,j) + d(j,k) for every k: lanes are wide
    enough that no lane carries into or borrows from its neighbour, so the
    big-int sum is the lane-wise sum.

    The pass checks that sum only for i's neighbours, found by walking
    thresholds upwards: at each, the lanes not yet covered that lie within
    it become neighbours j and are checked, and each neighbour covers every
    k with d(i,k) >= d(i,j) + d(j,k) (read off the same sum).  The walk
    stops once every lane is a neighbour or covered.  On one-byte lanes
    (every entry below 64) the thresholds are 1, 2, ..., 63; otherwise they
    are the distinct values of row i, sorted.  A threshold that is no entry
    of row i finds no lane and adds none.  That is exact, by strong
    induction on d(i,j): a neighbour is checked directly; any other j is
    covered by a nearer neighbour j1 with d(j1,j) <= d(i,j) - d(i,j1) <
    d(i,j), so d(i,k) <= d(i,j1) + d(j1,k) <= d(i,j1) + d(j1,j) + d(j,k) <=
    d(i,j) + d(j,k).  On a graph metric the neighbours are the graph's
    edges, so grids, paths, cycles, random graphs and their quotients take
    about n * (degree + levels) big-int steps, where the levels are the
    thresholds walked; a dense table in which no pair has a third point on
    a geodesic makes every pair a neighbour and takes about n**2 steps,
    each a few big-int operations.

    A negative entry needs no scan of its own: such a table has no byte
    form, and the lanes are unsigned, so packing its row raises
    OverflowError (array and int.to_bytes), and the pass fails.  When the
    pass fails, the per-triple listing below runs and reports every
    violation, in the same order and with the same messages whichever way
    the answer was reached.
    """
    if _all_clear(m):
        return []
    return _list_violations(m)


def _integer_rows(dist) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The LCM of the table's denominators, and the table scaled to plain
    ints by it (see FiniteMetricSpace.integer_rows, the one caller)."""
    scale = math.lcm(*(v.denominator for row in dist for v in row))
    return scale, tuple(tuple(v.numerator * (scale // v.denominator) for v in row)
                        for row in dist)


#: Row packers by lane width in bytes, for lanes wider than one byte: a
#: machine array on 2-, 4- and 8-byte lanes.
_LANES = {array(code).itemsize: partial(array, code) for code in "HIQ"}

#: The bytes 0..63; a byte table with no other byte fits one-byte lanes.
_SIX_BITS = bytes(range(64))


def _all_clear(m: FiniteMetricSpace) -> bool:
    """Whether the table satisfies every metric axiom (see validate_metric).

    Nothing scans for a negative entry: a table with one has no byte form,
    the row-by-row checks before packing pass or fail whatever the signs,
    and packing a row with a negative entry into unsigned lanes raises,
    which is a failed pass."""
    n = len(m)
    rows = m.integer_rows()
    flat = m.byte_table()
    if flat is not None:
        # Entries are 0..255: n zeros, all on the diagonal, is identity
        # plus positivity.
        if flat.count(0) != n or flat[::n + 1] != bytes(n) or any(
                flat[j::n] != flat[j * n:(j + 1) * n] for j in range(n)):
            return False
        bits = 8 if flat.translate(None, _SIX_BITS) else 6
    else:
        for i, row in enumerate(rows):
            # With nonnegative entries (a negative one fails the packing
            # below), a zero diagonal and one zero per row is identity plus
            # positivity.
            if row[i] != 0 or row.count(0) != 1:
                return False
        if any(row != col for row, col in zip(rows, zip(*rows))):
            return False
        bits = max(map(max, rows)).bit_length()
    # A lane holds d(j,k) + d(i,j) + guard - d(i,k) with every entry below
    # 2**bits, so it stays in [guard - 2**bits, 2 * guard) and the guard bit
    # is set exactly when the triangle inequality holds.  One less, it stays
    # nonnegative and keeps the guard bit exactly when d(i,k) < d(i,j) +
    # d(j,k), that is, when j does not cover k.  Levels: see validate_metric.
    lane_bytes = (bits + 2 + 7) // 8
    if lane_bytes <= 8:
        lane_bytes = 1 << (lane_bytes - 1).bit_length()
    width = 8 * lane_bytes
    ones = ((1 << n * width) - 1) // ((1 << width) - 1)
    guards = ones << (bits + 1)
    if lane_bytes == 1 and flat is not None:
        # Each row of the byte table is already its packed row.
        packed = [int.from_bytes(flat[k:k + n], "little") for k in range(0, n * n, n)]
    else:
        order = sys.byteorder
        lane = _LANES.get(lane_bytes) or (
            lambda row: b"".join(v.to_bytes(lane_bytes, order) for v in row))
        try:
            packed = list(map(int.from_bytes, map(lane, rows), repeat(order)))
        except OverflowError:  # a negative entry
            return False
    # One-byte lanes hold a byte table: a table with no byte form and
    # entries below 64 has a negative entry, and its packing failed.
    levels = repeat(range(1, 64)) if lane_bytes == 1 else [
        sorted(set(row))[1:] for row in rows]
    shifted = [p + guards for p in packed]
    survived = guards
    for i, (p_i, row_levels) in enumerate(zip(packed, levels)):
        # The lanes j whose triangles d(i,k) <= d(i,j) + d(j,k) still need a
        # check of their own (see validate_metric).  Lane i never does; a
        # neighbour leaves once checked, and so does each j with d(i,j) >=
        # d(i,j1) + d(j1,j) for a checked neighbour j1.
        uncovered = guards ^ (1 << (i * width + bits + 1))
        for d_ij in row_levels:
            if not uncovered:
                break
            step = d_ij * ones - p_i
            # Every nearer lane is covered, so these are the lanes at d_ij.
            new = (step + guards) & uncovered
            while new:
                top = new.bit_length() - 1
                new ^= 1 << top
                lanes = shifted[top // width] + step
                survived &= lanes
                uncovered &= lanes - ones
    return survived == guards


def _list_violations(m: FiniteMetricSpace) -> list[Violation]:
    out: list[Violation] = []
    n = len(m)
    for i in range(n):
        if m.dist[i][i] != 0:
            out.append(Violation("identity", (i,),
                                 f"d({m.points[i]},{m.points[i]}) = {m.dist[i][i]}, expected 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if m.dist[i][j] != m.dist[j][i]:
                out.append(Violation("symmetry", (i, j),
                                     f"d({m.points[i]},{m.points[j]}) = {m.dist[i][j]} but "
                                     f"d({m.points[j]},{m.points[i]}) = {m.dist[j][i]}"))
            if m.dist[i][j] <= 0:
                out.append(Violation("positivity", (i, j),
                                     f"d({m.points[i]},{m.points[j]}) = {m.dist[i][j]}, "
                                     f"expected > 0 for distinct points"))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if m.dist[i][k] > m.dist[i][j] + m.dist[j][k]:
                    out.append(Violation(
                        "triangle", (i, j, k),
                        f"d({m.points[i]},{m.points[k]}) = {m.dist[i][k]} > "
                        f"{m.dist[i][j]} + {m.dist[j][k]} via {m.points[j]}"))
    return out


def build_graph_metric(vertices: Sequence[str], edges: Iterable[tuple],
                       weights: Sequence[Scalar] | None = None,
                       name: str = "graph") -> FiniteMetricSpace:
    """Shortest-path metric of an undirected weighted graph, exactly.

    edges are (u, v) pairs of vertex names; weights is an optional parallel
    sequence (unit weights otherwise).  Disconnected input is an error that
    names a specific unreachable pair.
    """
    names = [str(v) for v in vertices]
    if len(set(names)) != len(names):
        raise ValueError("vertex names must be distinct")
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    if n == 0:
        raise ValueError("a graph metric needs at least one vertex")

    edges = list(edges)
    if weights is not None:
        weights = list(weights)
        if len(weights) != len(edges):
            raise ValueError(f"{len(weights)} weights for {len(edges)} edges")
    # adjacency[i][j] is the lightest weight among the edges joining i and j.
    adjacency: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for pos, edge in enumerate(edges):
        u, v = edge
        if u not in index or v not in index:
            raise ValueError(f"edge ({u!r}, {v!r}) mentions an unknown vertex")
        w = 1 if weights is None else check_scalar(weights[pos], f"weight[{pos}]")
        if w <= 0:
            raise ValueError(f"edge ({u!r}, {v!r}) has nonpositive weight {w}")
        i, j = index[u], index[v]
        if i == j:
            raise ValueError(f"self-loop at {u!r}")
        if w < adjacency[i].get(j, INF):
            adjacency[i][j] = adjacency[j][i] = w

    # One Dijkstra per source: weights are positive, so a popped distance is
    # final; sums of ints/Fractions stay exact, INF marks the unreached.
    dist: list[list] = []
    for source in range(n):
        row = [INF] * n
        row[source] = 0
        heap = [(0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > row[v]:
                continue
            for u, w in adjacency[v].items():
                alt = d + w
                if alt < row[u]:
                    row[u] = alt
                    heapq.heappush(heap, (alt, u))
        # Row 0 reaches every vertex just when the graph is connected, so it
        # holds the first unreachable pair in reading order, if there is one.
        if source == 0 and INF in row:
            raise ValueError(f"graph is disconnected: no path between {names[0]!r} "
                             f"and {names[row.index(INF)]!r}")
        dist.append(row)
    return FiniteMetricSpace(names, dist, name=name)


def ball(m: FiniteMetricSpace, x: int, r: Scalar, mode: str = "closed") -> frozenset[int]:
    """Open or closed ball around a point, as a set of point indices."""
    m.check_point(x)
    check_scalar(r, "radius")
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    return _ball(m, x, r, le if mode == "closed" else lt)


def diameter(m: FiniteMetricSpace, s: Iterable[int]) -> Scalar:
    """Largest pairwise distance within s; the empty set has no diameter."""
    return _diameter(m, set(m.check_points(tuple(s))))


def set_distance(m: FiniteMetricSpace, a: Iterable[int], b: Iterable[int]):
    """min d(x, y) over x in a, y in b; INF when either side is empty."""
    return _set_distance(m, set(m.check_points(tuple(a))), set(m.check_points(tuple(b))))


# The unchecked forms below are for points already known to be indices of
# m, such as cover members, and radii known to be exact; they skip the checks.

def _ball(m: FiniteMetricSpace, x: int, r: Scalar, within) -> frozenset[int]:
    """The points q with within(d(x, q), r): the closed ball for
    operator.le, the open one for operator.lt."""
    return frozenset(compress(range(len(m)), map(within, m.dist[x], repeat(r))))


def _diameter(m: FiniteMetricSpace, s: Iterable[int]) -> Scalar:
    """Largest distance between points of s, found in one C-level pass over
    the integer rows of s gathered at s."""
    s = tuple(s)
    if not s:
        raise ValueError("diameter of the empty set is undefined")
    if len(s) == 1:
        return 0
    rows = m.integer_rows()
    gather = itemgetter(*s)
    top = max(map(max, map(gather, map(rows.__getitem__, s))))
    return m._scalar(top)


def _set_distance(m: FiniteMetricSpace, a: Iterable[int], b: Iterable[int]):
    b = list(b)
    if not b:
        return INF
    return min((min(map(m.dist[x].__getitem__, b)) for x in a), default=INF)
