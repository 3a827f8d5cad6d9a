"""Property tests for the exact fast paths: the ball-test Lebesgue number,
the mesh and the dimension against the definitions, on int, Fraction,
mixed and int-subclass tables, and their per-orbit measurement of an
invariant cover against the measurement at every point; the all-clear
metric and action checks against their full listings; the bitmask exact
search against the partition oracle, with its covers' Lebesgue
number and mesh by the definitions; the greedy first descent's Lebesgue
number, mesh and dimension against the definitions; the ball masks on
integer rows against the table compared entry by entry; the lift's translated
pieces against pieces measured at every coset's own point; and the
document writer against json.dumps."""

import json
import math
from fractions import Fraction
from itertools import chain
from operator import le, lt

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
example = hypothesis.example
settings = hypothesis.settings

from coarsedim import (INF, Cover, CoverCertificate, FiniteGroup, FiniteMetricSpace,
                       Infeasible, IsometricAction, certify, check_equivariance,
                       cyclic_group, dihedral_group, dimension, greedy_cover,
                       lebesgue_number, lift_equivariant, mesh, min_dimension_cover_exact,
                       quotient, validate_action, validate_metric, verify_certificate)
from coarsedim.estimation import _ball_masks
from coarsedim.formats import (Workspace, dumps, lift_trace_to_dict, load_entry, scalar_str,
                               space_from_dict, space_to_dict)
from coarsedim.generators import (cycle_space, grid_rotation_action, grid_space,
                                  path_reflection_action, path_space, random_cover,
                                  random_graph_space, random_invariant_instance)
from coarsedim.groups import _action_all_clear, _list_action_violations
from coarsedim.metric import _all_clear, _list_violations, check_indices

from oracles import (equivariance_witness_direct, lebesgue_direct, lift_pieces_direct,
                     mesh_direct, min_dimension_partition)

# 13 and 37 give entries of 7 to 9 bits, where lanes cross byte boundaries.
SCALES = (1, 2, 13, 37, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7))


class Length(int):
    """A caller's own integer type."""


@st.composite
def graph_metrics(draw, min_points=1, max_points=8):
    """A random graph metric, scaled by an int or a Fraction, with its
    integral entries as the scaling leaves them, as plain ints (a mixed
    table, as formats.space_from_dict yields) or as an int subclass."""
    n = draw(st.integers(min_points, max_points))
    m = random_graph_space(n, draw(st.integers(0, 10 ** 6)),
                           edge_chance=draw(st.sampled_from(
                               (Fraction(0), Fraction(1, 4), Fraction(3, 4)))),
                           max_weight=draw(st.integers(1, 5)))
    scale = draw(st.sampled_from(SCALES))
    integral = draw(st.sampled_from((None, int, Length)))

    def entry(v):
        v = scale * v
        return integral(v.numerator) if integral and v.denominator == 1 else v

    return FiniteMetricSpace(m.points, [list(map(entry, row)) for row in m.dist],
                             name=m.name)


@st.composite
def covers(draw):
    m = draw(graph_metrics(min_points=2))
    n = len(m)
    k = draw(st.integers(1, 5))
    homes = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    members = [{x for x in range(n) if homes[x] == i} for i in range(k)]
    extras = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3))
    members = [s for s in members if s]
    if len(members) == 1:
        members = [set(range(n - 1)), {n - 1}]
    members += [s for s in extras if len(s) < n]
    if draw(st.integers(0, 3)) == 1:
        members.append(set(range(n)))  # a whole-space member: INF
    if draw(st.integers(0, 3)) == 2:
        hole = draw(st.integers(0, n - 1))  # a point in no member: 0
        members = [s - {hole} for s in members if s - {hole}]
    return Cover(m, members, name="drawn")


@given(covers())
def test_lebesgue_number_matches_definition(c):
    expected = lebesgue_direct(c.space, c.members)
    actual = lebesgue_number(c)
    assert actual == expected
    assert scalar_str(actual) == scalar_str(expected)


@given(covers())
def test_mesh_matches_largest_member_diameter(c):
    expected = mesh_direct(c.space, c.members)
    actual = mesh(c)
    assert actual == expected
    assert scalar_str(actual) == scalar_str(expected)


@given(covers())
def test_dimension_matches_count_per_point(c):
    counts = [sum(x in member for member in c.members) for x in range(len(c.space))]
    assert dimension(c) == max(counts) - 1


@st.composite
def exact_problems(draw):
    """A graph metric with R and B drawn from its own distances, so that
    covers must overlap: R at a distance (its open ball stops short of it)
    or halfway between two, above the least distance when it can be; B
    mostly one of the two least distances below the diameter that every
    open R-ball fits in, else any distance (often infeasible)."""
    n = draw(st.sampled_from(range(3, 9)))      # evenly, not small-first
    m = draw(graph_metrics(min_points=n, max_points=n))
    values = sorted({v for row in m.dist for v in row if v > 0})
    radii = values + [Fraction(u + v) / 2 for u, v in zip(values, values[1:])]
    R = draw(st.sampled_from(sorted(radii)[1:] or radii))
    widest = max(max(m.dist[x][y] for x in ball for y in ball)
                 for ball in ([y for y in range(n) if row[y] < R] for row in m.dist))
    tight = [v for v in values[:-1] if v >= widest][:2]   # not the diameter
    B = draw(st.sampled_from(tight) if tight and draw(st.integers(0, 3)) else
             st.sampled_from(values))
    return m, R, B


@given(exact_problems())
def test_exact_search_matches_partition_oracle(problem):
    m, R, B = problem
    expected = min_dimension_partition(m, R, B)
    result = min_dimension_cover_exact(m, R, B)
    if expected is None:
        assert isinstance(result, Infeasible)
        return
    assert dimension(result) == expected
    # measured by the oracles, not certify: the search order decides which
    # minimal cover comes back, and it must keep both bounds
    assert lebesgue_direct(m, result.members) >= R
    assert mesh_direct(m, result.members) <= B


@st.composite
def ball_problems(draw):
    """A graph metric, as built or as loaded from its document, and a radius:
    one of its distances (a tie with entries), one third of the way from one
    to the next, or any int or Fraction up to 20."""
    m = draw(graph_metrics())
    if draw(st.booleans()):
        m = space_from_dict(space_to_dict(m))
    values = sorted(set(chain.from_iterable(m.dist)))
    r = draw(st.one_of(st.sampled_from(values),
                       st.sampled_from([u + (v - u) / 3 for u, v in zip(values, values[1:])]
                                       or values),
                       st.integers(0, 20), st.fractions(0, 20, max_denominator=12)))
    return m, r


@given(ball_problems())
def test_ball_masks_match_the_table_compared_entry_by_entry(problem):
    m, r = problem
    for within in (le, lt):
        assert _ball_masks(m, r, within) == [
            sum(1 << q for q, v in enumerate(row) if within(v, r)) for row in m.dist]


GREEDY_SCALES = (1, Fraction(4, 3), 2, 3)


def grid8x8_two_thirds():
    base = grid_space(8, 8)
    return FiniteMetricSpace(base.points, [[Fraction(2, 3) * v for v in row]
                                           for row in base.dist], name="grid8x8_two_thirds")


@st.composite
def greedy_problems(draw):
    """A path, a cycle, a grid up to 8x8, a seeded random graph or the
    2/3-scaled 8x8 grid, at one of the scales 1, 4/3, 2 and 3."""
    kind = draw(st.sampled_from(("path", "cycle", "grid", "random", "scaled")))
    if kind == "path":
        m = path_space(draw(st.integers(1, 30)))
    elif kind == "cycle":
        m = cycle_space(draw(st.integers(3, 30)))
    elif kind == "grid":
        m = grid_space(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    elif kind == "random":
        m = random_graph_space(draw(st.integers(1, 30)), draw(st.integers(0, 10 ** 6)),
                               edge_chance=draw(st.sampled_from(
                                   (Fraction(0), Fraction(1, 10), Fraction(2, 5)))),
                               max_weight=draw(st.integers(1, 5)))
    else:
        m = grid8x8_two_thirds()
    return m, draw(st.sampled_from(GREEDY_SCALES))


@settings(max_examples=80)
@given(greedy_problems())
@example((grid_space(8, 8), 2))
@example((grid8x8_two_thirds(), Fraction(4, 3)))
def test_greedy_cover_keeps_its_guarantees_by_the_definitions(problem):
    # Lebesgue number >= R and mesh <= 4R, measured by the oracles and not
    # by certify; the certificate it returns is what they measure.
    m, R = problem
    cover, cert = greedy_cover(m, R)
    members = cover.members
    lebesgue, diam = lebesgue_direct(m, members), mesh_direct(m, members)
    counts = [sum(x in member for member in members) for x in range(len(m))]
    assert lebesgue >= R and diam <= 4 * R
    assert (cert.dimension, cert.lebesgue, cert.mesh) == (max(counts) - 1, lebesgue, diam)
    assert len(set(members)) == len(members)
    assert greedy_cover(m, R)[0].members == members


ENTRIES = st.one_of(st.integers(-3, 12),
                    st.fractions(min_value=-2, max_value=12, max_denominator=6))
POSITIVE = st.one_of(st.integers(1, 12),
                     st.fractions(min_value=Fraction(1, 6), max_value=12,
                                  max_denominator=6))


def table(dist):
    return FiniteMetricSpace([f"p{i}" for i in range(len(dist))], dist, name="table")


@st.composite
def dense_tables(draw):
    """A metric with every off-diagonal entry in [k, 2k): no pair has a
    third point on a geodesic, so every pair is a neighbour of the walk."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 40))
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            dist[i][j] = dist[j][i] = draw(st.integers(k, 2 * k - 1))
    return dist


def grid_corners_moved(step):
    """The 10x10 grid, 100 one-byte lanes, with its corner-to-corner
    distance 18 moved by step."""
    dist = [list(row) for row in grid_space(10, 10).dist]
    dist[0][99] = dist[99][0] = 18 + step
    return table(dist)


@st.composite
def tables(draw):
    """A metric with injected faults (a geodesic graph metric of up to 20
    points, so that a neighbour can sit in the top lane, or a dense table),
    or an arbitrary table (half of them symmetric with a zero diagonal, so
    that triangle faults show alone)."""
    source = draw(st.sampled_from(("graph", "dense", "arbitrary")))
    if source != "arbitrary":
        if source == "graph":
            dist = [list(row) for row in draw(graph_metrics(max_points=20)).dist]
        else:
            dist = draw(dense_tables())
        n = len(dist)
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            # A nudge by one unit makes violations with no slack at all.
            value = draw(st.one_of(POSITIVE, ENTRIES, st.sampled_from(
                (dist[i][j] + 1, dist[i][j] - 1, dist[i][j] + Fraction(1, 6)))))
            dist[i][j] = value
            if draw(st.integers(0, 3)):
                dist[j][i] = value
    else:
        n = draw(st.integers(1, 5))
        dist = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        if draw(st.booleans()):
            for i in range(n):
                dist[i][i] = 0
                for j in range(i):
                    dist[i][j] = dist[j][i]
    return table(dist)


@given(tables())
@example(table([[0, -1], [-1, 0]]))                    # negative, else a metric
@example(table([[0, 1, 3], [1, 0, 1], [3, 1, 0]]))     # triangle short by one
@example(table([[0, Fraction(1, 3)], [Fraction(1, 3), 0]]))
# A metric whose 6-bit entries fill 8-bit lanes exactly: a neighbour found
# from the top set bit sits at (bit_length - 1) // lane, not bit_length // lane.
@example(table([[0, 28, 30, 14, 3, 44], [28, 0, 35, 42, 31, 16],
                [30, 35, 0, 44, 27, 39], [14, 42, 44, 0, 17, 53],
                [3, 31, 27, 17, 0, 47], [44, 16, 39, 53, 47, 0]]))
# Not a metric, yet every violation is missed by a walk that marks lanes
# covered without checking the neighbours that cover them.
@example(table([[0, 3, 1, 4, 2], [3, 0, 1, 2, 1], [1, 1, 0, 3, 4],
                [4, 2, 3, 0, 2], [2, 1, 4, 2, 0]]))
# Not a metric, yet reported clear by a walk that covers k once d(i,k) >=
# d(i,j) + d(j,k) - 1, one unit short of the geodesic test.
@example(table([[0, 2, 4, 1, 6], [2, 0, 2, 2, 3], [4, 2, 0, 4, 2],
                [1, 2, 4, 0, 5], [6, 3, 2, 5, 0]]))
# Past the 20 points drawn above: one more breaks 196 triangles through the
# corners, one less is still a metric, passed by the walk alone.
@example(grid_corners_moved(1))
@example(grid_corners_moved(-1))
def test_validate_metric_matches_full_listing(m):
    listing = _list_violations(m)
    assert validate_metric(m) == listing
    assert _all_clear(m) == (listing == [])


def test_validate_metric_at_lane_width_boundaries():
    # Graph metrics whose entries reach 6 to 16 bits, then every distance
    # moved by one in turn: the cases where a lane or guard bit one place
    # off would let a neighbouring lane mask a violation.
    widths = set()
    for max_weight in (30, 40, 60, 80, 10000, 20000):
        for seed in range(3):
            base = random_graph_space(7, seed, max_weight=max_weight).dist
            widths.add(max(map(max, base)).bit_length())
            for i in range(7):
                for j in range(i + 1, 7):
                    for step in (1, -1):
                        dist = [list(row) for row in base]
                        dist[i][j] = dist[j][i] = base[i][j] + step
                        m = table(dist)
                        listing = _list_violations(m)
                        assert validate_metric(m) == listing
                        assert _all_clear(m) == (listing == [])
    assert {6, 7, 8, 14, 15} <= widths


def test_validate_metric_at_machine_lane_boundaries():
    # Entries of 6/7, 14/15, 30/31 and 62/63 bits sit on either side of the
    # 1-, 2-, 4- and 8-byte lanes (an entry of b bits needs b + 2 lane
    # bits); above 64 bits rows are packed entry by entry.  Each table is
    # checked as given, with every distance moved by one in turn, and
    # scaled by 1/3, so that the integer rows come from the LCM scaling.
    widths = set()
    base = random_graph_space(7, 0, max_weight=5).dist
    top = max(map(max, base))
    for bits in (6, 7, 14, 15, 30, 31, 62, 63, 100):
        scaled = [[v * ((2 ** bits - 1) // top) for v in row] for row in base]
        variants = [scaled]
        for i in range(7):
            for j in range(i + 1, 7):
                for step in (1, -1):
                    dist = [list(row) for row in scaled]
                    dist[i][j] = dist[j][i] = scaled[i][j] + step
                    variants.append(dist)
        for dist in variants:
            for m in (table(dist), table([[Fraction(v, 3) for v in row] for row in dist])):
                widths.add(max(map(max, m.integer_rows())).bit_length())
                listing = _list_violations(m)
                assert validate_metric(m) == listing
                assert _all_clear(m) == (listing == [])
    assert {6, 7, 14, 15, 30, 31, 62, 63, 100} <= widths


def one_point_action(order):
    space = FiniteMetricSpace(["p"], [[0]], name="point")
    return IsometricAction(cyclic_group(order), space, [[0]] * order)


def fraction_action():
    path = path_space(5)
    space = FiniteMetricSpace(path.points, [[Fraction(v, 3) for v in row]
                                            for row in path.dist])
    return path_reflection_action(space)


def late_identity_action():
    # Z2 listed as [s, e]: s swaps the ends of an edge of P3, which obeys
    # the law but moves d(0,2), so only s's isometry check can fail.
    z2 = FiniteGroup(["s", "e"], [[1, 0], [0, 1]], name="Z2_late")
    return IsometricAction(z2, path_space(3), [[1, 0, 2], [0, 1, 2]])


def lawless_action():
    # Every permutation of an equilateral triangle is an isometry, so only
    # the action law fails here: g1 g1 is g2, but (0 1)(0 1) is no (0 1).
    space = FiniteMetricSpace("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    return IsometricAction(cyclic_group(3), space, [[0, 1, 2], [1, 0, 2], [1, 0, 2]])


@st.composite
def actions(draw, faulty=True):
    """An invariant instance's action, on its table or a Fraction scaling
    of it, as built or (when faulty) with one fault: two images swapped in
    one permutation, or one symmetric pair of distances changed."""
    group = draw(st.sampled_from((cyclic_group(1), cyclic_group(2), cyclic_group(4),
                                  dihedral_group(3))))
    space, action = random_invariant_instance(group, draw(st.integers(1, 3)),
                                              draw(st.integers(0, 10 ** 6)))
    scale = draw(st.sampled_from((1, Fraction(2, 3))))
    dist = [[scale * v for v in row] for row in space.dist]
    perms = [list(perm) for perm in action.perms]
    n = len(dist)
    fault = draw(st.sampled_from((None, "swap", "distance") if faulty else (None,)))
    if fault and n > 1:
        x = draw(st.integers(0, n - 1))
        y = draw(st.integers(0, n - 1).filter(lambda y: y != x))
        if fault == "swap":
            perm = perms[draw(st.integers(0, len(perms) - 1))]
            perm[x], perm[y] = perm[y], perm[x]
        else:
            dist[x][y] = dist[y][x] = dist[x][y] + draw(st.sampled_from(
                (1, -1, Fraction(1, 3))))
    space = FiniteMetricSpace(space.points, dist, name=space.name)
    return IsometricAction(group, space, perms)


@given(actions())
@example(one_point_action(1))
@example(one_point_action(2))
@example(fraction_action())
@example(lawless_action())
@example(late_identity_action())
def test_validate_action_matches_full_listing(a):
    listing = _list_action_violations(a)
    assert validate_action(a) == listing
    assert _action_all_clear(a) == (listing == [])


def ball_lift(a, r, R=None):
    """An action, its quotient, the cover of the quotient by the closed
    r-balls around its points, and the radius R to lift it at."""
    q = quotient(a)
    members = dict.fromkeys(frozenset(y for y, d in enumerate(row) if d <= r)
                            for row in q.space.dist)
    return a, q, Cover(q.space, members), R


@st.composite
def lift_problems(draw):
    """A valid action, a drawn invariant instance or a grid under the half
    turn, with a cover of its quotient by small balls, lifted at its own
    Lebesgue number or at R = v/4 for a distance v of the space, at most
    four times the least quotient distance (a cover by balls has Lebesgue
    number at least that distance).  The scale s is then small, and 4s is
    a realized displacement, so displacement subgroups are often proper and
    a member's preimage splits into translated pieces."""
    if draw(st.booleans()):
        a = draw(actions(faulty=False))
    else:
        width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        a = grid_rotation_action(grid_space(width, height), width, height)
    values = sorted({v for row in quotient(a).space.dist for v in row})
    least = values[1] if len(values) > 1 else 1
    radii = [Fraction(v) / 4 for v in sorted({v for row in a.space.dist for v in row})
             if 0 < v <= 4 * least]
    return ball_lift(a, draw(st.sampled_from(values[:3])),
                     draw(st.sampled_from([None] + radii)))


@settings(max_examples=60)
@given(lift_problems())
# Singletons on the 9x9 quotient: s = 1, and 34 of its 41 members split in two.
@example(ball_lift(grid_rotation_action(grid_space(9, 9), 9, 9), 0))
# Under D3 at s = 1/4: one member splits over the three conjugate reflection
# subgroups, the other over the two cosets of the rotations.
@example(ball_lift(random_invariant_instance(dihedral_group(3), 2, 3)[1], 0,
                   Fraction(1, 4)))
def test_lift_pieces_match_the_per_coset_definition(problem):
    a, q, c, R = problem
    lifted, trace, _ = lift_equivariant(a, q, c, R)
    assert [(e.fiber, e.basepoint, [(p.rep, p.subgroup, p.piece) for p in e.pieces])
            for e in trace.entries] == lift_pieces_direct(a, q, c, trace.s)
    # The reader rebuilds the trace beside its action and both covers.
    ws = Workspace()
    ws.add("action", a.name, a)
    ws.add("cover", c.name, c)
    ws.add("cover", lifted.name, lifted)
    d = lift_trace_to_dict(trace, a.name, c.name, lifted.name)
    assert load_entry(d, ws)[2:] == (trace, [])


def orbit_problem(a, seed, kind):
    """An action and a cover of its space: the orbit closure of a random
    cover, the same with each member replaced by the union of its images
    (a member F fixes), a random cover of the quotient lifted, or a random
    cover as drawn, which is seldom invariant."""
    c = random_cover(a.space, seed)
    if kind in ("closure", "saturated"):
        images = [[frozenset(map(perm.__getitem__, member)) for perm in a.perms]
                  for member in c.members]
        if kind == "saturated":
            images = [[frozenset().union(*orbit)] for orbit in images]
        return a, Cover(a.space, dict.fromkeys(chain.from_iterable(images)))
    if kind == "lifted":
        q = quotient(a)
        return a, lift_equivariant(a, q, random_cover(q.space, seed))[0]
    return a, c


@st.composite
def orbit_problems(draw):
    """orbit_problem on a random invariant instance of Z2, Z3, Z4, Z6, D3 or
    D4, on its int table or that table scaled by 2/3."""
    group = draw(st.sampled_from((cyclic_group(2), cyclic_group(3), cyclic_group(4),
                                  cyclic_group(6), dihedral_group(3), dihedral_group(4))))
    space, action = random_invariant_instance(group, draw(st.integers(1, 4)),
                                              draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        space = FiniteMetricSpace(space.points, [[Fraction(2, 3) * v for v in row]
                                                 for row in space.dist], name=space.name)
        action = IsometricAction(group, space, action.perms)
    return orbit_problem(action, draw(st.integers(0, 10 ** 6)),
                         draw(st.sampled_from(("closure", "saturated", "lifted", "drawn"))))


@given(orbit_problems())
# The half turn of a 3x5 grid fixes its centre.  Both covers are invariant,
# with no whole-space member, and have members F fixes that hold the centre.
@example(orbit_problem(grid_rotation_action(grid_space(3, 5), 3, 5), 2, "closure"))
@example(orbit_problem(grid_rotation_action(grid_space(3, 5), 3, 5), 1, "lifted"))
def test_per_orbit_certificate_is_the_full_measurement(problem):
    a, c = problem
    witness = equivariance_witness_direct(a, c.members)
    assert check_equivariance(a, c) == (witness is None, witness)
    cert = certify(Cover(c.space, c.members), action=a)
    plain = certify(Cover(c.space, c.members))
    assert (cert.equivariant, plain.equivariant) == (witness is None, None)
    full = (dimension(c), lebesgue_number(c), mesh(c))
    for measured in ((cert.dimension, cert.lebesgue, cert.mesh),
                     (plain.dimension, plain.lebesgue, plain.mesh)):
        assert measured == full
        assert list(map(type, measured)) == list(map(type, full))
    assert verify_certificate(c, cert, action=a) == []
    if witness is None:
        # One unit of the integer table off the mesh or the Lebesgue number.
        unit = Fraction(1, math.lcm(*(Fraction(v).denominator
                                      for row in c.space.dist for v in row)))
        tampered = [CoverCertificate(cert.dimension, cert.lebesgue, cert.mesh + unit,
                                     equivariant=True)]
        if cert.lebesgue != INF:
            tampered.append(CoverCertificate(cert.dimension, cert.lebesgue - unit,
                                             cert.mesh, equivariant=True))
        for bad, field in zip(tampered, ("mesh", "lebesgue")):
            assert [v.subject for v in verify_certificate(c, bad, action=a)] == [(field,)]


# Strings with what JSON escapes (quotes, backslashes, control characters)
# and what ensure_ascii=False leaves alone (non-ASCII, line separators).
json_strings = st.text(st.one_of(st.characters(),
                                 st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé漢\u2028🙂')),
                       max_size=8)
json_ints = st.one_of(st.integers(-1000, 1000), st.integers(min_value=2 ** 64),
                      st.integers(max_value=-2 ** 64))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), json_ints, json_strings,
              st.lists(json_strings, max_size=4), st.lists(json_ints, max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=20)


@given(json_values)
def test_dumps_is_json_dumps_with_two_space_indent(value):
    assert dumps(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def first_non_index(values, n):
    """The first element, by a plain loop, that is not an int in range(n) (a
    bool is not one), as a 1-tuple; None when there is none."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
            return (v,)
    return None


@given(st.integers(0, 6),
       st.lists(st.one_of(st.integers(-3, 9), st.booleans(), st.floats(-3, 9),
                          st.text(max_size=2), st.builds(Length, st.integers(-3, 9))),
                max_size=8))
@example(5, [0, 1, 2])
@example(5, [4, 3, 2, 1.0, 0])
@example(0, [])
def test_check_indices_is_the_element_by_element_rule(n, values):
    bad = first_non_index(values, n)
    if bad is None:
        assert check_indices(values, n, "x") is values
    else:
        with pytest.raises(ValueError) as info:
            check_indices(values, n, "x")
        assert str(info.value) == f"x must be an int in range({n}), got {bad[0]!r}"
