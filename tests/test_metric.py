"""Metric spaces, graph metrics, balls and distances."""

import random
import re
from fractions import Fraction

import pytest

from coarsedim import (INF, Cover, FiniteMetricSpace, asdim_profile, ball,
                       build_graph_metric, certify, cyclic_group, dihedral_group,
                       diameter, greedy_cover, quotient, set_distance, validate_action,
                       validate_metric)
from coarsedim.generators import (cayley_ball_space, cycle_space, generate_instance,
                                  grid_rotation_action, grid_space, path_reflection_action,
                                  path_space, random_graph_space, random_invariant_instance)
from coarsedim.metric import _all_clear, _list_violations, check_positive

from oracles import dijkstra_metric, floyd_warshall_metric


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FiniteMetricSpace([], [])
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, 1]])
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0, 2]])


def test_construction_rejects_floats():
    with pytest.raises(TypeError):
        FiniteMetricSpace(["a", "b"], [[0, 1.0], [1.0, 0]])
    with pytest.raises(TypeError):
        FiniteMetricSpace(["a", "b"], [[0, True], [True, 0]])


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, INF])
def test_construction_names_first_bad_entry(bad):
    # exact rows pass in one check; a row with anything else is checked
    # entry by entry, so the first bad entry in reading order is named
    half = Fraction(1, 2)
    dist = [[0, 1, half, 2], [1, 0, bad, 1.5], [half, bad, 0, 1], [2, 1.5, 1, 0]]
    with pytest.raises(TypeError) as info:
        FiniteMetricSpace(["a", "b", "c", "d"], dist)
    assert str(info.value) == f"dist[1][2] must be an int or Fraction, got {bad!r}"


@pytest.mark.parametrize("dist, error, message", [
    ([[0, 1.5, 2], [1.5, 0], [2, 1, 0]], TypeError,
     "dist[0][1] must be an int or Fraction, got 1.5"),
    ([[0, 1], [1, True]], TypeError, "dist[1][1] must be an int or Fraction, got True"),
    ([[0, 1, 2], [1, 0], [2, 1, 0]], ValueError,
     "distance table row 1 has length 2, expected 3"),
    ([[0, 2.5], 7], TypeError, "dist[0][1] must be an int or Fraction, got 2.5"),
    ([[0, 1], 7], TypeError, "'int' object is not iterable"),
], ids=["float-before-short-row", "bool", "short-row", "float-before-int-row",
        "int-row"])
def test_construction_raises_the_first_fault_in_reading_order(dist, error, message):
    # The whole table is checked in one pass; on a failure the row-by-row
    # loop names the first fault, as the constructor always has.
    with pytest.raises(error) as info:
        FiniteMetricSpace([str(i) for i in range(len(dist))], dist)
    assert str(info.value) == message


@pytest.mark.parametrize("scale", [1, 2 ** 62], ids=["machine-lanes", "wide-lanes"])
def test_a_negative_entry_is_listed_like_any_other_violation(scale):
    # P4 with d(0,3) = -1: identity and symmetry hold, so the all-clear
    # pass reaches the packing, where the unsigned lanes refuse the entry.
    # Scaled by 2**62 the entries need more than 8 bytes a lane.
    dist = [[abs(i - j) * scale for j in range(4)] for i in range(4)]
    dist[0][3] = dist[3][0] = -1
    m = FiniteMetricSpace("abcd", dist)
    assert not _all_clear(m)
    listing = _list_violations(m)
    assert validate_metric(m) == listing
    assert [(v.kind, v.subject) for v in listing][:1] == [("positivity", (0, 3))]


def test_construction_accepts_int_subclasses():
    class Length(int):
        pass

    m = FiniteMetricSpace(["a", "b"], [[0, Length(3)], [Length(3), 0]])
    assert validate_metric(m) == []


def test_fractions_are_welcome():
    half = Fraction(1, 2)
    m = FiniteMetricSpace(["a", "b"], [[0, half], [half, 0]])
    assert validate_metric(m) == []
    assert m.d(0, 1) == Fraction(1, 2)


def test_a_space_scales_its_table_once(integer_table_builds):
    # Load checks and cover measurements all read one integer table per
    # space: a Fraction table is scaled on first use and kept, and a table
    # of plain ints is its own.
    path = path_space(6)
    m = FiniteMetricSpace(path.points, [[Fraction(v, 3) for v in row]
                                        for row in path.dist], name="P6/3")
    assert validate_metric(m) == []
    cert = certify(Cover(m, [[0, 1, 2, 3], [2, 3, 4, 5]]))
    assert (cert.lebesgue, cert.mesh) == (Fraction(2, 3), 1)
    assert validate_action(path_reflection_action(m)) == []
    assert integer_table_builds == [m.dist]
    assert m.integer_rows() == tuple(map(tuple, path.dist))

    assert path.integer_rows() is path.dist
    assert validate_metric(path) == []
    certify(Cover(path, [[0, 1, 2, 3], [2, 3, 4, 5]]))
    assert validate_action(path_reflection_action(path)) == []
    assert len(integer_table_builds) == 1


def test_a_space_keeps_its_diameter(integer_table_builds):
    # The largest entry sits in row 1 here, not row 0.  A Fraction table
    # is scaled to find it, on first use and once; construction does not.
    # The diameter is canonical: a Fraction here, an int when it is whole.
    m = FiniteMetricSpace("abc", [[0, Fraction(1, 2), 1],
                                  [Fraction(1, 2), 0, Fraction(3, 2)],
                                  [1, Fraction(3, 2), 0]])
    assert integer_table_builds == []
    d = m.diameter()
    assert (d, type(d)) == (Fraction(3, 2), Fraction)
    assert m.diameter() is d
    assert len(integer_table_builds) == 1
    assert diameter(m, range(3)) == m.diameter()

    ints = FiniteMetricSpace("abc", [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert ints.diameter() == 3 == diameter(ints, range(3))
    assert type(ints.diameter()) is int
    assert FiniteMetricSpace("a", [[0]]).diameter() == 0
    assert len(integer_table_builds) == 1
    whole = FiniteMetricSpace("ab", [[0, Fraction(2)], [Fraction(2), 0]])
    assert (whole.diameter(), type(whole.diameter())) == (2, int)


def test_validate_metric_flags_each_axiom():
    m = FiniteMetricSpace(["a", "b", "c"],
                          [[1, 2, 9],
                           [2, 0, 1],
                           [3, 1, 0]])
    kinds = {v.kind for v in validate_metric(m)}
    assert kinds == {"identity", "symmetry", "triangle"}

    zero = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
    assert {v.kind for v in validate_metric(zero)} == {"positivity"}


def test_generator_outputs_pass_the_all_clear_check():
    # Every space the generators make, and the quotient of each canonical
    # action, is a metric that the all-clear pass accepts on its own, so
    # that loading it never falls through to the per-triple listing.  Each
    # has a byte table, whose rows are bytes(row) of its integer rows; a
    # 258-point path, whose entries reach 257, has none and passes too.
    spaces = [path_space(12), cycle_space(11), grid_space(3, 5), grid_space(30, 30),
              cayley_ball_space(30, (1, 7, 11), 2), random_graph_space(40, 7),
              random_graph_space(150, 3, edge_chance=Fraction(1, 50), max_weight=5)]
    for seed, group in enumerate((cyclic_group(3), cyclic_group(4), dihedral_group(3))):
        space, action = random_invariant_instance(group, 4, seed)
        spaces += [space, quotient(action).space]
    for kind, params in (("path", {"n": "9"}), ("cycle", {"n": "10"}),
                         ("cycle", {"n": "9", "action": "reflection"}),
                         ("grid", {"w": "30", "h": "30"}), ("grid", {"w": "4", "h": "7"})):
        spaces.append(quotient(generate_instance(kind, params).action).space)
    for m in spaces:
        n, flat = len(m), m.byte_table()
        assert [flat[k:k + n] for k in range(0, n * n, n)] == list(
            map(bytes, m.integer_rows())), m.name
        assert _all_clear(m), m.name
        assert validate_metric(m) == [], m.name
    long = path_space(258)
    assert long.byte_table() is None
    assert _all_clear(long) and validate_metric(long) == []


def test_equality_ignores_name():
    p = path_space(4)
    a = FiniteMetricSpace(p.points, p.dist, name="one")
    b = FiniteMetricSpace(p.points, p.dist, name="two")
    assert a == b
    assert a != path_space(5)


def test_point_lookup():
    m = path_space(4)
    assert m.index("2") == 2
    with pytest.raises(KeyError):
        m.index("9")
    with pytest.raises(ValueError):
        m.check_point(7)
    with pytest.raises(ValueError):
        m.check_point(True)


def test_points_and_dist_cannot_be_reassigned():
    # The space keeps values derived from them (integer rows, diameter), so
    # a new table would leave those stale: validate_metric would pass this
    # one, with its two triangle violations, and the diameter would stay 2.
    m = path_space(3)
    m.diameter()
    bent = ((0, 5, 1), (5, 0, 1), (1, 1, 0))
    assert len(validate_metric(FiniteMetricSpace(m.points, bent))) == 2
    for field, value in (("dist", bent), ("points", ("a", "b", "c"))):
        with pytest.raises(AttributeError, match=f"the {field} of"):
            setattr(m, field, value)
    assert m.dist == path_space(3).dist and m.points == ("0", "1", "2")
    assert validate_metric(m) == [] and m.diameter() == 2
    # Nor can the name: renaming is building the space again.
    with pytest.raises(AttributeError, match="the name of"):
        m.name = "renamed"
    renamed = FiniteMetricSpace(m.points, m.dist, name="renamed")
    assert renamed == m and renamed.name == "renamed" and renamed.index("2") == 2


def _core_objects():
    """One object of each core class, by field name: every public field its
    constructor sets."""
    m = path_space(3)
    a = path_reflection_action(m)
    return [(m, ("points", "dist", "name")),
            (a.group, ("elements", "mul_table", "name", "identity")),
            (a, ("group", "space", "perms", "name")),
            (Cover(m, [[0, 1, 2]]), ("space", "members", "name"))]


@pytest.mark.parametrize("kind, field", [
    (type(obj).__name__, field) for obj, fields in _core_objects() for field in fields])
def test_no_public_field_can_be_reassigned(kind, field):
    obj = next(obj for obj, _ in _core_objects() if type(obj).__name__ == kind)
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^the {field} of {re.escape(repr(obj))} "
                                             f"cannot be reassigned$"):
        setattr(obj, field, before)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("kind, field", [
    (type(obj).__name__, field) for obj, fields in _core_objects() for field in fields])
def test_no_public_field_can_be_deleted(kind, field):
    obj = next(obj for obj, _ in _core_objects() if type(obj).__name__ == kind)
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^the {field} of {re.escape(repr(obj))} "
                                             f"cannot be deleted$"):
        delattr(obj, field)
    assert getattr(obj, field) is before


def test_a_core_object_takes_no_new_field_and_keeps_each_form_once():
    m = path_space(3)
    with pytest.raises(AttributeError, match="the label of"):
        m.label = "P"
    assert m.diameter() == 2
    with pytest.raises(AttributeError, match="the _diameter of"):
        m._diameter = 5
    assert m.diameter() == 2


def test_graph_metric_square_with_diagonal():
    m = build_graph_metric(["a", "b", "c", "d"],
                           [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                            ("a", "c")],
                           weights=[1, 1, 1, 1, 1])
    assert m.d(m.index("a"), m.index("c")) == 1
    assert m.d(m.index("b"), m.index("d")) == 2
    assert validate_metric(m) == []


@pytest.mark.parametrize("vertices, edges, weights, message", [
    (["a", "a"], [], None, "vertex names must be distinct"),
    ([], [], None, "a graph metric needs at least one vertex"),
    (["a", "b", "c"], [("a", "b"), ("b", "c")], [1], "1 weights for 2 edges"),
], ids=["duplicate-vertex", "no-vertex", "weight-count"])
def test_graph_metric_names_a_bad_shape(vertices, edges, weights, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_graph_metric(vertices, edges, weights)


def test_graph_metric_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph_metric(["a", "b"], [("a", "a")])
    with pytest.raises(ValueError):
        build_graph_metric(["a", "b"], [("a", "x")])
    with pytest.raises(ValueError):
        build_graph_metric(["a", "b"], [("a", "b")], weights=[0])
    with pytest.raises(ValueError) as err:
        build_graph_metric(["a", "b", "c"], [("a", "b")])
    assert "disconnected" in str(err.value) and "'c'" in str(err.value)


def test_generators_reject_sizes_that_are_not_counts():
    # A bool is an int to Python but not a size: it used to go into the name
    # (PTrue, gridTruex2); a float raised a bare TypeError.
    cases = [(path_space, (True,), "n"), (path_space, (2.0,), "n"),
             (cycle_space, (True,), "n"), (grid_space, (True, 2), "width"),
             (grid_space, (2, 2.0), "height"), (random_graph_space, (True, 0), "n"),
             (random_graph_space, (3, 0, Fraction(1, 2), False), "max_weight"),
             (cayley_ball_space, (True, [1], 1), "n"),
             (cayley_ball_space, (5, [1], True), "radius"),
             (random_invariant_instance, (cyclic_group(2), True, 0), "base_size"),
             (random_invariant_instance, (cyclic_group(2), 1.0, 0), "base_size")]
    for make, args, what in cases:
        with pytest.raises(ValueError, match=f"^{what} must be a nonnegative int, got "):
            make(*args)


@pytest.mark.parametrize("make, args, message", [
    (path_space, (0,), "path needs at least one vertex"),
    (cycle_space, (2,), "cycle needs at least three vertices"),
    (grid_space, (0, 3), "grid needs positive dimensions"),
    (grid_rotation_action, (grid_space(2, 3), 3, 3), "grid dimensions do not match the space"),
    (cayley_ball_space, (0, [1], 1), "cyclic order must be >= 1"),
    (random_graph_space, (0, 0), "need at least one vertex"),
    (random_graph_space, (3, 0, Fraction(1, 2), 0), "max_weight must be >= 1"),
    (random_invariant_instance, (cyclic_group(2), 0, 0), "base_size must be >= 1"),
], ids=["path", "cycle", "grid", "grid-rotation", "cayley-ball", "random-graph",
        "random-graph-weight", "invariant-instance"])
def test_generators_refuse_a_size_below_their_least(make, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(*args)


@pytest.mark.parametrize("kind, params, message", [
    ("torus", {}, "unknown instance kind 'torus'"),
    ("cycle", {"action": "spin"}, "unknown cycle action 'spin'"),
    ("cayley-ball", {"gens": "1", "radius": "1"}, "missing parameter 'n'"),
    ("grid", {"w": "2.5"}, "parameter 'w' must be an integer, got '2.5'"),
], ids=["kind", "cycle-action", "missing", "not-an-integer"])
def test_generate_instance_names_a_bad_request(kind, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_instance(kind, params)


def test_random_graph_space_refuses_an_inexact_edge_chance():
    # A float used to raise a raw AttributeError (it has no numerator), and
    # True passed as 1, a complete graph.
    for chance in (0.5, True, False, 1.0, "1/2", Fraction(3, 2), -1):
        with pytest.raises(ValueError, match=r"^edge_chance must be an int or Fraction "
                                             fr"in \[0, 1\], got {re.escape(repr(chance))}$"):
            random_graph_space(6, 0, edge_chance=chance)
    assert len(random_graph_space(6, 0, edge_chance=1)) == 6


def test_graph_metric_matches_dijkstra_oracle():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        vertices = [str(i) for i in range(n)]
        edges = [(str(rng.randrange(v)), str(v)) for v in range(1, n)]
        edges += [(str(rng.randrange(n)), str(rng.randrange(n)))
                  for _ in range(rng.randint(0, 6))]
        edges = [e for e in edges if e[0] != e[1]]
        weights = [rng.randint(1, 5) for _ in edges]
        m = build_graph_metric(vertices, edges, weights)
        table = dijkstra_metric(vertices, edges, weights)
        for u in vertices:
            for v in vertices:
                assert m.d(m.index(u), m.index(v)) == table[u][v]


def test_random_graph_space_is_metric_and_reproducible():
    for seed in range(10):
        m = random_graph_space(7, seed)
        assert validate_metric(m) == []
        assert m == random_graph_space(7, seed)


def test_balls():
    m = path_space(5)
    assert ball(m, 2, 1, "closed") == frozenset({1, 2, 3})
    assert ball(m, 2, 1, "open") == frozenset({2})
    assert ball(m, 0, 10, "closed") == frozenset(range(5))
    with pytest.raises(ValueError):
        ball(m, 2, 1, "half-open")
    with pytest.raises(TypeError):
        ball(m, 2, 1.5)


def test_positive_scales_share_one_check():
    m = path_space(5)
    for value in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match=f"^R must be positive, got {value}$"):
            check_positive(value, "R")
        with pytest.raises(ValueError, match=f"^R must be positive, got {value}$"):
            greedy_cover(m, value)
        with pytest.raises(ValueError, match=f"^scale\\[1\\] must be positive, "
                                             f"got {value}$"):
            asdim_profile(m, [1, value])
    for value in (1.5, True, "1"):
        with pytest.raises(TypeError, match="R must be an int or Fraction"):
            check_positive(value, "R")
    assert check_positive(Fraction(1, 3), "R") == Fraction(1, 3)


def test_diameter_and_set_distance():
    m = path_space(6)
    assert diameter(m, [0, 2, 5]) == 5
    assert diameter(m, [3]) == 0
    with pytest.raises(ValueError):
        diameter(m, [])
    assert set_distance(m, [0, 1], [4, 5]) == 3
    assert set_distance(m, [0, 1], [1, 2]) == 0
    assert set_distance(m, [], [1]) == INF
    assert set_distance(m, [1], []) == INF


def test_public_helpers_reject_bad_indices():
    m = path_space(4)
    message = r"^a point index of 'P4' must be an int in range\(4\), got "
    for bad in (4, -1, True, "0"):
        with pytest.raises(ValueError, match=message):
            ball(m, bad, 1)
        with pytest.raises(ValueError, match=message):
            diameter(m, [0, bad])
        with pytest.raises(ValueError, match=message):
            set_distance(m, [0], [bad])
        with pytest.raises(ValueError, match=message):
            set_distance(m, [bad], [0])
    # True is checked before a set can merge it into 1
    for helper in (lambda s: diameter(m, s), lambda s: set_distance(m, [0], s)):
        with pytest.raises(ValueError, match=message + "True$"):
            helper([1, True])


CAYLEY_BALLS = ((12, (1, 5), 2), (20, (3, 4), 3), (30, (1, 7, 11), 2))


def generator_graphs() -> dict:
    """name -> (vertices, edges) for the graphs behind the generator
    families: grids, paths, cycles and circulant Cayley balls."""
    out = {}
    for w, h in ((1, 1), (1, 5), (3, 4), (6, 6)):
        vertices = [f"{i},{j}" for i in range(w) for j in range(h)]
        edges = [(f"{i},{j}", f"{i + 1},{j}") for i in range(w - 1) for j in range(h)]
        edges += [(f"{i},{j}", f"{i},{j + 1}") for i in range(w) for j in range(h - 1)]
        out[f"grid{w}x{h}"] = vertices, edges
    for n in (2, 7):
        out[f"P{n}"] = ([str(i) for i in range(n)],
                        [(str(i), str(i + 1)) for i in range(n - 1)])
    for n in (3, 8, 11):
        out[f"C{n}"] = ([str(i) for i in range(n)],
                        [(str(i), str((i + 1) % n)) for i in range(n)])
    for n, gens, radius in CAYLEY_BALLS:
        m = cayley_ball_space(n, gens, radius)
        inside = {int(p) for p in m.points}
        steps = {g % n for g in gens} | {-g % n for g in gens}
        edges = [(str(v), str((v + st) % n)) for v in sorted(inside) for st in steps
                 if (v + st) % n in inside and v < (v + st) % n]
        out[m.name] = list(m.points), edges
    return out


def test_graph_metric_matches_dijkstra_oracle_on_generator_graphs():
    graphs = generator_graphs()
    for name, (vertices, edges) in graphs.items():
        rng = random.Random(name)
        for weights in (None, [1] * len(edges),
                        [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in edges]):
            m = build_graph_metric(vertices, edges, weights)
            table = dijkstra_metric(vertices, edges, weights)
            relaxed = floyd_warshall_metric(vertices, edges, weights)
            for u in vertices:
                for v in vertices:
                    assert m.d(m.index(u), m.index(v)) == table[u][v], (name, u, v)
                    assert table[u][v] == relaxed[u][v], (name, u, v)
            if weights is None:
                assert all(type(v) is int for row in m.dist for v in row), name
    # The closed-form generators agree with the graph metrics.
    for closed, name in ((grid_space(3, 4), "grid3x4"), (path_space(7), "P7"),
                         (cycle_space(8), "C8")):
        assert closed.dist == build_graph_metric(*graphs[name]).dist
    for n, gens, radius in CAYLEY_BALLS:
        m = cayley_ball_space(n, gens, radius)
        assert m.dist == build_graph_metric(*graphs[m.name]).dist


def test_disconnected_graph_message_names_first_pair():
    with pytest.raises(ValueError) as err:
        build_graph_metric(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert str(err.value) == "graph is disconnected: no path between 'a' and 'c'"
    with pytest.raises(ValueError) as err:
        build_graph_metric(["a", "b", "c", "d"], [("a", "b"), ("c", "d")],
                           weights=[2, Fraction(1, 2)])
    assert str(err.value) == "graph is disconnected: no path between 'a' and 'c'"
