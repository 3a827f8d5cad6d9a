"""Groups, actions, orbits, quotients and the small group-theory toolbox."""

import hashlib
import itertools
import json
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from coarsedim import (FiniteGroup, FiniteMetricSpace, IsometricAction, coset_representatives,
                       cyclic_group, dihedral_group, equivariant_cover_pipeline,
                       generated_subgroup, is_subgroup, orbits, quotient, validate_action,
                       validate_group, validate_metric)
from coarsedim.formats import space_from_dict, space_to_dict
from coarsedim.generators import (cycle_rotation_action, cycle_space,
                                  grid_rotation_action, grid_space,
                                  path_reflection_action, path_space,
                                  random_invariant_instance)

from oracles import (invariant_instance_direct, quotient_distance_direct,
                     subgroup_closure_direct)


def test_cyclic_and_dihedral_are_groups():
    for n in (1, 2, 3, 6):
        assert validate_group(cyclic_group(n)) == []
    for n in (3, 4, 5):
        g = dihedral_group(n)
        assert len(g) == 2 * n
        assert validate_group(g) == []
    with pytest.raises(ValueError):
        dihedral_group(2)


def test_group_requires_identity():
    # x*y = constant 0 has no identity among two elements
    with pytest.raises(ValueError):
        FiniteGroup(["a", "b"], [[1, 1], [1, 1]])


def test_validate_group_catches_broken_table():
    # left-multiplication rows are fine but associativity fails
    g = FiniteGroup(["e", "a", "b"],
                    [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    kinds = {v.kind for v in validate_group(g)}
    assert "associativity" in kinds


def test_element_order_and_inverse():
    g = cyclic_group(6)
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.element_order(3) == 2
    assert g.mul(g.inverse(4), 4) == g.identity
    assert g.index("5") == 5


def test_elements_and_mul_table_cannot_be_reassigned():
    # The group keeps its identity, found from the table at construction.
    g = cyclic_group(2)
    for field, value in (("mul_table", ((1, 0), (0, 1))), ("elements", ("a", "b"))):
        with pytest.raises(AttributeError, match=f"the {field} of"):
            setattr(g, field, value)
    assert (g.elements, g.mul_table, g.identity) == (("0", "1"), ((0, 1), (1, 0)), 0)
    # Nor can the name: renaming is building the group again.
    with pytest.raises(AttributeError, match="the name of"):
        g.name = "C2"
    renamed = FiniteGroup(g.elements, g.mul_table, name="C2")
    assert renamed == g and renamed.name == "C2" and renamed.index("1") == 1
    with pytest.raises(KeyError, match="unknown element 'a' in group 'C2'"):
        renamed.index("a")


def test_the_identity_cannot_be_reassigned():
    # It was found from the table; another would make the generated
    # subgroup of no generators (1,), which is no subgroup of Z3.
    g = cyclic_group(3)
    with pytest.raises(AttributeError, match="the identity of"):
        g.identity = 1
    assert g.identity == 0 and generated_subgroup(g, []) == (0,)


@pytest.mark.parametrize("elements, mul, message", [
    ([], [], "a group needs at least one element"),
    (["a", "a"], [[0, 1], [1, 0]], "element names must be distinct"),
    (["a", "b"], [[0, 1]], "multiplication table has 1 rows for 2 elements"),
], ids=["no-element", "duplicate-element", "row-count"])
def test_group_names_a_bad_shape(elements, mul, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteGroup(elements, mul)


def test_an_element_with_no_inverse_is_named():
    # e is a two-sided identity, and a*a = a: a has no inverse, and its
    # powers never reach e.
    g = FiniteGroup(["e", "a"], [[0, 1], [1, 1]], name="monoid")
    with pytest.raises(ValueError, match="^element 'a' of 'monoid' has no inverse$"):
        g.inverse(1)
    with pytest.raises(ValueError, match="^element 'a' generates no finite cycle; "
                                         "table is not a group$"):
        g.element_order(1)


@pytest.mark.parametrize("make, args, message", [
    (cyclic_group, (0,), "cyclic group order must be >= 1"),
], ids=["cyclic"])
def test_group_builders_refuse_an_empty_group(make, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(*args)


def test_a_left_identity_is_not_enough():
    # Both rows are 0, 1 (both elements are left identities), but neither
    # column is, so the table has no two-sided identity.
    with pytest.raises(ValueError, match="'half' has no two-sided identity"):
        FiniteGroup(["a", "b"], [[0, 1], [0, 1]], name="half")


@pytest.mark.parametrize("bad, message", [
    (6, "a table entry in row 3 must be an int in range(6), got 6"),
    (-1, "a table entry in row 3 must be an int in range(6), got -1"),
    (True, "a table entry in row 3 must be an int in range(6), got True"),
    ("2", "a table entry in row 3 must be an int in range(6), got '2'"),
    (None, "multiplication table row 3 has length 5"),
])
def test_group_table_names_its_first_fault(bad, message):
    # The whole table is checked in one pass; a fault is then named by its
    # row, and only the first in reading order: row 3 here, although row 5
    # has a bad entry too.
    mul = [list(row) for row in cyclic_group(6).mul_table]
    mul[5][0] = 9
    if bad is None:
        del mul[3][2]
    else:
        mul[3][2] = bad
    with pytest.raises(ValueError) as raised:
        FiniteGroup([str(i) for i in range(6)], mul)
    assert str(raised.value) == message


def test_action_constructor_rejects_non_bijections():
    m = path_space(3)
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        IsometricAction(g, m, [[0, 1, 2], [0, 0, 2]])
    with pytest.raises(ValueError):
        IsometricAction(g, m, [[0, 1, 2]])


def test_canonical_actions_validate():
    actions = [
        path_reflection_action(path_space(5)),
        path_reflection_action(path_space(9)),
        cycle_rotation_action(cycle_space(8), 4),
        cycle_rotation_action(cycle_space(6), 2),
        grid_rotation_action(grid_space(4, 4), 4, 4),
        grid_rotation_action(grid_space(3, 3), 3, 3),
    ]
    for a in actions:
        assert validate_action(a) == []


def test_validate_action_catches_non_isometry():
    m = path_space(3)
    g = cyclic_group(2)
    # swapping an endpoint with the middle is a bijection but no isometry
    a = IsometricAction(g, m, [[0, 1, 2], [1, 0, 2]])
    kinds = {v.kind for v in validate_action(a)}
    assert "isometry" in kinds


def test_orbits_of_path_reflection():
    a = path_reflection_action(path_space(5))
    assert orbits(a) == [(0, 4), (1, 3), (2,)]


def test_quotient_of_path_reflection_frozen():
    q = quotient(path_reflection_action(path_space(5)))
    assert q.space.points == ("0", "1", "2")
    assert q.space.name == "P5_mod_Z2"
    assert q.space.dist == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert q.fibers == ((0, 4), (1, 3), (2,))


def test_quotient_of_cycle_antipodal_frozen():
    q = quotient(cycle_rotation_action(cycle_space(4), 2))
    assert len(q.space) == 2
    assert q.space.dist[0][1] == 1
    assert validate_metric(q.space) == []


def test_quotient_matches_direct_definition():
    grid = grid_space(8, 8)
    scaled = FiniteMetricSpace(grid.points,
                               [[Fraction(2, 3) * v for v in row] for row in grid.dist])
    # One orbit of several points: a gather of one representative is a bare
    # value, not a tuple.
    one_orbit = cycle_rotation_action(cycle_space(6), 1)
    assert len(quotient(one_orbit).space) == 1
    # A loaded table mixes ints ("2") and Fractions ("2/3").
    path = path_space(6)
    loaded = path_reflection_action(space_from_dict(space_to_dict(FiniteMetricSpace(
        path.points, [[Fraction(2, 3) * v for v in row] for row in path.dist],
        name="P6_two_thirds"))))
    assert set(map(type, loaded.space.dist[0])) == {int, Fraction}
    cases = [
        path_reflection_action(path_space(7)),
        cycle_rotation_action(cycle_space(8), 4),
        cycle_rotation_action(cycle_space(6), 2),
        grid_rotation_action(grid_space(3, 3), 3, 3),
        IsometricAction(cyclic_group(1), path_space(5), [range(5)]),
        IsometricAction(cyclic_group(2), FiniteMetricSpace(["x"], [[0]]), [[0], [0]]),
        random_invariant_instance(dihedral_group(3), 2, 0)[1],
        random_invariant_instance(dihedral_group(4), 2, 1)[1],
        grid_rotation_action(scaled, 8, 8),
        one_orbit,
        loaded,
    ]
    for seed in range(5):
        group = cyclic_group(random.Random(seed).randint(2, 4))
        cases.append(random_invariant_instance(group, 2, seed)[1])
    for a in cases:
        assert validate_action(a) == []
        q = quotient(a)
        assert validate_metric(q.space) == []
        if a.space.integer_rows() is a.space.dist:   # an int table's quotient is one
            assert q.space.integer_rows() is q.space.dist
        for i, fi in enumerate(q.fibers):
            for j, fj in enumerate(q.fibers):
                expected = quotient_distance_direct(a, fi[0], fj[0])
                if i == j:
                    expected = 0
                assert q.space.dist[i][j] == expected


def test_quotient_distance_is_representative_independent():
    a = grid_rotation_action(grid_space(4, 4), 4, 4)
    q = quotient(a)
    m = a.space
    for i, fi in enumerate(q.fibers):
        for j, fj in enumerate(q.fibers):
            if i == j:
                continue
            values = {min(m.dist[x][y] for y in fj) for x in fi}
            assert values == {q.space.dist[i][j]}


def test_quotient_is_kept_on_its_action():
    a = cycle_rotation_action(cycle_space(4), 2)
    assert quotient(a) is quotient(a)


@pytest.mark.parametrize("target, field, value, name", [
    ("action", "space", lambda a: FiniteMetricSpace(a.space.points, a.space.dist,
                                                    name=a.space.name), "C4_mod_Z2"),
    ("action", "group", lambda a: cyclic_group(2), "C4_mod_Z2"),
    ("action", "perms", lambda a: tuple(list(a.perms)), "C4_mod_Z2"),
    ("action", "perms", lambda a: ((0, 1, 2, 3), (0, 3, 2, 1)), "C4_mod_Z2"),
    ("space", "name", lambda a: "renamed", "renamed_mod_Z2"),
    ("group", "name", lambda a: "C2", "C4_mod_C2"),
    ("quotient", "name", lambda a: "mine", "C4_mod_Z2"),
], ids=["space-copied", "group-copied", "perms-copied", "perms-reflection",
        "space-renamed", "group-renamed", "quotient-renamed"])
def test_quotient_is_built_again_after_its_inputs_change(target, field, value, name):
    # An input changes only through a constructor.  Reassigning it (on the
    # action, its space or group, or the kept quotient space) is refused
    # and leaves the kept quotient as it was; a new action on the changed
    # inputs builds its own quotient, named after them.
    a = cycle_rotation_action(cycle_space(4), 2)
    q = quotient(a)
    new = value(a)
    obj = {"action": a, "space": a.space, "group": a.group, "quotient": q.space}[target]
    with pytest.raises(AttributeError, match=f"the {field} of"):
        setattr(obj, field, new)
    assert quotient(a) is q and q.space.name == "C4_mod_Z2" and q.source is a.space
    inputs = {"group": a.group, "space": a.space, "perms": a.perms}
    if target == "action":
        inputs[field] = new
    elif target == "space":
        inputs["space"] = FiniteMetricSpace(a.space.points, a.space.dist, name=new)
    elif target == "group":
        inputs["group"] = FiniteGroup(a.group.elements, a.group.mul_table, name=new)
    changed = IsometricAction(**inputs)
    fresh = quotient(changed)
    assert fresh is not q and quotient(changed) is fresh
    assert fresh.space.name == name and fresh.source is changed.space
    for i, fiber in enumerate(fresh.fibers):
        for j, other in enumerate(fresh.fibers):
            assert fresh.space.dist[i][j] == quotient_distance_direct(changed, fiber[0],
                                                                       other[0])


def test_a_quotient_space_is_frozen():
    q = quotient(cycle_rotation_action(cycle_space(4), 2))
    for field in ("space", "source", "orbit_of", "fibers"):
        with pytest.raises(FrozenInstanceError):
            setattr(q, field, getattr(q, field))


def test_quotient_then_pipeline_builds_one_quotient(quotient_builds):
    a = path_reflection_action(path_space(9))
    q = quotient(a)
    assert equivariant_cover_pipeline(a, 2).quotient is q
    assert quotient_builds == ["P9_reflect"]


def test_generated_subgroup_and_cosets():
    g = dihedral_group(4)
    r1 = g.index("r1")
    rotations = generated_subgroup(g, [r1])
    assert len(rotations) == 4
    assert is_subgroup(g, rotations)
    reps = coset_representatives(g, rotations)
    assert len(reps) == 2 and reps[0] == g.identity
    with pytest.raises(ValueError):
        coset_representatives(g, [g.index("s0")])  # not closed
    assert generated_subgroup(g, []) == (g.identity,)
    # The lift calls unchecked forms of both on subgroups it generated
    # itself; the public functions still check what they are given.
    for bad in (8, -1, True, 1.0):
        with pytest.raises(ValueError, match=r"must be an int in range\(8\)"):
            coset_representatives(g, [g.identity, bad])
        with pytest.raises(ValueError, match=r"must be an int in range\(8\)"):
            generated_subgroup(g, [r1, bad])


def test_generated_subgroup_matches_all_pairs_closure():
    for g in (dihedral_group(4), cyclic_group(6)):
        for k in range(len(g) + 1):
            for gens in itertools.combinations(range(len(g)), k):
                assert generated_subgroup(g, gens) == subgroup_closure_direct(g, gens)
        assert generated_subgroup(g, []) == (g.identity,)
        with pytest.raises(ValueError, match=fr"^a generator of '{g.name}' must be an int "
                                             fr"in range\({len(g)}\), got 8$"):
            generated_subgroup(g, [0, 8])


def test_is_subgroup_matches_the_definition():
    # a subset is a subgroup when it holds the identity, each member's
    # inverse and each product of two members
    klein = FiniteGroup(["e", "a", "b", "c"],
                        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                        name="V4")
    for g in (cyclic_group(1), cyclic_group(4), cyclic_group(6), dihedral_group(3),
              dihedral_group(4), klein):
        for k in range(len(g) + 1):
            for subset in itertools.combinations(range(len(g)), k):
                s = set(subset)
                expected = (g.identity in s and all(g.inverse(a) in s for a in s)
                            and all(g.mul(a, b) in s for a in s for b in s))
                assert is_subgroup(g, subset) == expected, (g.name, subset)


def test_random_invariant_instances_are_valid():
    for seed in range(8):
        rng = random.Random(seed)
        group = cyclic_group(rng.randint(2, 5))
        space, action = random_invariant_instance(group, rng.randint(1, 3), seed)
        assert validate_metric(space) == []
        assert validate_action(action) == []
        assert space == random_invariant_instance(group, len(space) // len(group), seed)[0]


def test_random_invariant_instances_match_the_floyd_warshall_oracle():
    # D3 listed as s0, r1, r0, s2, s1, r2: its identity r0 is element 2.
    d3 = dihedral_group(3)
    order = (3, 1, 0, 5, 2, 4)
    position = {old: new for new, old in enumerate(order)}
    moved = FiniteGroup([d3.elements[a] for a in order],
                        [[position[d3.mul(a, b)] for b in order] for a in order],
                        name="D3moved")
    assert moved.identity == 2
    # Z2 x Z3 with its elements named as pairs; (a, b) is element 3a + b.
    pairs = FiniteGroup(["(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)"],
                        [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4],
                         [3, 4, 5, 0, 1, 2], [4, 5, 3, 1, 2, 0], [5, 3, 4, 2, 0, 1]],
                        name="Z2xZ3")
    groups = [cyclic_group(k) for k in range(1, 7)] + [d3, dihedral_group(4), pairs, moved]
    for group in groups:
        for base in range(1, 9):
            for seed in (0, 1, 29):
                space, action = random_invariant_instance(group, base, seed)
                points, table, perms, name, action_name = invariant_instance_direct(
                    group, base, seed)
                assert space.points == tuple(points), (group.name, base, seed)
                assert space.dist == tuple(map(tuple, table)), (group.name, base, seed)
                assert action.perms == tuple(map(tuple, perms)), (group.name, base, seed)
                assert (space.name, action.name) == (name, action_name)


@pytest.mark.parametrize("group, base, seed, digest", [
    (dihedral_group(4), 8, 0, "af15e097cde46a64d1a9d48e12701b6fe2114c1f305a386070a94b3525143e9f"),
    (dihedral_group(4), 8, 7, "cc32bf98563c7fa92b398d59febb30ccccae6afff0e5327d14927db9b0d61766"),
    (cyclic_group(6), 5, 0, "6c0a4b59c66a5739e8d059f700cefd635fa3a47813567a69cfe09734c85a439b"),
    (cyclic_group(6), 5, 7, "8bedbe1e3912547f7c9daddcc36b54516f12d138e16026b78969342bd8b1dbb4"),
    (dihedral_group(3), 2, 0, "749d304726db1a3894929f0b2b940d2abf7bc43e3cd93f9306acd37821e02994"),
    (dihedral_group(3), 2, 7, "1a683c0ffb18b45d833588e1dfd5c2b84943559d09db323911eb6ac2437ca143"),
])
def test_random_invariant_instance_tables_are_frozen(group, base, seed, digest):
    # sha256 of the JSON table: a rewrite of the generator that changes the
    # drawn corpus fails here, and in the benchmark's stored answers.
    space = random_invariant_instance(group, base, seed)[0]
    assert hashlib.sha256(json.dumps(space.dist).encode()).hexdigest() == digest
