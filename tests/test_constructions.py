"""Pushforward, equivariant lift and their certified bounds."""

import random

import pytest

from coarsedim import (Cover, check_equivariance, dimension, displacement_subgroup,
                       lebesgue_number, lift_equivariant, mesh,
                       pushforward_cover, quotient, set_distance, validate_cover)
from coarsedim.generators import (cycle_rotation_action, cycle_space,
                                  grid_rotation_action, grid_space,
                                  path_reflection_action, path_space,
                                  random_cover, random_invariant_instance)
from coarsedim.groups import cyclic_group


def test_pushforward_of_path_halves_frozen():
    m = path_space(5)
    a = path_reflection_action(m)
    q = quotient(a)
    c = Cover(m, [[0, 1, 2], [2, 3, 4]], name="halves")
    pushed, cert = pushforward_cover(a, q, c)
    # both halves map onto the same three orbits
    assert [sorted(u) for u in pushed.members] == [[0, 1, 2]]
    assert cert.dimension == 0 and cert.mesh == 2


def test_pushforward_bounds_on_random_triples():
    count = 0
    for seed in range(40):
        rng = random.Random(seed)
        group = cyclic_group(rng.randint(2, 5))
        space, action = random_invariant_instance(group, rng.randint(1, 2), seed)
        q = quotient(action)
        c = random_cover(space, seed)
        pushed, cert = pushforward_cover(action, q, c)
        assert validate_cover(pushed) == []
        assert cert.mesh <= mesh(c)
        assert cert.lebesgue >= lebesgue_number(c)
        assert cert.dimension <= len(group) * (dimension(c) + 1) - 1
        count += 1
    assert count == 40


def test_pushforward_rejects_mismatched_input():
    m = path_space(5)
    a = path_reflection_action(m)
    q = quotient(a)
    other = path_space(6)
    with pytest.raises(ValueError):
        pushforward_cover(a, q, Cover(other, [range(6)]))
    with pytest.raises(ValueError):
        pushforward_cover(a, q, Cover(m, [[0, 1]]))  # not a cover


def test_displacement_subgroup():
    m = path_space(21)
    a = path_reflection_action(m)
    # at scale s=2 the reflection moves the midpoint region by at most 8
    assert displacement_subgroup(a, 10, 2) == (0, 1)
    assert displacement_subgroup(a, 8, 2) == (0, 1)   # moved by 4 <= 8
    assert displacement_subgroup(a, 0, 2) == (0,)     # moved by 20 > 8
    assert displacement_subgroup(a, 0, 5) == (0, 1)   # 20 <= 4*5


def test_lift_on_long_path_frozen():
    m = path_space(21)
    a = path_reflection_action(m)
    q = quotient(a)
    c = Cover(q.space, [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8], [8, 9, 10]],
              name="windows")
    lifted, trace, cert = lift_equivariant(a, q, c, R=1)
    assert trace.s == 2

    # the end member is far from the reflection axis: two pieces
    end = trace.entries[0]
    assert end.fiber == frozenset({0, 1, 2, 18, 19, 20})
    assert [sorted(p.piece) for p in end.pieces] == [[0, 1, 2], [18, 19, 20]]
    # the member at the axis stays in one piece
    middle = trace.entries[4]
    assert middle.fiber == frozenset({8, 9, 10, 11, 12})
    assert [sorted(p.piece) for p in middle.pieces] == [[8, 9, 10, 11, 12]]

    assert cert.equivariant is True
    assert cert.dimension <= dimension(c)
    assert cert.lebesgue >= 1


def test_lift_finds_one_displacement_subgroup_per_member(monkeypatch):
    # The other cosets' pieces and subgroups are translates and conjugates
    # of the basepoint's, read off the action and the group table.
    import coarsedim.constructions

    calls = []
    original = coarsedim.constructions.displacement_subgroup

    def counting(a, x, s):
        calls.append(x)
        return original(a, x, s)

    monkeypatch.setattr(coarsedim.constructions, "displacement_subgroup", counting)
    m = path_space(21)
    a = path_reflection_action(m)
    q = quotient(a)
    c = Cover(q.space, [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8], [8, 9, 10]])
    _, trace, _ = lift_equivariant(a, q, c, R=1)
    assert calls == [e.basepoint for e in trace.entries] == [0, 2, 4, 6, 8]
    assert [len(e.pieces) for e in trace.entries] == [2, 2, 2, 1, 1]
    assert [p.subgroup for p in trace.entries[0].pieces] == [(0,), (0,)]


def test_lift_default_radius_uses_cover_lebesgue():
    m = path_space(5)
    a = path_reflection_action(m)
    q = quotient(a)
    c = Cover(q.space, [[0, 1], [1, 2]], name="qc")
    _, trace, _ = lift_equivariant(a, q, c)
    assert trace.R == lebesgue_number(c) == 1

    whole = Cover(q.space, [range(3)], name="whole")
    _, trace, _ = lift_equivariant(a, q, whole)
    assert trace.R == max(mesh(whole), 1) == 2


def test_lift_rejects_bad_input():
    m = path_space(5)
    a = path_reflection_action(m)
    q = quotient(a)
    c = Cover(q.space, [[0, 1], [1, 2]], name="qc")
    with pytest.raises(ValueError):
        lift_equivariant(a, q, c, R=2)  # above the cover's Lebesgue number
    with pytest.raises(ValueError):
        lift_equivariant(a, q, c, R=0)
    with pytest.raises(ValueError):
        lift_equivariant(a, q, Cover(m, [range(5)]), R=1)  # cover of the source
    with pytest.raises(ValueError, match="invalid cover: member 0 is empty"):
        lift_equivariant(a, q, Cover(q.space, [[], range(3)]), R=1)
    # misses quotient point 2
    with pytest.raises(ValueError, match="invalid cover: points not covered"):
        lift_equivariant(a, q, Cover(q.space, [[0, 1]]), R=1)


def _lift_cases():
    yield path_reflection_action(path_space(9))
    yield cycle_rotation_action(cycle_space(8), 4)
    yield cycle_rotation_action(cycle_space(6), 2)
    yield grid_rotation_action(grid_space(3, 3), 3, 3)
    for seed in range(10):
        rng = random.Random(seed)
        group = cyclic_group(rng.randint(2, 4))
        yield random_invariant_instance(group, rng.randint(1, 2), seed)[1]


def test_lift_postconditions_hold_on_varied_instances():
    for a in _lift_cases():
        q = quotient(a)
        c = random_cover(q.space, 3)
        lifted, trace, cert = lift_equivariant(a, q, c)
        s = trace.s
        assert validate_cover(lifted) == []
        assert check_equivariance(a, lifted)[0]
        assert cert.mesh < 4 * s * (len(a.group) + 1)
        assert cert.dimension <= dimension(c)
        assert cert.lebesgue >= trace.R
        for entry in trace.entries:
            union = frozenset().union(*(p.piece for p in entry.pieces))
            assert union == entry.fiber
            pieces = [p.piece for p in entry.pieces]
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    assert set_distance(a.space, pieces[i], pieces[j]) > 2 * s


def test_displacement_subgroups_conjugate_along_the_orbit():
    for a in _lift_cases():
        m = a.space
        group = a.group
        for s in (1, 2):
            for x in range(len(m)):
                base = set(displacement_subgroup(a, x, s))
                for g in range(len(group)):
                    gx = a.perms[g][x]
                    conjugated = {group.mul(group.mul(g, h), group.inverse(g))
                                  for h in base}
                    assert set(displacement_subgroup(a, gx, s)) == conjugated
