"""Weighted disjoint unions: metric, actions, quotient commutation,
restriction and merging of decompositions."""

import random

import pytest

from coarsedim import (Decomposition, build_sspace, merge_decompositions,
                       quotient, restrict_decomposition,
                       sspace_componentwise_action, sspace_quotient_commute,
                       sub_sspace, validate_action, validate_decomposition,
                       validate_metric)
from coarsedim.generators import (cycle_rotation_action, cycle_space,
                                  path_reflection_action, path_space,
                                  random_decomposition, random_graph_space,
                                  random_invariant_instance)
from coarsedim.groups import cyclic_group


def two_component_union():
    return build_sspace([path_space(5), cycle_space(4)], [[2], [0, 2]], [5, 6],
                        name="U")


def test_frozen_cross_distances():
    s = two_component_union()
    m = s.assembled
    assert m.points[:5] == ("0/0", "0/1", "0/2", "0/3", "0/4")
    # same component: unchanged
    assert m.d(0, 4) == 4
    # cross: d(x, base0) + d(y, base1) + max weight
    assert m.d(0, s.global_index(1, 1)) == 2 + 1 + 6
    assert m.d(4, s.global_index(1, 0)) == 2 + 0 + 6
    assert validate_metric(m) == []


def test_component_index_round_trip():
    s = two_component_union()
    for n in range(2):
        for x in range(len(s.components[n])):
            gi = s.global_index(n, x)
            assert s.component_of(gi) == (n, x)
    # 9 points: nothing at or past 9, nor below 0
    for index in (9, 50, -1):
        with pytest.raises(ValueError, match=fr"must be an int in range\(9\), got {index}$"):
            s.component_of(index)
    # and no component or local index past its component's end, nor below 0
    for component, local in ((0, 7), (-1, 0), (1, 9), (2, 0), (1, -1)):
        with pytest.raises(ValueError, match=r"must be an int in range\(\d\), got -?\d$"):
            s.global_index(component, local)


def test_build_rejects_bad_weights():
    p, c = path_space(5), cycle_space(4)
    with pytest.raises(ValueError):
        build_sspace([p, c], [[2], [0]], [5])          # length mismatch
    with pytest.raises(ValueError):
        build_sspace([p, c], [[2], [0]], [5, 5])       # not increasing
    with pytest.raises(ValueError):
        build_sspace([p, c], [[2], [0]], [0, 6])       # nonpositive
    with pytest.raises(ValueError):
        build_sspace([p, c], [[0, 4], [0]], [3, 6])    # weight below base diameter
    with pytest.raises(ValueError):
        build_sspace([p, c], [[], [0]], [5, 6])        # empty basepoints


def test_triangle_holds_on_random_unions():
    for seed in range(15):
        rng = random.Random(seed)
        comps = [random_graph_space(rng.randint(2, 6), seed * 10 + i)
                 for i in range(rng.randint(2, 4))]
        weights = []
        w = 0
        bases = []
        for comp in comps:
            base = sorted(rng.sample(range(len(comp)),
                                     rng.randint(1, len(comp))))
            bases.append(base)
            lo = max(comp.dist[a][b] for a in base for b in base)
            w = max(w + rng.randint(1, 3), lo + (1 if w >= lo else w + 1 - lo))
            while w <= (weights[-1] if weights else 0) or w < lo:
                w += 1
            weights.append(w)
        s = build_sspace(comps, bases, weights, name=f"U{seed}")
        assert validate_metric(s.assembled) == []


def test_sub_union_is_a_prefix():
    s = two_component_union()
    head = sub_sspace(s, 1)
    assert head.assembled.points == tuple(f"0/{i}" for i in range(5))
    assert head.assembled.d(0, 4) == 4
    with pytest.raises(ValueError):
        sub_sspace(s, 3)


def test_componentwise_action_and_quotient_commute():
    s = two_component_union()
    a5 = path_reflection_action(path_space(5))
    a4 = cycle_rotation_action(cycle_space(4), 2)
    action = sspace_componentwise_action(s, [a5, a4])
    assert validate_action(action) == []
    witness = sspace_quotient_commute(s, [a5, a4])
    whole = witness.whole_quotient.space
    union = witness.quotient_union.assembled
    assert len(whole) == len(union)
    for i in range(len(whole)):
        for j in range(len(whole)):
            assert whole.dist[i][j] == \
                union.dist[witness.mapping[i]][witness.mapping[j]]


def test_componentwise_action_rejects_moving_basepoints():
    s = build_sspace([path_space(5), cycle_space(4)], [[0], [0]], [5, 6])
    a5 = path_reflection_action(path_space(5))
    a4 = cycle_rotation_action(cycle_space(4), 2)
    with pytest.raises(ValueError):
        sspace_componentwise_action(s, [a5, a4])


def test_commute_on_random_instances():
    for seed in range(10):
        rng = random.Random(seed)
        group = cyclic_group(rng.randint(2, 4))
        comps = []
        actions = []
        for i in range(rng.randint(2, 3)):
            space, action = random_invariant_instance(group, rng.randint(1, 2),
                                                      seed * 7 + i)
            comps.append(space)
            actions.append(action)
        # whole orbits are invariant basepoint sets
        bases = []
        weights = []
        w = 0
        for space, action in zip(comps, actions):
            orbit = sorted({action.perms[g][0] for g in range(len(group))})
            bases.append(orbit)
            lo = max(space.dist[a][b] for a in orbit for b in orbit)
            w = max(w + 1, lo)
            weights.append(w)
        s = build_sspace(comps, bases, weights, name=f"W{seed}")
        witness = sspace_quotient_commute(s, actions)
        assert len(witness.whole_quotient.space) == len(witness.quotient_union.assembled)


def test_restrict_decomposition():
    s = two_component_union()
    d = Decomposition(s.assembled, 1,
                      [[[0, 1], [3, 4], [5, 6]], [[2], [7, 8]]], name="d")
    assert validate_decomposition(d) == []
    parts = restrict_decomposition(s, d)
    assert len(parts) == 2
    for part in parts:
        assert part.r == 1
        assert len(part.families) == 2
        assert validate_decomposition(part) == []
    assert [sorted(p) for p in parts[1].families[0]] == [[0, 1]]
    with pytest.raises(ValueError):
        restrict_decomposition(s, Decomposition(path_space(9), 1,
                                                [[range(9)]], name="x"))


def test_merge_decompositions():
    s = two_component_union()
    head = Decomposition(sub_sspace(s, 1).assembled, 1,
                         [[[0, 1]], [[2, 3, 4]]], name="head")
    tail = Decomposition(cycle_space(4), 1, [[[0]], [[1, 2, 3]]], name="tail")
    merged = merge_decompositions(s, head, [tail], 1)
    assert validate_decomposition(merged) == []
    assert merged.r == 1
    assert len(merged.families) == 2
    # tail pieces were shifted into the union's indexing
    assert frozenset({5}) in merged.families[0]


def test_merge_rejects_bad_shapes():
    s = two_component_union()
    head = Decomposition(sub_sspace(s, 1).assembled, 1,
                         [[[0, 1]], [[2, 3, 4]]], name="head")
    tail = Decomposition(cycle_space(4), 1, [[[0]], [[1, 2, 3]]], name="tail")
    with pytest.raises(ValueError):
        merge_decompositions(s, head, [tail, tail], 1)  # no head component left
    with pytest.raises(ValueError):
        merge_decompositions(s, head, [tail], 2)        # inputs only valid at 1
    short = Decomposition(cycle_space(4), 1, [[[0], [1], [2], [3]]], name="s")
    with pytest.raises(ValueError):
        merge_decompositions(s, head, [short], 1)       # family counts differ
    overlapping = Decomposition(cycle_space(4), 1, [[[0], [1]], [[2, 3]]],
                                name="tight")
    with pytest.raises(ValueError):
        merge_decompositions(s, head, [overlapping], 1)  # invalid tail input


def test_merge_requires_tail_weight_above_r():
    s = build_sspace([path_space(5), cycle_space(4)], [[2], [0, 2]], [5, 6],
                     name="U")
    head = Decomposition(sub_sspace(s, 1).assembled, 5,
                         [[[0]], [[1, 2, 3, 4]]], name="coarse")
    # validity at r=5 within the path: {1,2,3,4} is one piece, fine
    tail = Decomposition(cycle_space(4), 5, [[[0]], [[1, 2, 3]]], name="t")
    # r = 6 would exceed the first tail weight 6 (needs strict >)
    with pytest.raises(ValueError):
        merge_decompositions(s, head, [tail], 6)
