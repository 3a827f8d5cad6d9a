"""Covers, decompositions and their certified quantities."""

import random
from fractions import Fraction

import pytest

from coarsedim import (INF, Cover, CoverCertificate, Decomposition, FiniteMetricSpace,
                       ball_meet_count, certify, check_equivariance, cyclic_group,
                       decomposition_to_cover, dihedral_group, dimension,
                       equivariant_cover_pipeline, is_r_disjoint,
                       lebesgue_number, mesh, pushforward_cover, quotient,
                       scalar_str, validate_cover, validate_decomposition,
                       verify_certificate)
from coarsedim.generators import (cycle_space, grid_space, path_reflection_action,
                                  path_space, random_cover,
                                  random_decomposition, random_graph_space,
                                  random_invariant_instance)

from oracles import lebesgue_direct, mesh_direct


def halves_cover():
    return Cover(path_space(5), [[0, 1, 2], [2, 3, 4]], name="halves")


def test_frozen_quantities_on_path_halves():
    c = halves_cover()
    assert dimension(c) == 1
    assert mesh(c) == 2
    assert lebesgue_number(c) == 1


def test_frozen_lebesgue_on_overlapping_windows():
    c = Cover(path_space(5), [[0, 1, 2, 3], [1, 2, 3, 4]], name="windows")
    assert lebesgue_number(c) == 2
    assert dimension(c) == 1
    assert mesh(c) == 3


def test_whole_space_member_gives_infinite_lebesgue():
    c = Cover(path_space(4), [range(4)], name="all")
    assert lebesgue_number(c) == INF
    assert dimension(c) == 0
    with pytest.raises(ValueError):
        lebesgue_number(Cover(path_space(2), [], name="nothing"))


def test_lebesgue_matches_direct_oracle():
    for seed in range(30):
        rng = random.Random(seed)
        m = random_graph_space(rng.randint(2, 8), seed)
        c = random_cover(m, seed)
        assert validate_cover(c) == []
        assert lebesgue_number(c) == lebesgue_direct(m, c.members)


def test_whole_space_member_builds_no_integer_table(integer_table_builds):
    # The Lebesgue number of a cover with a whole-space member is INF before
    # any table is read; the mesh reads the largest entry off the table.
    path = path_space(6)
    m = FiniteMetricSpace(path.points, [[Fraction(v, 3) for v in row]
                                        for row in path.dist], name="P6/3")
    c = Cover(m, [[0, 1, 2], range(6)], name="whole")
    assert lebesgue_number(c) == INF
    assert integer_table_builds == []
    assert mesh(c) == Fraction(5, 3)
    assert len(integer_table_builds) == 1


def test_uncovered_point_gives_zero_lebesgue():
    c = Cover(path_space(5), [[0, 1, 2], [1, 2, 3]], name="holey")
    # point 4 is in no member, so every ball around it, however small, is
    # outside the cover
    assert lebesgue_number(c) == 0
    assert dimension(c) == 1


def test_uncovered_point_wins_over_the_one_unit_floor():
    # Point 0 reaches L_0 = 1, the least a covered point can have, before
    # the walk gets to point 4, which is in no member: the answer is 0.
    c = Cover(path_space(5), [[0], [1, 2, 3]], name="early")
    assert lebesgue_number(c) == 0
    assert lebesgue_direct(c.space, c.members) == 0


def test_lebesgue_on_a_fraction_table_above_one_unit():
    # P6 scaled by 2/3 has integer rows 2, 4, 6, ...: the least entry there
    # is two units, so the walk never stops at one unit.
    path = path_space(6)
    m = FiniteMetricSpace(path.points, [[Fraction(2 * v, 3) for v in row]
                                        for row in path.dist], name="P6*2/3")
    for members in ([[0, 1, 2], [2, 3, 4, 5]], [[0, 1, 2, 3], [2, 3, 4, 5]],
                    [[0, 1], [1, 2, 3], [3, 4, 5]]):
        c = Cover(m, members)
        expected = lebesgue_direct(m, c.members)
        assert lebesgue_number(c) == expected
        assert scalar_str(lebesgue_number(c)) == scalar_str(expected)


@pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3), dihedral_group(3)],
                         ids=lambda g: g.name)
@pytest.mark.parametrize("base", [3, 4, 5])
def test_measurements_on_corpus_shaped_covers_match_oracles(group, base):
    # The covers an invariant instance passes through: a random cover, its
    # pushforward, and the pipeline's quotient and lifted covers.
    for seed in (base, 100 + base):
        space, action = random_invariant_instance(group, base, seed)
        q = quotient(action)
        cover = random_cover(space, seed)
        pushed, _ = pushforward_cover(action, q, cover)
        result = equivariant_cover_pipeline(action, 2, mode="auto")
        for c in (cover, pushed, result.quotient_cover, result.cover):
            for actual, expected in ((lebesgue_number(c), lebesgue_direct(c.space, c.members)),
                                     (mesh(c), mesh_direct(c.space, c.members))):
                assert scalar_str(actual) == scalar_str(expected)


def test_random_cover_members_are_pinned():
    # The members drawn for these spaces and seeds, recorded before the
    # radius list was built another way: the same radii give the same draws.
    g = random_graph_space(7, 3)
    half = FiniteMetricSpace(g.points, [[Fraction(v, 2) for v in row] for row in g.dist],
                             name="half")
    pinned = [
        (path_space(7), 1, [[4], [0, 1, 2], [3], [2, 3, 4, 5, 6]]),
        (path_space(7), 7, [[0, 1, 2, 3, 4], [5], [6]]),
        (cycle_space(6), 0, [[3], [1, 2, 3], [0, 1, 5], [3, 4, 5]]),
        (grid_space(3, 3), 0, [[6], [0, 1, 2, 3, 4, 5, 6, 7, 8]]),
        (grid_space(3, 3), 7, [[1, 2, 5], [0], [0, 1, 3, 4, 5, 6, 7], [8]]),
        (random_graph_space(8, 5), 1, [[1, 4], [0], [2, 5], [3, 5, 6, 7]]),
        (random_graph_space(8, 5), 7, [[2, 5], [0], [1, 4, 5, 6], [3], [3, 5, 7]]),
        (half, 1, [[4], [0, 2, 3, 5], [1], [1, 2, 4, 6]]),
        (half, 7, [[0, 1, 4, 6], [5], [2], [3]]),
    ]
    for m, seed, members in pinned:
        assert [sorted(u) for u in random_cover(m, seed).members] == members


def test_ball_meet_count():
    c = halves_cover()
    assert ball_meet_count(c, 1) == 2       # around point 2
    assert ball_meet_count(c, Fraction(1, 2)) == 2
    # tiny balls around points away from the overlap still meet one member
    assert ball_meet_count(Cover(path_space(5), [[0, 1], [3, 4], [2]], name="s"),
                           Fraction(1, 2)) == 1


def test_validate_cover_reports():
    m = path_space(4)
    ok = Cover(m, [[0, 1], [2, 3]], name="ok")
    assert validate_cover(ok) == []
    gaps = Cover(m, [[0, 1]], name="gaps")
    v = validate_cover(gaps)
    assert [x.kind for x in v] == ["coverage"] and v[0].subject == (2, 3)
    dup = Cover(m, [[0, 1], [1, 0], [2, 3]], name="dup")
    assert "duplicate-member" in {x.kind for x in validate_cover(dup)}
    empty = Cover(m, [[0, 1, 2, 3], []], name="empty")
    assert "empty-member" in {x.kind for x in validate_cover(empty)}


def test_cover_constructor_checks_indices():
    # Cover and Decomposition check indices alike, each naming its own set.
    builders = [(lambda sets: Cover(path_space(3), sets), "member 1"),
                (lambda sets: Decomposition(path_space(3), 1, [sets]), "family 0 piece 1")]
    for build, what in builders:
        with pytest.raises(ValueError):
            build([[0, 7]])
        for bad in (True, -1, 3, "0"):
            with pytest.raises(ValueError, match=fr"^a point of {what} over 'P3' must "
                                                 fr"be an int in range\(3\), got {bad!r}$"):
                build([[0, 1], [2, bad]])
        # True is checked before a set can merge it into 1
        with pytest.raises(ValueError, match=fr"^a point of {what} over 'P3' .* got True$"):
            build([[0, 2], [1, True]])


def test_r_disjointness():
    m = path_space(6)
    ok, witness = is_r_disjoint(m, [[0, 1], [4, 5]], 2)
    assert ok and witness is None
    ok, witness = is_r_disjoint(m, [[0, 1], [3]], 2)
    assert not ok and witness == (0, 1, 2)
    ok, _ = is_r_disjoint(m, [[0], []], 100)  # empty pieces never collide
    assert ok


def test_validate_decomposition():
    m = path_space(6)
    good = Decomposition(m, 1, [[[0, 1], [4, 5]], [[2, 3]]], name="good")
    assert validate_decomposition(good) == []
    bad = Decomposition(m, 2, [[[0, 1], [3]], [[2], [4, 5]]], name="bad")
    kinds = {v.kind for v in validate_decomposition(bad)}
    assert "disjointness" in kinds
    holey = Decomposition(m, 1, [[[0, 1]]], name="holey")
    assert "coverage" in {v.kind for v in validate_decomposition(holey)}


def test_decomposition_to_cover_bounds():
    m = path_space(9)
    d = Decomposition(m, 2, [[[0, 1], [5, 6]], [[2, 3, 4], [7, 8]]], name="two")
    cover, cert = decomposition_to_cover(d)
    assert cert.dimension <= 1
    assert cert.lebesgue >= Fraction(1, 2)
    assert validate_cover(cover) == []
    with pytest.raises(ValueError):
        decomposition_to_cover(Decomposition(m, 2, [[[0, 1], [2, 3]]], name="bad"))


def test_decomposition_to_cover_random():
    for seed in range(12):
        rng = random.Random(seed)
        m = random_graph_space(rng.randint(2, 8), seed)
        r = rng.randint(1, 3)
        d = random_decomposition(m, r, seed)
        assert validate_decomposition(d) == []
        cover, cert = decomposition_to_cover(d)
        assert cert.dimension <= len(d.families) - 1
        assert cert.lebesgue >= Fraction(r, 4)


def test_equivariance_check():
    m = path_space(5)
    a = path_reflection_action(m)
    symmetric = Cover(m, [[0, 1], [3, 4], [1, 2, 3]], name="sym")
    assert check_equivariance(a, symmetric) == (True, None)
    lopsided = Cover(m, [[0, 1, 2], [2, 3], [3, 4]], name="lop")
    ok, witness = check_equivariance(a, lopsided)
    assert not ok and witness == (0, 1)
    with pytest.raises(ValueError):
        check_equivariance(a, Cover(cycle_space(5), [range(5)]))
    # A whole-space member is skipped, as every permutation fixes it; the
    # witness still names the member beside it that is not invariant.
    assert check_equivariance(a, Cover(m, [range(5), [0, 1], [3, 4]])) == (True, None)
    assert check_equivariance(a, Cover(m, [range(5), [0, 1]])) == (False, (1, 1))


def test_certify_and_verify_roundtrip():
    c = halves_cover()
    a = path_reflection_action(c.space)
    cert = certify(c, meet_radius=1, action=a)
    assert cert == CoverCertificate(dimension=1, lebesgue=1, mesh=2,
                                    meet_radius=1, ball_meet=2, equivariant=True)
    assert verify_certificate(c, cert, action=a) == []
    tampered = CoverCertificate(dimension=0, lebesgue=1, mesh=2,
                                meet_radius=1, ball_meet=2, equivariant=True)
    bad = verify_certificate(c, tampered, action=a)
    assert [v.subject for v in bad] == [("dimension",)]


def test_verify_certificate_measures_the_raw_cover_once(lebesgue_calls):
    cert = certify(halves_cover())
    c = halves_cover()
    del lebesgue_calls[:]
    assert verify_certificate(c, cert) == []
    assert len(lebesgue_calls) == 1
    # verification filled no record: certify measures, once
    certify(c)
    certify(c)
    assert len(lebesgue_calls) == 2
    # and read none: it measures again after certify
    assert verify_certificate(c, cert) == []
    assert len(lebesgue_calls) == 3


def test_certify_measures_again_after_reassignment(lebesgue_calls):
    c = halves_cover()
    assert certify(c) == certify(c) == CoverCertificate(dimension=1, lebesgue=1,
                                                        mesh=2)
    assert len(lebesgue_calls) == 1
    c.members = (frozenset(range(5)),)
    assert certify(c) == CoverCertificate(dimension=0, lebesgue=INF, mesh=4)
    assert len(lebesgue_calls) == 2
    c.space = cycle_space(5)
    assert certify(c) == CoverCertificate(dimension=0, lebesgue=INF, mesh=2)
    assert len(lebesgue_calls) == 3
