"""Covers and their certified quantities."""

import random
from fractions import Fraction

import pytest

from coarsedim import (INF, Cover, CoverCertificate, FiniteMetricSpace,
                       ball_meet_count, certify, check_equivariance, cyclic_group,
                       dihedral_group, dimension, equivariant_cover_pipeline,
                       lebesgue_number, mesh, pushforward_cover, quotient,
                       scalar_str, validate_cover, verify_certificate)
from coarsedim.generators import (cycle_space, grid_space, path_reflection_action,
                                  path_space, random_cover, random_graph_space,
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
    # radius list was built another way and before the balls were read
    # through the unchecked metric._ball: the same radii give the same draws.
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
        (random_invariant_instance(dihedral_group(3), 3, 5)[0], 1,
         [[1, 2, 6, 9, 15], [0], [3, 8, 11, 12, 14], [1, 4, 5, 7, 10, 16],
          [1, 7, 10, 13, 14, 16], [0, 6, 9, 16, 17]]),
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
    m = path_space(3)
    with pytest.raises(ValueError):
        Cover(m, [[0, 7]])
    for bad in (True, -1, 3, "0"):
        with pytest.raises(ValueError, match=fr"^a point of member 1 over 'P3' must "
                                             fr"be an int in range\(3\), got {bad!r}$"):
            Cover(m, [[0, 1], [2, bad]])
    # True is checked before a set can merge it into 1
    with pytest.raises(ValueError, match=r"^a point of member 1 over 'P3' .* got True$"):
        Cover(m, [[0, 2], [1, True]])


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


def test_verify_certificate_measures_the_raw_cover_once(measurements):
    cert = certify(halves_cover())
    c = halves_cover()
    del measurements[:]
    assert verify_certificate(c, cert) == []
    assert len(measurements) == 1
    # verification filled no record: certify measures, once
    certify(c)
    certify(c)
    assert len(measurements) == 2
    # and read none: it measures again after certify
    assert verify_certificate(c, cert) == []
    assert len(measurements) == 3


def test_certify_keeps_its_measurement_as_the_cover_cannot_change(measurements):
    c = halves_cover()
    assert certify(c) == certify(c) == CoverCertificate(dimension=1, lebesgue=1,
                                                        mesh=2)
    assert len(measurements) == 1
    for field, value in (("members", (frozenset(range(5)),)), ("space", cycle_space(5))):
        with pytest.raises(AttributeError, match=f"the {field} of"):
            setattr(c, field, value)
    with pytest.raises(AttributeError, match="the _measured of"):
        c._measured = (0, INF, 4)
    assert certify(c) == CoverCertificate(dimension=1, lebesgue=1, mesh=2)
    assert len(measurements) == 1
    # Another cover is another Cover, measured once in its turn.
    whole = Cover(c.space, [range(5)], name="whole")
    assert certify(whole) == certify(whole) == CoverCertificate(dimension=0,
                                                                lebesgue=INF, mesh=4)
    assert measurements == ["halves", "whole"]


def test_a_kept_measurement_cannot_be_deleted_and_set_again():
    # Deleting used to pass the rule: after del c._measured, setting
    # c._measured = (5, 0, 9) made certify report dimension 5, Lebesgue
    # number 0 and mesh 9 for this cover.
    c = Cover(path_space(3), [{0, 1, 2}])
    assert certify(c) == CoverCertificate(dimension=0, lebesgue=INF, mesh=2)
    with pytest.raises(AttributeError, match=r"^the _measured of Cover\('cover', 1 members "
                                             r"over 'P3'\) cannot be deleted$"):
        del c._measured
    with pytest.raises(AttributeError, match="the _measured of"):
        c._measured = (5, 0, 9)
    assert certify(c) == CoverCertificate(dimension=0, lebesgue=INF, mesh=2)


def test_a_member_off_the_space_cannot_be_slipped_in():
    # Reassigning members used to skip the constructor's check: this cover
    # then certified dimension 0, Lebesgue number INF and mesh 2 with a
    # point 7 that the 3-point path does not have.
    m = path_space(3)
    c = Cover(m, [{0, 1, 2}])
    with pytest.raises(AttributeError, match="the members of"):
        c.members = ({0, 1, 2}, {7})
    assert c.members == (frozenset({0, 1, 2}),)
    with pytest.raises(ValueError, match=r"must be an int in range\(3\), got 7"):
        Cover(m, [{0, 1, 2}, {7}])


# Degenerate covers, measured alone and through certify and
# verify_certificate, with and without the reflection of P5 (every cover
# below but "one-side" is invariant under it): the one measurement gives
# the values and errors each quantity gives alone.
NO_MEMBERS = "Lebesgue number of a cover with no members is undefined"
EMPTY_SET = "diameter of the empty set is undefined"


@pytest.mark.parametrize("with_action", [False, True], ids=["plain", "reflection"])
def test_a_cover_with_no_members(with_action):
    c = Cover(path_space(5), [], name="nothing")
    action = path_reflection_action(c.space) if with_action else None
    assert dimension(c) == -1
    assert mesh(c) == 0 and type(mesh(c)) is int
    with pytest.raises(ValueError, match=f"^{NO_MEMBERS}$"):
        lebesgue_number(c)
    with pytest.raises(ValueError, match=f"^{NO_MEMBERS}$"):
        certify(c, action=action)
    with pytest.raises(ValueError, match=f"^{NO_MEMBERS}$"):
        verify_certificate(c, CoverCertificate(0, 1, 2), action=action)


@pytest.mark.parametrize("members, lebesgue", [([[], [0, 1, 2], [2, 3, 4]], 1),
                                               ([[], range(5)], INF),
                                               ([range(5), []], INF)],
                         ids=["halves", "whole", "whole-first"])
@pytest.mark.parametrize("with_action", [False, True], ids=["plain", "reflection"])
def test_a_cover_with_an_empty_member(members, lebesgue, with_action):
    c = Cover(path_space(5), members)
    action = path_reflection_action(c.space) if with_action else None
    assert lebesgue_number(c) == lebesgue
    assert dimension(c) == (1 if lebesgue == 1 else 0)
    with pytest.raises(ValueError, match=f"^{EMPTY_SET}$"):
        mesh(c)
    with pytest.raises(ValueError, match=f"^{EMPTY_SET}$"):
        certify(c, action=action)
    assert c._measured is None
    with pytest.raises(ValueError, match=f"^{EMPTY_SET}$"):
        verify_certificate(c, CoverCertificate(1, lebesgue, 2), action=action)


@pytest.mark.parametrize("members, dim, mesh_", [([[0, 1, 2], [1, 2, 3]], 1, 2),
                                                 ([[0, 1], [3, 4]], 0, 1),
                                                 ([[0, 1], [1], [3, 4], [3]], 1, 1)],
                         ids=["one-side", "middle", "singletons"])
def test_a_cover_that_misses_a_point_certifies_lebesgue_zero(members, dim, mesh_):
    c = Cover(path_space(5), members)
    expected = CoverCertificate(dimension=dim, lebesgue=0, mesh=mesh_)
    assert (dimension(c), lebesgue_number(c), mesh(c)) == (dim, 0, mesh_)
    assert lebesgue_direct(c.space, c.members) == 0
    a = path_reflection_action(c.space)
    reflected = certify(Cover(c.space, c.members), action=a)
    assert reflected.equivariant is (members != [[0, 1, 2], [1, 2, 3]])
    assert (reflected.dimension, reflected.lebesgue, reflected.mesh) == (dim, 0, mesh_)
    assert verify_certificate(c, reflected, action=a) == []
    assert certify(c) == expected
    assert verify_certificate(c, expected) == []
