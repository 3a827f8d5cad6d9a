"""Exact and greedy cover-dimension estimation, profiles, and the
quotient-then-lift pipeline."""

import dataclasses
import gc
import sys
from fractions import Fraction

import pytest

from coarsedim import (CapExceededError, FamilyProfile, Infeasible,
                       PipelineResult, ProfileEntry, asdim_profile, certify, cyclic_group, dihedral_group,
                       dimension, equivariant_cover_pipeline, family_profile,
                       greedy_cover, lebesgue_number, lift_equivariant, mesh,
                       min_dimension_cover_exact, pushforward_cover, quotient,
                       validate_cover, verify_certificate)
from coarsedim.generators import (cycle_reflection_action,
                                  cycle_rotation_action, cycle_space,
                                  grid_rotation_action, grid_space,
                                  path_reflection_action, path_space,
                                  random_graph_space, random_invariant_instance)
from coarsedim.metric import INF, FiniteMetricSpace

from oracles import min_dimension_cliques, min_dimension_partition


def test_exact_frozen_small_cases():
    # open 1-balls are singletons, so a partition works
    c = min_dimension_cover_exact(path_space(5), 1, 2)
    assert dimension(c) == 0
    assert lebesgue_number(c) >= 1 and mesh(c) <= 2
    assert validate_cover(c) == []
    # the whole space has diameter 4, so B = 4 lets one member do everything
    c = min_dimension_cover_exact(path_space(5), 2, 4)
    assert dimension(c) == 0
    assert c.members == (frozenset(range(5)),)
    # B = 3 forbids the whole space and forces one overlap
    c = min_dimension_cover_exact(path_space(5), 2, 3)
    assert dimension(c) == 1
    # six-cycle at scale 1 splits into adjacent pairs
    c = min_dimension_cover_exact(cycle_space(6), 1, 2)
    assert dimension(c) == 0


EXACT_FROZEN_MEMBERS = [
    (cycle_space(10), 2, 8, 14, [list(range(10))]),
    (grid_space(3, 3), 1, 4, 14, [list(range(9))]),
    (cycle_space(9), 2, 3, 14,
     [[0, 1, 2, 8], [1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7, 8], [0, 7, 8]]),
    (grid_space(3, 3), 2, 3, 14,
     [[0, 1, 2, 3, 4, 5, 7], [0, 3, 4, 6, 7], [2, 4, 5, 7, 8], [4, 6, 7, 8]]),
    (path_space(11), 2, 3, 14,
     [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7], [6, 7, 8, 9], [8, 9, 10]]),
    (cycle_space(14), 2, 3, 14,
     [[0, 1, 2, 13], [1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7, 8], [7, 8, 9, 10],
      [9, 10, 11, 12], [0, 11, 12, 13]]),
    (grid_space(4, 4), 2, 4, 16,
     [[0, 1, 2, 3, 4, 5, 6, 7, 9, 10], [0, 4, 5, 8, 9, 12], [3, 6, 7, 10, 11, 15],
      [5, 6, 8, 9, 10, 11, 12, 13, 14, 15]]),
]


@pytest.mark.parametrize("m, R, B, max_points, members", EXACT_FROZEN_MEMBERS,
                         ids=lambda v: getattr(v, "name", None))
def test_exact_frozen_members(m, R, B, max_points, members):
    # The search order fixes which minimal cover comes back, member by
    # member, and in what order: the groups' opening order.
    c = min_dimension_cover_exact(m, R, B, max_points=max_points)
    assert [sorted(member) for member in c.members] == members


def test_exact_reports_infeasible():
    result = min_dimension_cover_exact(path_space(5), 5, 1)
    assert isinstance(result, Infeasible)
    assert result == Infeasible(
        point=0,
        message="the open 5-ball around 0 has diameter 4, above the mesh bound 1")
    assert "around 0" in result.message


def test_exact_rejects_bad_scales():
    with pytest.raises(ValueError):
        min_dimension_cover_exact(path_space(5), 0, 2)
    with pytest.raises(ValueError):
        min_dimension_cover_exact(path_space(5), 1, -1)
    with pytest.raises(TypeError):
        min_dimension_cover_exact(path_space(5), 1.5, 2)


def test_exact_point_cap():
    with pytest.raises(CapExceededError):
        min_dimension_cover_exact(path_space(21), 1, 2)
    # raising the cap disables the guard
    c = min_dimension_cover_exact(path_space(15), 1, 2, max_points=15)
    assert dimension(c) == 0


def test_exact_matches_partition_oracle():
    spaces = [path_space(n) for n in (2, 3, 4, 5, 6)]
    spaces += [cycle_space(n) for n in (3, 4, 5, 6)]
    spaces += [grid_space(2, 3)]
    spaces += [random_graph_space(n, seed) for n, seed in
               ((4, 1), (5, 2), (6, 3), (7, 4))]
    checked = 0
    for m in spaces:
        for R in (1, 2):
            for B in (2, 3, 4):
                expected = min_dimension_partition(m, R, B)
                result = min_dimension_cover_exact(m, R, B)
                if expected is None:
                    assert isinstance(result, Infeasible), (m.name, R, B)
                else:
                    assert not isinstance(result, Infeasible), (m.name, R, B)
                    assert dimension(result) == expected, (m.name, R, B)
                checked += 1
    assert checked == 84


# 11 to 14 points: too many for the partition oracle, not for the clique one.
CLIQUE_ORACLE_SPACES = [
    path_space(11), path_space(13), path_space(14), cycle_space(12),
    cycle_space(14), grid_space(3, 4), grid_space(2, 7),
    random_graph_space(12, 7, edge_chance=Fraction(1, 5)),
    random_graph_space(14, 5, edge_chance=Fraction(1, 5)),
]


@pytest.mark.parametrize("m", CLIQUE_ORACLE_SPACES, ids=lambda m: m.name)
def test_exact_matches_clique_oracle_above_ten_points(m):
    scales = [(R, B) for R in (1, 2, 3) for B in (R, 2 * R, 4 * R)]
    for R, B in scales + [(2, 3), (2, 4)]:
        expected = min_dimension_cliques(m, R, B)
        result = min_dimension_cover_exact(m, R, B)
        if expected is None:
            assert isinstance(result, Infeasible), (R, B)
        else:
            assert dimension(result) == expected, (R, B)


@pytest.mark.parametrize("m, R, B", [
    (path_space(11), 2, 3), (path_space(14), 2, 3), (cycle_space(14), 2, 3),
    (grid_space(2, 7), 2, 4)], ids=lambda v: getattr(v, "name", None))
def test_exact_finds_dimension_one_above_ten_points(m, R, B):
    # Covers by closed balls alone reach dimension 2 here; blocks of four
    # consecutive points (of four columns on the 2x7 grid) reach 1.
    c = min_dimension_cover_exact(m, R, B)
    cert = certify(c)
    assert (cert.dimension, cert.lebesgue >= R, cert.mesh <= B) == (1, True, True)
    assert verify_certificate(c, cert) == []


def test_exact_infeasible_names_the_first_ball_that_is_no_clique():
    # Twelve points, all 3 apart except b and c at 2: the open 5/2-balls are
    # {x}, and {b, c} around b and around c, which B = 1 cannot hold.
    points = ["a", "b", "c"] + [f"z{i}" for i in range(9)]
    dist = [[0 if i == j else 3 for j in range(12)] for i in range(12)]
    dist[1][2] = dist[2][1] = 2
    m = FiniteMetricSpace(points, dist, name="twelve")
    result = min_dimension_cover_exact(m, Fraction(5, 2), 1)
    assert result == Infeasible(
        point=1,
        message="the open 5/2-ball around b has diameter 2, above the mesh bound 1")


def test_exact_fractional_scales():
    # open 1/2-balls are singletons; each joins the open group while the
    # union's diameter stays within B = 1
    c = min_dimension_cover_exact(path_space(5), Fraction(1, 2), 1)
    assert dimension(c) == 0
    assert [sorted(member) for member in c.members] == [[0, 1], [2, 3], [4]]


def test_exact_search_does_not_recurse():
    # At a recursion limit below the number of branching points, a search
    # that recursed once per branching point would raise RecursionError.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        c = min_dimension_cover_exact(path_space(400), 1, 0, max_points=400)
        assert (dimension(c), len(c.members)) == (0, 400)
        # 900 branching points, one per singleton open 1-ball
        assert greedy_cover(grid_space(30, 30), 1)[1].dimension == 0
    finally:
        sys.setrecursionlimit(limit)


# Grids at R=2, B=4 and R=3, B=6, where the order in which a branching
# point tries its options decides the cost: joining an open group first
# answers each in well under a second, while trying a new group first took
# about 9 s on 8x8 and 35 s on 9x9 at R=2 (2-vCPU host).
GRID_LADDER = [(side, 2, 4, 2) for side in (6, 7, 8, 9)] + \
              [(side, 3, 6, 4) for side in (6, 7, 8)]


@pytest.mark.parametrize("side, R, B, dim", GRID_LADDER)
def test_exact_grid_ladder(side, R, B, dim):
    c = min_dimension_cover_exact(grid_space(side, side), R, B, max_points=side * side)
    cert = certify(c)
    assert (cert.dimension, cert.lebesgue >= R, cert.mesh <= B) == (dim, True, True)


def test_greedy_frozen_path_nine():
    cover, cert = greedy_cover(path_space(9), 2)
    # The first descent at mesh bound 8: every open 2-ball joins the group
    # point 0 opened, so one member holds the whole path.  Its mesh is 8,
    # above the 7 of the earlier R-net cover: the mesh may rise, but only
    # within 4R.
    assert cover.members == (frozenset(range(9)),)
    assert cert.dimension == 0
    assert cert.mesh == 8 <= 4 * 2
    assert cert.lebesgue >= 2


def test_greedy_collapses_to_whole_space():
    cover, cert = greedy_cover(path_space(5), 2)
    assert cover.members == (frozenset(range(5)),)
    assert cert.dimension == 0
    assert cert.mesh == 4
    assert cert.lebesgue == INF


def test_greedy_certificate_verifies():
    for m in (path_space(30), cycle_space(17), grid_space(5, 4)):
        for R in (1, 2, 3):
            cover, cert = greedy_cover(m, R)
            assert validate_cover(cover) == []
            assert cert.lebesgue >= R
            assert verify_certificate(cover, cert) == []
    with pytest.raises(ValueError):
        greedy_cover(path_space(5), 0)


@pytest.mark.parametrize("R, dim", [(1, 0), (2, 3), (3, 3)])
def test_greedy_dimension_on_grid_twenty(R, dim):
    _, cert = greedy_cover(grid_space(20, 20), R)
    assert cert.dimension == dim
    assert cert.lebesgue >= R and cert.mesh <= 4 * R


@pytest.mark.parametrize("side, lifted_mesh", [(12, 22), (14, 26)])
def test_greedy_pipeline_on_half_turn_grids(side, lifted_mesh):
    # The quotient's first descent lifts to dimension 3 at scale 2.
    a = grid_rotation_action(grid_space(side, side), side, side)
    result = equivariant_cover_pipeline(a, 2, mode="greedy")
    cert = result.certificate
    assert (cert.dimension, cert.mesh, cert.equivariant) == (3, lifted_mesh, True)
    assert cert.lebesgue >= 2
    assert result.quotient_cover.name == f"grid{side}x{side}_mod_Z2_greedy_R2"


def test_profile_frozen():
    prof = asdim_profile(path_space(5), [1, 2], mesh_bounds=[2, 3])
    assert prof.space_name == "P5"
    assert [e.method for e in prof.entries] == ["exact", "exact"]
    assert [e.dimension for e in prof.entries] == [0, 1]
    assert [e.mesh_bound for e in prof.entries] == [2, 3]
    assert prof.entries[0].cover_name == "P5_exact_R1_B2"


def test_profile_default_mesh_bound_is_four_scales():
    prof = asdim_profile(path_space(5), [1])
    assert prof.entries[0].mesh_bound == 4


def test_profile_records_infeasible_entries():
    prof = asdim_profile(path_space(5), [1, 5], mesh_bounds=[2, 1])
    assert prof.entries[0].dimension == 0
    assert prof.entries[1].dimension is None
    assert prof.entries[1].infeasible is not None
    assert prof.entries[1].infeasible.point == 0


def test_profile_mode_switches():
    greedy = asdim_profile(path_space(5), [1], mode="greedy")
    assert greedy.entries[0].method == "greedy"
    assert greedy.entries[0].mesh_bound is None
    auto_large = asdim_profile(path_space(21), [1])
    assert auto_large.entries[0].method == "greedy"
    forced = asdim_profile(path_space(21), [1], mode="exact", max_points=21)
    assert forced.entries[0].method == "exact"
    assert forced.entries[0].dimension == 0


def test_profile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        asdim_profile(path_space(5), [])
    with pytest.raises(ValueError):
        asdim_profile(path_space(5), [2, 1])
    with pytest.raises(ValueError):
        asdim_profile(path_space(5), [1, 1])
    with pytest.raises(ValueError):
        asdim_profile(path_space(5), [0, 1])
    with pytest.raises(ValueError):
        asdim_profile(path_space(5), [1, 2], mesh_bounds=[2])
    with pytest.raises(ValueError):
        asdim_profile(path_space(5), [1], mode="best")


def test_family_profile_frozen_gap_reports():
    spaces = [path_space(9), cycle_space(8)]
    actions = [path_reflection_action(spaces[0]),
               cycle_rotation_action(spaces[1], 4)]
    fam = family_profile(spaces, [1, 2], mesh_bounds=[2, 4], actions=actions,
                         max_points=16)
    assert fam.family_dimension == (0, 1)
    # the largest realized mesh per scale, each within its mesh bound
    for i, bound in enumerate((2, 4)):
        assert fam.family_mesh[i] == max(p.entries[i].mesh for p in fam.profiles)
        assert fam.family_mesh[i] <= bound
    assert fam.quotient_profiles is not None
    relations = [(r.space_name, r.scale, r.relation) for r in fam.comparisons]
    assert relations == [("P9", 1, "equal"), ("P9", 2, "drop"),
                         ("C8", 1, "equal"), ("C8", 2, "equal")]
    drop = [r for r in fam.comparisons if r.relation == "drop"]
    assert drop[0].dimension == 1 and drop[0].quotient_dimension == 0


def test_family_profile_rejects_out_of_step_profiles():
    spaces = [path_space(5), cycle_space(4)]
    fam = family_profile(spaces, [1, 2], actions=[
        path_reflection_action(spaces[0]), cycle_rotation_action(spaces[1], 2)])
    with pytest.raises(ValueError, match="1 quotient profiles for 2 spaces"):
        dataclasses.replace(fam, quotient_profiles=fam.quotient_profiles[:1])
    shorter = dataclasses.replace(fam.profiles[1], entries=fam.profiles[1].entries[:1])
    reordered = dataclasses.replace(fam.quotient_profiles[0],
                                    entries=fam.quotient_profiles[0].entries[::-1])
    for profiles, quotients in (((fam.profiles[0], shorter), None),
                                (fam.profiles, (reordered, fam.quotient_profiles[1]))):
        with pytest.raises(ValueError, match="the same scales, in order"):
            FamilyProfile(profiles, quotients)
    with pytest.raises(ValueError, match="at least one space"):
        FamilyProfile(())


def test_profile_entry_holds_a_cover_or_an_infeasible_record():
    cover = ProfileEntry(1, 2, 0, 1, "c")
    infeasible = ProfileEntry(1, 2, None, None, infeasible=Infeasible(0, "none"))
    assert (cover.method, infeasible.method) == ("exact", "exact")
    assert ProfileEntry(1, None, 0, 4, "g").method == "greedy"
    for fields in (dict(dimension=None), dict(mesh=None), dict(cover_name=None),
                   dict(infeasible=Infeasible(0, "none"))):
        with pytest.raises(ValueError, match="either a cover's name"):
            dataclasses.replace(cover, **fields)
    with pytest.raises(ValueError, match="either a cover's name"):
        dataclasses.replace(infeasible, dimension=0)
    with pytest.raises(ValueError, match="either a cover's name"):
        dataclasses.replace(infeasible, infeasible=None)


def test_family_profile_without_actions():
    fam = family_profile([path_space(5), cycle_space(4)], [1])
    assert fam.quotient_profiles is None
    assert fam.comparisons is None
    assert fam.family_dimension == (0,)
    with pytest.raises(ValueError):
        family_profile([], [1])
    with pytest.raises(ValueError):
        family_profile([path_space(5)], [1],
                       actions=[path_reflection_action(path_space(5)),
                                path_reflection_action(path_space(5))])


def test_pipeline_produces_invariant_cover():
    a = path_reflection_action(path_space(5))
    result = equivariant_cover_pipeline(a, 1)
    assert isinstance(result, PipelineResult)
    assert len(result.quotient.space) == 3
    assert result.certificate.equivariant is True
    assert result.certificate.lebesgue >= 1
    assert result.certificate.dimension <= dimension(result.quotient_cover)
    assert result.cover.space == a.space


def test_pipeline_propagates_infeasibility():
    a = path_reflection_action(path_space(5))
    result = equivariant_cover_pipeline(a, 5, B=1)
    assert isinstance(result, Infeasible)


def test_exact_search_leaves_nothing_for_the_cyclic_collector():
    min_dimension_cover_exact(grid_space(3, 4), 2, 4)
    gc.collect()
    gc.disable()
    try:
        # a feasible search at caps 1 and 2, and an infeasible one
        assert dimension(min_dimension_cover_exact(grid_space(3, 4), 2, 4)) == 1
        assert isinstance(min_dimension_cover_exact(path_space(9), 5, 1), Infeasible)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pipeline_certifies_each_cover_once(lebesgue_calls):
    # Counts computations, not certify calls: lift_equivariant asks certify
    # for the quotient cover's certificate and gets the stored one.
    for a, mode in ((grid_rotation_action(grid_space(6, 6), 6, 6), "greedy"),
                    (path_reflection_action(path_space(9)), "exact")):
        del lebesgue_calls[:]
        result = equivariant_cover_pipeline(a, 2, mode=mode)
        # the estimator measures the quotient cover, the lift its own output
        assert lebesgue_calls == [result.quotient_cover.name, result.cover.name]


def test_pipeline_greedy_mode_for_large_spaces():
    a = path_reflection_action(path_space(31))
    result = equivariant_cover_pipeline(a, 2, mode="greedy")
    assert isinstance(result, PipelineResult)
    assert result.certificate.lebesgue >= 2
    assert result.certificate.equivariant is True


def test_pipeline_rejects_unknown_mode():
    a = path_reflection_action(path_space(5))
    with pytest.raises(ValueError, match="mode must be auto, exact or greedy"):
        equivariant_cover_pipeline(a, 1, mode="exatc")


def test_pipeline_auto_mode_and_default_mesh_bound():
    a = path_reflection_action(path_space(9))
    # within max_points the quotient is searched exactly, under B = 4R
    exact = equivariant_cover_pipeline(a, 1)
    assert exact.quotient_cover.name == "P9_mod_Z2_exact_R1_B4"
    # above it (the quotient has 5 points) auto falls back to greedy
    greedy = equivariant_cover_pipeline(a, 1, max_points=4)
    assert greedy.quotient_cover.name == "P9_mod_Z2_greedy_R1"
    assert greedy.certificate.equivariant is True


def test_greedy_entries_record_no_mesh_bound():
    # greedy takes no mesh bound: its mesh 4 exceeds the bound 2 asked for
    prof = asdim_profile(path_space(21), [1], mesh_bounds=[2])
    entry = prof.entries[0]
    assert (entry.method, entry.mesh_bound, entry.mesh) == ("greedy", None, 4)
    # a greedy space against its exactly searched quotient
    fam = family_profile([path_space(21)], [1], mesh_bounds=[2],
                         actions=[path_reflection_action(path_space(21))])
    qentry = fam.quotient_profiles[0].entries[0]
    assert (qentry.method, qentry.mesh_bound) == ("exact", 2)
    assert fam.comparisons[0].mesh_bound is None


def _theorem_actions():
    actions = [path_reflection_action(path_space(n)) for n in range(5, 15)]
    for n in range(6, 15):
        c = cycle_space(n)
        actions += [cycle_reflection_action(c), cycle_rotation_action(c, 1)]
        if n % 2 == 0:
            actions.append(cycle_rotation_action(c, n // 2))
    actions += [grid_rotation_action(grid_space(w, h), w, h)
                for w, h in ((3, 3), (3, 4), (2, 7), (4, 4))]
    for group in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
                  dihedral_group(3), dihedral_group(4)):
        actions += [random_invariant_instance(group, base, 0)[1]
                    for base in range(1, 14 // len(group) + 1)]
    return actions


THEOREM_SCALES = [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 4), (3, 6)]


@pytest.mark.parametrize("a", _theorem_actions(), ids=lambda a: a.name)
def test_both_directions_of_the_theorem_hold_at_finite_scales(a):
    # asdim(F\X) = asdim(X), one (R, B) at a time, with exact searches on both
    # sides.  Only a complete search passes: a cover the search missed on
    # either side can break an inequality.
    m, q, order = a.space, quotient(a), len(a.group)

    def exact(space, R, B):
        return min_dimension_cover_exact(space, R, B, max_points=len(space))

    for R, B in THEOREM_SCALES:
        cover, qcover = exact(m, R, B), exact(q.space, R, B)
        if not isinstance(cover, Infeasible):
            # Pushforward: dim(F\X) <= dim(pushed) <= |F|(dim(X) + 1) - 1.
            assert not isinstance(qcover, Infeasible)
            pushed = pushforward_cover(a, q, cover)[1]
            assert dimension(qcover) <= pushed.dimension \
                <= order * (dimension(cover) + 1) - 1
        if isinstance(qcover, Infeasible):
            continue
        # Lift: dim_{R, mesh(L)}(X) <= dim(L) <= dim(F\X), and the paper's
        # form dim_{R, 4s(|F|+1)}(X) <= dim(F\X) with s = max(B, R).
        lifted = lift_equivariant(a, q, qcover, R)[2]
        assert dimension(exact(m, R, lifted.mesh)) <= lifted.dimension \
            <= dimension(qcover)
        s = max(B, R)
        assert dimension(exact(m, R, 4 * s * (order + 1))) <= dimension(qcover)
