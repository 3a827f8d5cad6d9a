"""Cover-dimension estimation at a fixed scale, exact and greedy.

"Exact" means: minimal dimension among all covers with Lebesgue number >= R
and mesh <= B, at every size the search accepts.  Any such cover serves
each point's open R-ball from some member containing it; shrinking every
member to the union of the balls it serves keeps both bounds and never
raises a multiplicity.  So one depth-first search, on int bitmasks and an
explicit stack, assigns points to serve-groups, each group's union of balls
a clique of the "within B" graph.  Iterative deepening on the multiplicity
cap makes its dimension the true minimum, which the tests cross-check with
a partition enumerator and a clique enumerator.  "Greedy" is the same
search at B = 4R with no cap: its first descent, which never backtracks.
Both return the unions in opening order, equal ones merged, as members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import le, lt
from typing import Sequence

from .covers import Cover, CoverCertificate, certify
from .constructions import LiftTrace, lift_equivariant
from .errors import CapExceededError, InternalInvariantError
from .groups import IsometricAction, QuotientSpace, quotient
from .metric import (FiniteMetricSpace, Scalar, check_count, check_positive, check_scalar,
                     diameter)

EXACT_POINT_CAP = 14


@dataclass(frozen=True)
class Infeasible:
    """The open R-ball around `point` (the first such point, by index) has
    diameter above B, so no member of mesh <= B can contain it and no cover
    exists; `message` names the point, the ball's diameter and B.  Returned,
    not raised, because at a too-small mesh bound this is an answer, not an
    accident.  A profile document keeps both fields; construction rejects a
    point that is not a count and a message that is not a str."""

    point: int
    message: str

    def __post_init__(self):
        check_count(self.point, "an infeasible record's point")
        if not isinstance(self.message, str):
            raise ValueError(f"an infeasible record's message must be a str, "
                             f"got {self.message!r}")


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _ball_masks(m: FiniteMetricSpace, r: Scalar, within) -> list[int]:
    """For each point p, the mask of the points q with within(d(p, q), r):
    the closed r-balls for operator.le, the open ones for operator.lt.
    Under le at r = B, a point set has diameter <= B exactly when it is a
    clique of the graph these masks describe.  They compare integer rows
    with floor(r * scale) for le and ceil(r * scale) for lt, exactly."""
    bits = [1 << q for q in range(len(m))]
    cut = r * m.integer_scale()
    cut = math.floor(cut) if within is le else math.ceil(cut)
    return [sum(compress(bits, map(within, row, repeat(cut)))) for row in m.integer_rows()]


def _reach(mask: int, near: Sequence[int]) -> int:
    """The points within B of every point of `mask`.  The union of two
    cliques is a clique exactly when one lies inside the other's reach."""
    reach = -1
    while mask:
        low = mask & -mask
        reach &= near[low.bit_length() - 1]
        mask ^= low
    return reach


def _serve_groups(needs: Sequence[int], reaches: Sequence[int],
                  cap: int | None = None) -> list[int] | None:
    """Unions of required balls, each a clique, containing every point's
    required ball with no point in more than `cap` of them (any number if
    cap is None), in opening order; None if there are none.

    A ball may join a group when it lies inside the group's reach
    (reaches[x] is that of x's ball).  levels[k] is the mask of the points
    in more than k groups, and no step may raise a point at the top level.
    One rule at each node: a point whose ball lies inside a union is
    served; the first point whose ball meets the top level and fits at most
    one group is branched on (with none, the node fails); else the first
    unserved point is, trying the open groups in opening order and then a
    new group.  Uncapped, every ball can open a group, so the first descent
    never fails: that is greedy_cover.  Deterministic.
    """
    n = len(needs)
    unions: list[int] = []          # per group, in opening order
    group_reach: list[int] = []
    # A frame per branching point: [point, next option (the node's group
    # count for a new group), the union and reach its last option changed
    # (0 and -1 for a new group), and the node's levels, served mask and
    # first unserved point].
    stack: list[list] = []
    levels, served, first = [0] * (cap or 0), 0, 0
    while True:
        full = levels[-1] if levels else 0
        point = None
        for x in range(first, n):
            need = needs[x]
            if served >> x & 1 or point is not None and not need & full:
                continue
            if any(not need & ~union for union in unions):
                served |= 1 << x
                continue
            if point is None:
                point = first = x
            if not full or need & full and sum(
                    not need & ~reach and not need & ~union & full
                    for union, reach in zip(unions, group_reach)) < 2:
                point = x
                break
        if point is None:
            return unions
        stack.append([point, 0, None, levels, served, first])
        while stack:
            frame = stack[-1]
            point, g, saved, levels, served, first = frame
            if g:
                unions[g - 1], group_reach[g - 1] = saved
                if not saved[0]:        # it opened a new group
                    del unions[-1], group_reach[-1]
            need = needs[point]
            full = levels[-1] if levels else 0
            while g < len(unions) and (need & ~group_reach[g] or need & ~unions[g] & full):
                g += 1
            if g > len(unions) or g == len(unions) and need & full:
                stack.pop()
                continue
            if g == len(unions):
                unions.append(0)
                group_reach.append(-1)
            frame[1], frame[2] = g + 1, (unions[g], group_reach[g])
            added = need & ~unions[g]
            unions[g] |= need
            group_reach[g] &= reaches[point]
            if levels:
                levels = [levels[0] | added] + [hi | lo & added for lo, hi
                                                in zip(levels, levels[1:])]
            served |= 1 << point
            break
        else:
            return None


def min_dimension_cover_exact(m: FiniteMetricSpace, R: Scalar, B: Scalar,
                              max_points: int = EXACT_POINT_CAP
                              ) -> Cover | Infeasible:
    """Minimal-dimension cover with Lebesgue number >= R and mesh <= B, over
    all such covers; Infeasible if some open R-ball has diameter above B.

    _serve_groups runs at caps 1, 2, ... until one succeeds, so the
    dimension is minimal; the members are its unions in opening order,
    equal ones merged, as in greedy_cover.  Deterministic, and the
    Lebesgue number, mesh and dimension are certified before it returns.
    """
    check_positive(R, "R")
    check_scalar(B, "B")
    if B < 0:
        raise ValueError(f"B must be nonnegative, got {B}")
    if len(m) > max_points:
        raise CapExceededError(
            f"exact search is capped at {max_points} points and {m.name!r} has "
            f"{len(m)}; use greedy_cover for larger spaces")

    near = _ball_masks(m, B, le)
    needs = _ball_masks(m, R, lt)
    reaches = [_reach(need, near) for need in needs]
    for x, need in enumerate(needs):
        if need & ~reaches[x]:
            return Infeasible(
                point=x,
                message=(f"the open {R}-ball around {m.points[x]} has diameter "
                         f"{diameter(m, _bits(need))}, above the mesh bound {B}"))

    for cap in range(1, len(m) + 1):
        unions = _serve_groups(needs, reaches, cap)
        if unions is not None:
            cover = Cover(m, map(_bits, dict.fromkeys(unions)),
                          name=f"{m.name}_exact_R{R}_B{B}")
            cert = certify(cover)
            if not cert.lebesgue >= R:
                raise InternalInvariantError("exact cover misses its Lebesgue target")
            if not cert.mesh <= B:
                raise InternalInvariantError("exact cover exceeds its mesh bound")
            if cert.dimension != cap - 1:
                raise InternalInvariantError(
                    f"search at multiplicity cap {cap} returned dimension "
                    f"{cert.dimension}")
            return cover
    raise InternalInvariantError("exact search failed with every required ball "
                                 "a clique")


def greedy_cover(m: FiniteMetricSpace, R: Scalar) -> tuple[Cover, CoverCertificate]:
    """_serve_groups at mesh bound 4R with no multiplicity cap: the exact
    search's first descent.  In index order, an open R-ball in no group's
    union joins the first group, in opening order, whose reach contains it,
    else opens a new one; it has diameter < 2R, so nothing fails or is
    undone.  The members are the unions in opening order, equal ones
    merged: mesh <= 4R, and Lebesgue number >= R, re-proved on the result.
    """
    check_positive(R, "R")
    near = _ball_masks(m, 4 * R, le)
    needs = _ball_masks(m, R, lt)
    unions = _serve_groups(needs, [_reach(need, near) for need in needs])
    cover = Cover(m, map(_bits, dict.fromkeys(unions)), name=f"{m.name}_greedy_R{R}")
    cert = certify(cover)
    if not cert.lebesgue >= R:
        raise InternalInvariantError(
            f"greedy cover has Lebesgue number {cert.lebesgue} < {R}")
    return cover, cert


def _estimate_cover(m: FiniteMetricSpace, R: Scalar, B: Scalar | None, mode: str,
                    max_points: int) -> tuple[Scalar | None, Cover | Infeasible]:
    """The cover at scale R that `mode` asks for, with the mesh bound the
    search ran under: None when greedy ran, whose 4R is its own bound.
    "exact" searches under B, or 4R when B is None; "greedy" runs the first
    descent; "auto" searches within max_points points, which must be >= 1.
    """
    if mode not in ("auto", "exact", "greedy"):
        raise ValueError(f"mode must be auto, exact or greedy, got {mode!r}")
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    if mode == "greedy" or (mode == "auto" and len(m) > max_points):
        return None, greedy_cover(m, R)[0]
    B = B if B is not None else 4 * R
    return B, min_dimension_cover_exact(m, R, B, max_points)


@dataclass(frozen=True)
class ProfileEntry:
    """Best cover found at one scale: the target R, the mesh bound the search
    ran under (None when greedy ran: its 4R is its own), and either the
    cover's name and actual, recomputed quantities or why no cover exists.
    Construction also rejects a scale that is not a positive exact scalar,
    a mesh or mesh bound that is not a nonnegative one, and a dimension
    that is not a nonnegative int."""

    scale: Scalar
    mesh_bound: Scalar | None
    dimension: int | None
    mesh: Scalar | None
    cover_name: str | None = None
    infeasible: Infeasible | None = None

    def __post_init__(self):
        found = (self.cover_name, self.dimension, self.mesh)
        if [v is None for v in found] != [self.infeasible is not None] * 3:
            raise ValueError(f"the entry at scale {self.scale} must hold either a "
                             f"cover's name, dimension and mesh or an infeasible record")
        check_positive(self.scale, "a profile entry's scale")
        for field in ("mesh_bound", "mesh"):
            value = getattr(self, field)
            if value is not None and check_scalar(value, f"the {field} at scale "
                                                  f"{self.scale}") < 0:
                raise ValueError(f"the {field} at scale {self.scale} must be >= 0, "
                                 f"got {value}")
        if self.dimension is not None:
            check_count(self.dimension, f"the dimension at scale {self.scale}")

    @property
    def method(self) -> str:
        """"exact" or "greedy", as the mesh bound records."""
        return "greedy" if self.mesh_bound is None else "exact"


@dataclass(frozen=True)
class DimensionProfile:
    space_name: str
    entries: tuple[ProfileEntry, ...]


def asdim_profile(m: FiniteMetricSpace, scales: Sequence[Scalar],
                  mesh_bounds: Sequence[Scalar] | None = None,
                  mode: str = "auto",
                  max_points: int = EXACT_POINT_CAP) -> DimensionProfile:
    """Best-found cover dimension per scale.

    "exact" searches at every scale and raises CapExceededError above
    max_points points, "greedy" runs the first descent (mesh <= 4R), and
    "auto" searches within max_points and runs greedy beyond.  A search's
    mesh bound is the scale's entry of mesh_bounds, 4R when none are given;
    greedy entries record none.  Scales must be positive, strictly increasing.
    """
    scales = list(scales)
    if not scales:
        raise ValueError("at least one scale is required")
    for i, R in enumerate(scales):
        check_positive(R, f"scale[{i}]")
        if i and not scales[i] > scales[i - 1]:
            raise ValueError("scales must be strictly increasing")
    mesh_bounds = [None] * len(scales) if mesh_bounds is None else list(mesh_bounds)
    if len(mesh_bounds) != len(scales):
        raise ValueError(f"{len(mesh_bounds)} mesh bounds for {len(scales)} scales")

    entries = []
    for R, B in zip(scales, mesh_bounds):
        bound, result = _estimate_cover(m, R, B, mode, max_points)
        if isinstance(result, Infeasible):
            found = (None, None, None, result)
        else:
            cert = certify(result)
            found = (cert.dimension, cert.mesh, result.name, None)
        entries.append(ProfileEntry(R, bound, *found))
    return DimensionProfile(space_name=m.name, entries=tuple(entries))


@dataclass(frozen=True)
class PipelineResult:
    """Everything the quotient-then-lift pipeline produced."""

    quotient: QuotientSpace
    quotient_cover: Cover
    cover: Cover
    trace: LiftTrace
    certificate: CoverCertificate


def equivariant_cover_pipeline(a: IsometricAction, R: Scalar,
                               B: Scalar | None = None, mode: str = "auto",
                               max_points: int = EXACT_POINT_CAP
                               ) -> PipelineResult | Infeasible:
    """Quotient the action, estimate a cover of the quotient at scale R as
    `mode` asks, and lift it.

    The result is an invariant cover of the original space with Lebesgue
    number >= R, dimension no worse than the quotient cover's, and mesh
    controlled by the lift bound.  Estimator infeasibility is propagated.
    To lift a quotient cover you already have, call lift_equivariant.
    """
    q = quotient(a)
    _, qc = _estimate_cover(q.space, R, B, mode, max_points)
    if isinstance(qc, Infeasible):
        return qc

    cover, trace, cert = lift_equivariant(a, q, qc, R)
    return PipelineResult(quotient=q, quotient_cover=qc, cover=cover, trace=trace,
                          certificate=cert)


@dataclass(frozen=True)
class GapReport:
    """Dimension of a space versus its quotient at one scale."""

    space_name: str
    scale: Scalar
    mesh_bound: Scalar | None
    dimension: int | None
    quotient_dimension: int | None

    @property
    def relation(self) -> str:
        """"equal", "drop" (quotient lower), "exceeds" or "infeasible"."""
        if self.dimension is None or self.quotient_dimension is None:
            return "infeasible"
        if self.quotient_dimension == self.dimension:
            return "equal"
        return "drop" if self.quotient_dimension < self.dimension else "exceeds"


def _max_or_none(values: list) -> Scalar | None:
    return None if None in values else max(values)


@dataclass(frozen=True)
class FamilyProfile:
    """Profiles of a family of spaces and, when actions were given, one
    profile of each space's quotient, all at the same scales.  The family
    maxima and the comparisons are derived from these entries."""

    profiles: tuple[DimensionProfile, ...]
    quotient_profiles: tuple[DimensionProfile, ...] | None = None

    def __post_init__(self):
        if not self.profiles:
            raise ValueError("at least one space is required")
        if self.quotient_profiles is not None and \
                len(self.quotient_profiles) != len(self.profiles):
            raise ValueError(f"{len(self.quotient_profiles)} quotient profiles "
                             f"for {len(self.profiles)} spaces")
        if len({tuple(e.scale for e in p.entries) for p in
                chain(self.profiles, self.quotient_profiles or ())}) > 1:
            raise ValueError("every profile must have the same scales, in order")

    @property
    def family_dimension(self) -> tuple[int | None, ...]:
        """Per scale, the spaces' largest dimension; None if one has no cover."""
        return tuple(_max_or_none([e.dimension for e in entries])
                     for entries in zip(*(p.entries for p in self.profiles)))

    @property
    def family_mesh(self) -> tuple[Scalar | None, ...]:
        """Per scale, the spaces' largest mesh; None if one has no cover."""
        return tuple(_max_or_none([e.mesh for e in entries])
                     for entries in zip(*(p.entries for p in self.profiles)))

    @property
    def comparisons(self) -> tuple[GapReport, ...] | None:
        """Per space and scale, in profile order; None without quotients."""
        if self.quotient_profiles is None:
            return None
        return tuple(GapReport(p.space_name, e.scale, e.mesh_bound, e.dimension,
                               qe.dimension)
                     for p, qp in zip(self.profiles, self.quotient_profiles)
                     for e, qe in zip(p.entries, qp.entries))


def family_profile(spaces: Sequence[FiniteMetricSpace], scales: Sequence[Scalar],
                   mesh_bounds: Sequence[Scalar] | None = None,
                   actions: Sequence[IsometricAction] | None = None,
                   mode: str = "auto",
                   max_points: int = EXACT_POINT_CAP) -> FamilyProfile:
    """Profiles for a family of spaces and, when actions are supplied, for
    their quotients; the family maxima and per-scale comparisons follow from
    them.  A quotient dimension above the space's is reported, not asserted:
    at a fixed scale that is a finding, not a contradiction."""
    spaces = list(spaces)
    if actions is not None:
        if len(actions) != len(spaces):
            raise ValueError(f"{len(actions)} actions for {len(spaces)} spaces")
        for m, a in zip(spaces, actions):
            if a.space != m:
                raise ValueError(f"action {a.name!r} does not act on {m.name!r}")
    return FamilyProfile(
        profiles=tuple(asdim_profile(m, scales, mesh_bounds, mode, max_points)
                       for m in spaces),
        quotient_profiles=None if actions is None else tuple(
            asdim_profile(quotient(a).space, scales, mesh_bounds, mode, max_points)
            for a in actions))
