"""Covers of finite metric spaces, with exact certificates.

The three certified quantities of a cover are its dimension (largest point
multiplicity minus one), its mesh (largest member diameter) and its Lebesgue
number.  The Lebesgue number is given by the complement-distance formula

    L = min over points x of  max over members U of  d(x, X \\ U)

with d(x, emptyset) = INF, which makes the contract exact: for every R <= L
each open R-ball around any point sits inside some member, and for every
R > L some open R-ball does not.

A whole-space member answers at once: its complement is empty, so L is
INF, and its diameter, the largest entry of the table, is the mesh.  The
space finds it on first use and keeps it (see
FiniteMetricSpace.diameter), so measuring another such cover of the same
space reads it without a scan.  check_equivariance skips such a member,
as every permutation fixes the whole set.

certify and verify_certificate measure all three from one pass over the
members, which builds for each point a mask with bit k set when member k
contains it, and from the space's integer table (see
FiniteMetricSpace.integer_rows): the dimension is the largest bit count
of a mask minus one; the mesh is one running maximum over the members,
each member's columns gathered from the integer rows of its points, with
one-point members skipped (their diameter is 0) and the integer found
returned once, as the distance it stands for; and L is the walk below,
which returns its integer the same way.  dimension, mesh and
lebesgue_number each build what their own quantity needs.

In a metric, a member without x contributes d(x, x) = 0, and for a
member U containing x, d(x, X \\ U) is the distance to the nearest point
that is not in U.  Let L_x be the max over U of d(x, X \\ U).  Coverage
is tested first, on the masks alone: a point in no member has L_x =
d(x, x) = 0, the least value there is, and 0 is the answer.

Every other point is in a member that is not the whole space, so its L_x
is at least the least off-diagonal entry, which on a valid integer table
is at least 1.  Let L' be the least L_x of the points before x: L_x >= L'
exactly when some member contains the open L'-ball around x, that is when
the masks of that ball's points share a bit.  One pass over x's row
gathers the ball and the AND of its masks settles most points; only when
it is zero is the ball sorted and walked nearest first, ANDing the masks
of the points passed, and the step that clears the last bit lands on
L_x < L'.  Once L' is 1 no later point can go below it, so the walk stops
there.  The formula is thus evaluated exactly, with no scan of the
complement and no sort of a whole row but the first.

These steps use the metric axioms (d(x, x) = 0, d >= 0 and symmetry), so
mesh, lebesgue_number, certify and verify_certificate require a space for
which validate_metric returns no violations; the CLI loads only such
spaces.  On a table that fails the check, the value returned need not be
the definition's.

Given an action, certify and verify_certificate run the equivariance check
first; it maps the first member of each member-orbit under every element,
so it also learns whether F fixes that member.  When the cover is
invariant with no whole-space member, the Lebesgue number and the mesh are
measured once per orbit.  Proof: each g is an isometry permuting the
members, so B(gx, r) = g.B(x, r) lies in gU exactly when B(x, r) lies in
U, and diam gU = diam U; L_x and the multiplicity are constant on orbits,
and in a member U that F fixes, d(gx, y) = d(x, g^-1 y) with g^-1 y in U.
So the multiplicity is read off every point's mask (the masks are built
for every point anyway), the Lebesgue walk runs at the orbit-least points
only (x with x = min of g.x over F), and the mesh measures the first
member of each member-orbit, in a member F fixes gathering only its
orbit-least points' rows.  The values returned are thus the full
measurement's.  This needs a valid action (validate_action(a) == []), as
quotient does; the CLI loads only such actions.  With no action, a cover
that is not invariant or a whole-space member, every point and member is
measured.

certify keeps the dimension, Lebesgue number and mesh it measures on the
Cover, whose fields cannot be reassigned or deleted; verify_certificate
ignores them.
What the space keeps (its integer rows, which a loaded or quotient table
gets from the pass that builds it, and its diameter) belongs to the table,
not to certify's record, and both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, itemgetter, lt
from typing import Iterable

from .errors import Violation
from .groups import IsometricAction
from .metric import (INF, FiniteMetricSpace, Scalar, _construct, _no_deletion,
                     _no_reassignment, _set_distance, check_count, check_indices,
                     check_scalar)


def _point_sets(space: FiniteMetricSpace,
                sets: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """The sets as frozensets, checked by check_indices to hold only point
    indices of the space: all their points in one pass and, only if that
    fails, set by set, naming member k for the first set k with a bad point.
    A set not yet frozen is checked as given, before True can merge into 1,
    so its first bad point in reading order is named."""
    sets = [items if type(items) is frozenset else tuple(items) for items in sets]
    n = len(space)
    try:
        check_indices(tuple(chain.from_iterable(sets)), n, "a point")
    except ValueError:
        for k, items in enumerate(sets):
            check_indices(items, n, f"a point of member {k} over {space.name!r}")
    return tuple(map(frozenset, sets))


class Cover:
    """An ordered list of members (point index sets) over a fixed space.

    Construction checks only that indices are in range; emptiness, coverage
    and duplicates are validate_cover's job so bad input can be reported
    instead of half-rejected.
    """

    __setattr__, __delattr__ = _no_reassignment, _no_deletion
    _measured = None    # certify's dimension, Lebesgue number and mesh, kept

    def __init__(self, space: FiniteMetricSpace, members: Iterable[Iterable[int]],
                 name: str = "cover"):
        _construct(self, space=space, members=_point_sets(space, members),
                   name=str(name))

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Cover({self.name!r}, {len(self.members)} members over {self.space.name!r})"


@dataclass(frozen=True)
class CoverCertificate:
    """Certified quantities of a cover.  Every field is recomputable from the
    cover itself, and verify_certificate insists on exact agreement; nothing
    here is ever trusted from a file.  Construction rejects a dimension or
    ball_meet that is not a count, a meet_radius that is not exact and an
    equivariant that is not a bool; each but the dimension may be None."""

    dimension: int
    lebesgue: Scalar | float
    mesh: Scalar
    meet_radius: Scalar | None = None
    ball_meet: int | None = None
    equivariant: bool | None = None

    def __post_init__(self):
        check_count(self.dimension, "dimension")
        if self.ball_meet is not None:
            check_count(self.ball_meet, "ball_meet")
        if type(self.equivariant) not in (bool, type(None)):
            raise ValueError(f"equivariant must be a bool or None, got "
                             f"{self.equivariant!r}")
        if self.meet_radius is not None:
            check_scalar(self.meet_radius, "meet_radius")


def validate_cover(c: Cover) -> list[Violation]:
    out: list[Violation] = []
    seen: dict[frozenset, int] = {}
    for k, member in enumerate(c.members):
        if not member:
            out.append(Violation("empty-member", (k,), f"member {k} is empty"))
        if member in seen:
            out.append(Violation("duplicate-member", (seen[member], k),
                                 f"members {seen[member]} and {k} are the same point set"))
        else:
            seen[member] = k
    missing = sorted(set(range(len(c.space))).difference(*c.members))
    if missing:
        out.append(Violation("coverage", tuple(missing), "points not covered: "
                             + ", ".join(c.space.points[x] for x in missing)))
    return out


def dimension(c: Cover) -> int:
    """Largest number of members through one point, minus one."""
    return max(map(int.bit_count, _masks(c))) - 1


def mesh(c: Cover) -> Scalar:
    """Largest member diameter.  When a member is the whole space and none
    is empty (an empty member has no diameter), that is the space's kept
    diameter, as c.space is a metric; see the module docstring."""
    return _mesh(c, zip(c.members, c.members))


def lebesgue_number(c: Cover):
    """Complement-distance Lebesgue number; INF when a member is the whole
    space, and 0 when a point is in no member.  Otherwise the least L_x,
    with the walk stopped once it reaches one integer unit, the least a
    covered point can have.

    c.space must be a metric (validate_metric(c.space) == []); see the
    module docstring."""
    return _lebesgue(c, _masks(c), range(len(c.space)))


def _masks(c: Cover) -> list[int]:
    """Per point of c.space, the mask with bit k set when member k holds it."""
    masks = [0] * len(c.space)
    for k, member in enumerate(c.members):
        bit = 1 << k
        for x in member:
            masks[x] |= bit
    return masks


def _lebesgue(c: Cover, masks: list[int], points: Iterable[int]):
    """lebesgue_number(c), from the masks of _masks(c), with the walk
    visiting only the given points, in the order given."""
    if not c.members:
        raise ValueError("Lebesgue number of a cover with no members is undefined")
    m = c.space
    if len(m) in map(len, c.members):
        return INF      # an empty complement, known before any table is read
    if 0 in masks:
        return 0        # a point in no member: L_x = d(x, x) = 0, the least
    # best is the least L_x so far, in the integer table (see the module
    # docstring).  No member is the whole space, so the first point's walk,
    # over the whole space, stops too.
    everywhere = range(len(m))
    rows = m.integer_rows()
    best = None
    for x in points:
        row = rows[x]
        if best is None:
            near = everywhere
        else:
            near = list(compress(everywhere, map(lt, row, repeat(best))))
            if reduce(and_, map(masks.__getitem__, near)):
                continue
        alive = masks[x]
        for y in sorted(near, key=row.__getitem__):
            alive &= masks[y]
            if not alive:
                break
        best = row[y]
        if best == 1:
            break       # one unit: no covered point goes below it
    return m._scalar(best)


def _mesh(c: Cover, reads: Iterable[tuple[frozenset[int], Iterable[int]]]) -> Scalar:
    """mesh(c), measured on the members of reads, each with the points whose
    integer rows are gathered at its columns (points of the member whose
    rows hold its largest entry too): one running maximum, with one-point
    members skipped and the scalar made once at the end."""
    m = c.space
    if all(c.members) and len(m) in map(len, c.members):
        return m.diameter()
    rows = m.integer_rows()
    top = 0
    for member, rows_of in reads:
        if len(member) < 2:
            if not member:
                raise ValueError("diameter of the empty set is undefined")
            continue
        gather = itemgetter(*member)
        for x in rows_of:
            widest = max(gather(rows[x]))
            if widest > top:
                top = widest
    return m._scalar(top)


def ball_meet_count(c: Cover, radius: Scalar) -> int:
    """Largest number of members met by one open ball of the given radius."""
    check_scalar(radius, "radius")
    m = c.space
    return max(sum(1 for member in c.members if _set_distance(m, (x,), member) < radius)
               for x in range(len(m)))


def check_equivariance(a: IsometricAction, c: Cover) -> tuple[bool, tuple | None]:
    """Whether the member family is preserved by every group element, as a
    family of sets.  Witness on failure: (member index, group element), the
    first in index order.  The action must be valid (validate_action(a) ==
    []), as for quotient; the CLI loads only such actions."""
    witness = _member_orbits(a, c)[0]
    return witness is None, witness


def _member_orbits(a: IsometricAction, c: Cover) -> tuple[tuple | None, list | None]:
    """check_equivariance's witness, None when the family is invariant, and
    then, unless a member is the whole space, (member, fixed) for the first
    member of each member-orbit in index order, fixed when F fixes it.

    Only those first members are mapped: under a valid action the images of
    an image hU are images (gh)U of U, so a member already seen as an image
    has every image in the family, and the first failing (member, element)
    is the one a check of every member finds."""
    if c.space != a.space:
        raise ValueError("cover and action live on different spaces")
    family = set(c.members)
    n = len(c.space)
    seen: set[frozenset[int]] = set()
    firsts: list | None = []
    for k, member in enumerate(c.members):
        if len(member) == n:
            firsts = None   # every permutation fixes the whole set
        elif member not in seen:
            orbit = {frozenset(map(perm.__getitem__, member)) for perm in a.perms}
            if not orbit <= family:
                return (k, next(g for g, perm in enumerate(a.perms)
                                if frozenset(map(perm.__getitem__, member)) not in family)), None
            seen |= orbit
            if firsts is not None:
                firsts.append((member, len(orbit) == 1))
    return None, firsts


def _measure(c: Cover, action: IsometricAction | None, firsts: list | None) -> tuple:
    """Dimension, Lebesgue number and mesh of c, from one build of the
    membership masks: per orbit when firsts (from _member_orbits) shows c
    invariant with no whole-space member, else at every point and member;
    the same values either way (see the module docstring)."""
    masks = _masks(c)
    if firsts is None:
        points, reads = range(len(c.space)), zip(c.members, c.members)
    else:
        least = frozenset(map(min, zip(*action.perms)))
        points = sorted(least)
        reads = [(member, least & member if fixed else member) for member, fixed in firsts]
    return max(map(int.bit_count, masks)) - 1, _lebesgue(c, masks, points), _mesh(c, reads)


def _certificate(c: Cover, measured: tuple, meet_radius: Scalar | None,
                 equivariant: bool | None) -> CoverCertificate:
    meet = None if meet_radius is None else ball_meet_count(c, meet_radius)
    return CoverCertificate(*measured, meet_radius=meet_radius, ball_meet=meet,
                            equivariant=equivariant)


def certify(c: Cover, meet_radius: Scalar | None = None,
            action: IsometricAction | None = None) -> CoverCertificate:
    """Every certified quantity of the cover.  Dimension, Lebesgue number and
    mesh are measured on the first call and kept on the cover; with an
    action that leaves the cover invariant, once per orbit.

    c.space must be a metric (validate_metric(c.space) == []): the
    Lebesgue number is computed with the metric axioms.  An action must be
    valid (validate_action(action) == []): the orbit measurement uses it."""
    witness, firsts = (None, None) if action is None else _member_orbits(action, c)
    if c._measured is None:
        c._measured = _measure(c, action, firsts)
    return _certificate(c, c._measured, meet_radius,
                        None if action is None else witness is None)


def verify_certificate(c: Cover, cert: CoverCertificate,
                       action: IsometricAction | None = None) -> list[Violation]:
    """Recompute every quantity once from the raw cover, without certify's
    record, and compare; any disagreement is a violation.  The space's own
    kept values (its integer rows and diameter) are read, not recomputed:
    they depend on the table alone, never on a cover.

    Like certify, this requires c.space to be a metric and an action to be
    valid, and measures an invariant cover once per orbit."""
    witness, firsts = (None, None) if action is None else _member_orbits(action, c)
    fresh = _certificate(c, _measure(c, action, firsts), cert.meet_radius,
                         None if action is None else witness is None)
    return [Violation("certificate", (field,),
                      f"{field}: certificate says {claimed}, recomputed {actual}")
            for (field, claimed), actual in zip(vars(cert).items(), vars(fresh).values())
            if claimed != actual]
