"""Covers and decompositions of finite metric spaces, with exact certificates.

The three certified quantities of a cover are its dimension (largest point
multiplicity minus one), its mesh (largest member diameter) and its Lebesgue
number.  The Lebesgue number is given by the complement-distance formula

    L = min over points x of  max over members U of  d(x, X \\ U)

with d(x, emptyset) = INF, which makes the contract exact: for every R <= L
each open R-ball around any point sits inside some member, and for every
R > L some open R-ball does not.

A whole-space member answers at once: its complement is empty, so L is
INF, and its diameter, the largest entry of the table, is the mesh.  The
space finds that entry on first use and keeps it (see
FiniteMetricSpace.diameter), so measuring another such cover of the same
space reads it without a scan.  check_equivariance skips such a member,
as every permutation fixes the whole set.

Otherwise L is evaluated on the space's integer table (see
FiniteMetricSpace.integer_rows), and every value returned is the table's
own entry where the integer one stands.  In a metric, a member without x
contributes d(x, x) = 0, and for a member U containing x, d(x, X \\ U) is
the distance to the nearest point that is not in U.  Each point keeps a
mask with bit k set when member k contains it.  Let L_x be the max over U
of d(x, X \\ U).  Coverage is tested first, on the masks alone: a point
in no member has L_x = d(x, x) = 0, the least value there is, and the
first such point's diagonal entry is the answer.

Every other point is in a member that is not the whole space, so its L_x
is at least the least off-diagonal entry, which on a valid integer table
is at least 1.  Let L' be the least L_x of the points before x: L_x >= L'
exactly when some member contains the open L'-ball around x, that is when
the masks of that ball's points share a bit.  One pass over x's row
gathers the ball and the AND of its masks settles most points; only when
it is zero is the ball sorted and walked nearest first, ANDing the masks
of the points passed, and the step that clears the last bit lands on
L_x < L'.  Once L' is 1 no later point can go below it, so the walk stops
there; as L' only ever moves to a strictly smaller L_x, the (x, y) kept
is the one the full walk would keep, and so is the entry returned, on a
Fraction table too.  The formula is thus evaluated exactly, with no scan
of the complement and no sort of a whole row but the first.

These steps use the metric axioms (d(x, x) = 0, d >= 0 and symmetry), so
mesh, lebesgue_number, certify and verify_certificate require a space for
which validate_metric returns no violations; the CLI loads only such
spaces.  On a table that fails the check, the value returned need not be
the definition's.

Given an action, certify and verify_certificate run the equivariance check
first; it maps the first member of each member-orbit under every element,
so it also learns whether F fixes that member.  When the cover is
invariant with no whole-space member, each quantity is measured once per
orbit.  Proof: each g is an isometry permuting the members, so B(gx, r) =
g.B(x, r) lies in gU exactly when B(x, r) lies in U, and diam gU = diam U;
L_x and the multiplicity are constant on orbits, and in a member U that F
fixes, d(gx, y) = d(x, g^-1 y) with g^-1 y in U.  So the multiplicity is
counted and the Lebesgue walk run at the orbit-least points only (x with
x = min of g.x over F), and the mesh measures the first member of each
member-orbit, in a member F fixes gathering only its orbit-least points'
rows.  The points of least L_x form an invariant set, so the first of
them, the one the walk keeps, is orbit-least; the first member of largest
diameter is the first of its orbit, and its entry is located on all its
rows: the entries returned are the full measurement's.  This needs a
valid action (validate_action(a) == []), as quotient does; the CLI loads
only such actions.  With no action, a cover that is not invariant or a
whole-space member, every point and member is measured.

certify keeps the dimension, Lebesgue number and mesh it measures on the
Cover, keyed on its `space` and `members`; verify_certificate ignores them.
What the space keeps (its integer rows, which a loaded or quotient table
gets from the pass that builds it, and its diameter) belongs to the table,
not to certify's record, and both use it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, lt
from typing import Iterable, Sequence

from .errors import InternalInvariantError, Violation
from .groups import IsometricAction
from .metric import (INF, FiniteMetricSpace, Scalar, _diameter, _set_distance, check_count,
                     check_indices, check_scalar)


def _point_sets(space: FiniteMetricSpace, sets: Iterable[Iterable[int]],
                what: str) -> tuple[frozenset[int], ...]:
    """The sets as frozensets, checked by check_indices to hold only point
    indices of the space: all their points in one pass and, only if that
    fails, set by set, naming what.format(k) for the first set k with a bad
    point.  A set not yet frozen is checked as given, before True can merge
    into 1, so its first bad point in reading order is named."""
    sets = [items if type(items) is frozenset else tuple(items) for items in sets]
    n = len(space)
    try:
        check_indices(tuple(chain.from_iterable(sets)), n, "a point")
    except ValueError:
        for k, items in enumerate(sets):
            check_indices(items, n, f"a point of {what.format(k)} over {space.name!r}")
    return tuple(map(frozenset, sets))


class Cover:
    """An ordered list of members (point index sets) over a fixed space.

    Construction checks only that indices are in range; emptiness, coverage
    and duplicates are validate_cover's job so bad input can be reported
    instead of half-rejected.
    """

    def __init__(self, space: FiniteMetricSpace, members: Iterable[Iterable[int]],
                 name: str = "cover"):
        self.space = space
        self.members = _point_sets(space, members, "member {}")
        self.name = str(name)
        self._measured = (None, None)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Cover({self.name!r}, {len(self.members)} members over {self.space.name!r})"


class Decomposition:
    """Families of pieces witnessing "asymptotic dimension <= n at scale r":
    the pieces of one family must be pairwise more than r apart, and all
    pieces together must cover the space.  Families may be empty.
    """

    def __init__(self, space: FiniteMetricSpace, r: Scalar,
                 families: Iterable[Iterable[Iterable[int]]], name: str = "decomposition"):
        self.space = space
        check_scalar(r, "r")
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
        self.r = r
        self.families = tuple(_point_sets(space, family, f"family {fi} piece {{}}")
                              for fi, family in enumerate(families))
        self.name = str(name)

    def __repr__(self) -> str:
        return (f"Decomposition({self.name!r}, {len(self.families)} families "
                f"at r={self.r} over {self.space.name!r})")


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
    return out + _coverage(c.space, c.members)


def _coverage(space: FiniteMetricSpace, sets: Iterable[frozenset[int]]) -> list[Violation]:
    """The "coverage" violation naming the points in none of the sets, if any."""
    missing = sorted(set(range(len(space))).difference(*sets))
    if not missing:
        return []
    return [Violation("coverage", tuple(missing), "points not covered: "
                      + ", ".join(space.points[x] for x in missing))]


def dimension(c: Cover, _points: frozenset[int] | None = None) -> int:
    """Largest number of members through one point, minus one.  certify
    passes the orbit-least points as _points, and only they are counted."""
    members = c.members if _points is None else map(_points.intersection, c.members)
    return max(Counter(chain.from_iterable(members)).values(), default=0) - 1


def mesh(c: Cover, _reads: Iterable[tuple[frozenset[int], Iterable[int]]] | None = None
         ) -> Scalar:
    """Largest member diameter.  When a member is the whole space and none
    is empty (an empty member has no diameter), that is the space's kept
    diameter, as c.space is a metric; see the module docstring.  certify
    passes as _reads one member of each member-orbit, in index order, with
    the points whose rows are read, and only those members are measured."""
    m = c.space
    if _reads is not None:
        return max((_diameter(m, member, rows) for member, rows in _reads), default=0)
    if all(c.members) and len(m) in map(len, c.members):
        return m.diameter()
    return max((_diameter(m, member) for member in c.members), default=0)


def lebesgue_number(c: Cover, _points: Iterable[int] | None = None):
    """Complement-distance Lebesgue number; INF when a member is the whole
    space, and d(x, x) = 0 for the first point x in no member.  Otherwise
    the least L_x, read off the table where it stands, with the walk
    stopped once it reaches one integer unit, the least a covered point
    can have.  certify passes the orbit-least points as _points, and the
    walk visits only they, in increasing order.

    c.space must be a metric (validate_metric(c.space) == []); see the
    module docstring."""
    if not c.members:
        raise ValueError("Lebesgue number of a cover with no members is undefined")
    m = c.space
    if len(m) in map(len, c.members):
        return INF      # an empty complement, known before any table is read
    # Bit k of masks[x] is set when member k contains x; best is the least
    # L_x so far, in the integer table, and the (x, y) where it stands (see
    # the module docstring).  No member is the whole space, so the first
    # point's walk, over the whole space, stops too.
    masks = [0] * len(m)
    for k, member in enumerate(c.members):
        bit = 1 << k
        for x in member:
            masks[x] |= bit
    if 0 in masks:
        x = masks.index(0)
        return m.dist[x][x]     # in no member: L_x = d(x, x) = 0, the least
    points = range(len(m))
    rows = m.integer_rows()
    best = None
    for x in points if _points is None else sorted(_points):
        row = rows[x]
        if best is None:
            near = points
        else:
            near = list(compress(points, map(lt, row, repeat(best[0]))))
            if reduce(and_, map(masks.__getitem__, near)):
                continue
        alive = masks[x]
        for y in sorted(near, key=row.__getitem__):
            alive &= masks[y]
            if not alive:
                break
        best = (row[y], x, y)
        if best[0] == 1:
            break       # one unit: no covered point goes below it
    return m.dist[best[1]][best[2]]


def ball_meet_count(c: Cover, radius: Scalar) -> int:
    """Largest number of members met by one open ball of the given radius."""
    check_scalar(radius, "radius")
    m = c.space
    return max(sum(1 for member in c.members if _set_distance(m, (x,), member) < radius)
               for x in range(len(m)))


def is_r_disjoint(space: FiniteMetricSpace, family: Sequence[Iterable[int]],
                  r: Scalar) -> tuple[bool, tuple | None]:
    """Whether the sets are pairwise more than r apart.  On failure the witness
    is (i, j, distance) for the first offending pair in index order; empty sets
    never collide (their distance is INF)."""
    check_scalar(r, "r")
    sets = [frozenset(space.check_points(tuple(piece))) for piece in family]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            d = _set_distance(space, sets[i], sets[j])
            if not d > r:
                return False, (i, j, d)
    return True, None


def validate_decomposition(d: Decomposition) -> list[Violation]:
    out: list[Violation] = []
    for fi, family in enumerate(d.families):
        ok, witness = is_r_disjoint(d.space, family, d.r)
        if not ok:
            i, j, dist = witness
            out.append(Violation(
                "disjointness", (fi, i, j),
                f"family {fi}: pieces {i} and {j} are {dist} apart, need > {d.r}"))
    return out + _coverage(d.space, chain.from_iterable(d.families))


def decomposition_to_cover(d: Decomposition) -> tuple[Cover, CoverCertificate]:
    """Thicken every piece by a closed r/4-neighborhood and pool the pieces.

    The quarter is what makes both certified bounds unconditional: thickened
    pieces of one family stay disjoint (else the originals were within r/2),
    so the dimension is at most families-1, and every open r/4-ball around a
    point lands inside that point's thickened piece, so the Lebesgue number
    is at least r/4.
    """
    issues = validate_decomposition(d)
    if issues:
        raise ValueError("invalid decomposition: " + "; ".join(v.message for v in issues))
    t = Fraction(d.r) / 4
    m = d.space
    members = dict.fromkeys(
        frozenset(x for x in range(len(m)) if _set_distance(m, (x,), piece) <= t)
        for piece in chain.from_iterable(d.families) if piece)
    out = Cover(m, members, name=f"{d.name}_thickened")
    cert = certify(out)
    if cert.dimension > len(d.families) - 1:
        raise InternalInvariantError(
            f"thickened cover has dimension {cert.dimension} from "
            f"{len(d.families)} families")
    if not cert.lebesgue >= t:
        raise InternalInvariantError(
            f"thickened cover has Lebesgue number {cert.lebesgue} < {t}")
    return out, cert


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
    """Dimension, Lebesgue number and mesh of c: per orbit when firsts (from
    _member_orbits) shows c invariant with no whole-space member, else at
    every point and member; the same table entries either way (see the
    module docstring)."""
    if firsts is None:
        return dimension(c), lebesgue_number(c), mesh(c)
    least = frozenset(map(min, zip(*action.perms)))
    return (dimension(c, least), lebesgue_number(c, least),
            mesh(c, [(member, least & member if fixed else member)
                     for member, fixed in firsts]))


def _certificate(c: Cover, measured: tuple, meet_radius: Scalar | None,
                 equivariant: bool | None) -> CoverCertificate:
    meet = None if meet_radius is None else ball_meet_count(c, meet_radius)
    return CoverCertificate(*measured, meet_radius=meet_radius, ball_meet=meet,
                            equivariant=equivariant)


def certify(c: Cover, meet_radius: Scalar | None = None,
            action: IsometricAction | None = None) -> CoverCertificate:
    """Every certified quantity of the cover.  Dimension, Lebesgue number and
    mesh are measured again only after `space` or `members` is reassigned;
    with an action that leaves the cover invariant, once per orbit.

    c.space must be a metric (validate_metric(c.space) == []): the
    Lebesgue number is computed with the metric axioms.  An action must be
    valid (validate_action(action) == []): the orbit measurement uses it."""
    witness, firsts = (None, None) if action is None else _member_orbits(action, c)
    if c._measured[:2] != (c.space, c.members):
        c._measured = (c.space, c.members, *_measure(c, action, firsts))
    return _certificate(c, c._measured[2:], meet_radius,
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
    out = []
    for field in ("dimension", "lebesgue", "mesh", "ball_meet", "equivariant"):
        claimed = getattr(cert, field)
        actual = getattr(fresh, field)
        if claimed != actual:
            out.append(Violation("certificate", (field,),
                                 f"{field}: certificate says {claimed}, "
                                 f"recomputed {actual}"))
    return out
