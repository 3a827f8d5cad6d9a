"""Moving covers across quotient maps.

Two directions.  Pushing a cover down to the quotient is cheap and loses
little: mesh and Lebesgue number survive, only the dimension can grow, by
at most a factor of the group order.  Lifting a cover back up is the real
construction: the preimage of each member is split into well-separated
pieces using subgroups generated by small displacements, and the resulting
cover of the total space is invariant under the whole action with no loss
of dimension.  The group permutes the pieces of one preimage, so each
member's subgroup and piece are found once, at its basepoint, and the
other pieces are their translates.  Both directions check their
postconditions against certificates from covers.certify, which measures
each cover only once, and treat any failure as an implementation bug.

The builders here take no name; they name what they build after their
inputs (`P9_cover_s4_pushed`, `P9_cover_s4_lifted`); to rename an object,
call its constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import le
from typing import Sequence

from .covers import (Cover, CoverCertificate, certify, check_equivariance,
                     validate_cover)
from .errors import InternalInvariantError
from .groups import IsometricAction, QuotientSpace, _cosets, _generated
from .metric import INF, Scalar, _set_distance, check_positive, check_scalar


def _require_valid(c: Cover) -> None:
    issues = validate_cover(c)
    if issues:
        raise ValueError("invalid cover: " + "; ".join(v.message for v in issues))


def pushforward_cover(a: IsometricAction, q: QuotientSpace,
                      c: Cover) -> tuple[Cover, CoverCertificate]:
    """Image of a cover under the quotient projection, members deduplicated.

    Certified: mesh does not grow, the Lebesgue number does not shrink, and
    the dimension is at most |F|*(n+1) - 1 where n is the input dimension.
    """
    if c.space != a.space or q.source != a.space:
        raise ValueError("pushforward needs a cover and quotient of the action's space")
    _require_valid(c)

    members = dict.fromkeys(frozenset(q.orbit_of[x] for x in member)
                            for member in c.members)
    out = Cover(q.space, members, name=f"{c.name}_pushed")
    cert = certify(out)

    given = certify(c)
    bound = len(a.group) * (given.dimension + 1) - 1
    if cert.mesh > given.mesh:
        raise InternalInvariantError(
            f"pushforward mesh {cert.mesh} exceeds input mesh {given.mesh}")
    if cert.lebesgue < given.lebesgue:
        raise InternalInvariantError(
            f"pushforward Lebesgue number {cert.lebesgue} below input {given.lebesgue}")
    if cert.dimension > bound:
        raise InternalInvariantError(
            f"pushforward dimension {cert.dimension} exceeds |F|(n+1)-1 = {bound}")
    return out, cert


def displacement_subgroup(a: IsometricAction, x: int, s: Scalar) -> tuple[int, ...]:
    """Subgroup generated by the elements that move x by at most 4s."""
    a.space.check_point(x)
    check_scalar(s, "s")
    gens = [g for g in range(len(a.group))
            if a.space.dist[x][a.perms[g][x]] <= 4 * s]
    return _generated(a.group, gens)


@dataclass(frozen=True)
class LiftPiece:
    """One piece of a lifted member: the coset representative that produced
    it, the displacement subgroup at its basepoint, and the piece itself."""

    rep: int
    subgroup: tuple[int, ...]
    piece: frozenset[int]


@dataclass(frozen=True)
class LiftMember:
    """How one quotient-cover member was split: its fiber, the chosen
    basepoint (lowest fiber index), and one piece per coset."""

    member: frozenset[int]
    fiber: frozenset[int]
    basepoint: int
    pieces: tuple[LiftPiece, ...]


@dataclass(frozen=True)
class LiftTrace:
    """Full audit trail of a lift: the effective radius R, the separation
    scale s, and the split data of each member, in cover order."""

    R: Scalar
    s: Scalar
    entries: tuple[LiftMember, ...]


def _split(a: IsometricAction, fibers: Sequence[Sequence[int]], c: Cover,
           given: CoverCertificate, R: Scalar) -> LiftTrace:
    """The lift's split of each member of c, a cover of the quotient whose
    point i is over fibers[i], certified by given, at radius R: R must be
    positive and at most lebesgue(c), and s = max(mesh(c), R).  Member k's
    fiber is the union of the fibers it names, its basepoint x the fiber's
    least point, and H the subgroup displacement_subgroup(a, x, s); the
    piece over fH is f·P, where P is the part of the fiber within s of H·x,
    with subgroup fHf^-1."""
    check_positive(R, "R")
    if not given.lebesgue >= R:
        raise ValueError(f"cover has Lebesgue number {given.lebesgue}, below the target {R}")
    group, perms, dist = a.group, a.perms, a.space.dist
    s = max(given.mesh, R)
    mul = group.mul_table
    entries = []
    for member in c.members:
        fiber = tuple(chain.from_iterable(map(fibers.__getitem__, member)))
        basepoint = min(fiber)
        subgroup = displacement_subgroup(a, basepoint, s)
        base = set().union(*[compress(fiber, map(le, map(dist[z].__getitem__, fiber), repeat(s)))
                             for z in {perms[h][basepoint] for h in subgroup}])
        pieces = []
        for f in _cosets(group, subgroup):
            f_inv = group.inverse(f)
            pieces.append(LiftPiece(
                rep=f, subgroup=tuple(sorted(mul[mul[f][h]][f_inv] for h in subgroup)),
                piece=frozenset(map(perms[f].__getitem__, base))))
        entries.append(LiftMember(member=member, fiber=frozenset(fiber),
                                  basepoint=basepoint, pieces=tuple(pieces)))
    return LiftTrace(R=R, s=s, entries=tuple(entries))


def lift_equivariant(a: IsometricAction, q: QuotientSpace, c: Cover,
                     R: Scalar | None = None) -> tuple[Cover, LiftTrace, CoverCertificate]:
    """Lift a cover of the quotient to an invariant cover of the space.

    With s = max(mesh(c), R), the preimage of a member U splits into one
    piece per coset fH of the subgroup H generated by elements moving the
    basepoint x by at most 4s; the piece P over H is the part of the fiber
    within s of the points H·x (closed balls: the separation argument needs
    <=).  The piece over fH is the translate f·P, with subgroup fHf^-1 at
    f·x, both read off the action and the group table: for a valid action
    d(f·x, g·f·x) = d(x, f^-1 g f·x), and the fiber is invariant, so this is
    what the same rule gives at f·x.  H, H·x and P are found once per
    member, by _split, which the lift trace reader calls too.  Certified,
    by one certificate of each cover and a direct check of each split:

      * the member family is invariant under the whole group,
      * mesh(out) < 4s(|F|+1),
      * dimension(out) <= dimension(c),
      * lebesgue(out) >= R,
      * per member, pieces are pairwise more than 2s apart and their
        union is exactly the fiber.

    R defaults to lebesgue(c) when that is finite, else max(mesh(c), 1); it
    must be positive and at most lebesgue(c).  These postconditions hold
    unconditionally for valid input, so any failure raises
    InternalInvariantError.
    """
    if q.source != a.space:
        raise ValueError("quotient does not belong to the action's space")
    if c.space != q.space:
        raise ValueError("cover does not live on the quotient space")
    _require_valid(c)
    given = certify(c)
    if R is None:
        R = given.lebesgue if given.lebesgue != INF else max(given.mesh, 1)
    trace = _split(a, q.fibers, c, given, R)
    group = a.group
    m = a.space
    separation = 2 * trace.s

    for k, entry in enumerate(trace.entries):
        pieces = entry.pieces
        union: set[int] = set()
        for p in pieces:
            if not p.piece:
                raise InternalInvariantError(
                    f"lift produced an empty piece for member {k}, coset rep "
                    f"{group.elements[p.rep]}")
            union.update(p.piece)
        if union != entry.fiber:
            raise InternalInvariantError(
                f"lift pieces of member {k} do not union to the fiber")
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                d = _set_distance(m, pieces[i].piece, pieces[j].piece)
                if not d > separation:
                    raise InternalInvariantError(
                        f"lift pieces {i} and {j} of member {k} are {d} apart, "
                        f"need > {separation}")

    out = Cover(m, dict.fromkeys(p.piece for e in trace.entries for p in e.pieces),
                name=f"{c.name}_lifted")

    cert = certify(out, action=a)
    if not cert.equivariant:
        k, g = check_equivariance(a, out)[1]
        raise InternalInvariantError(
            f"lifted cover not invariant: member {k} under {group.elements[g]}")
    mesh_bound = 4 * trace.s * (len(group) + 1)
    if not cert.mesh < mesh_bound:
        raise InternalInvariantError(
            f"lifted mesh {cert.mesh} not below 4s(|F|+1) = {mesh_bound}")
    if cert.dimension > given.dimension:
        raise InternalInvariantError(
            f"lifted dimension {cert.dimension} exceeds input dimension {given.dimension}")
    if not cert.lebesgue >= R:
        raise InternalInvariantError(
            f"lifted Lebesgue number {cert.lebesgue} below target {R}")
    return out, trace, cert
