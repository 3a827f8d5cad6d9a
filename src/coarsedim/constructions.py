"""Moving covers across quotient maps, and weighted disjoint unions.

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

A weighted union (SSpace) is its components, their basepoint sets and
weights, and the assembled space; the code here that maps the union's
points to the components' reads one index derived from the components.

Of the builders here only build_sspace takes a name (the sspace reader
passes the document's); the others name what they build after their inputs
(`P9_cover_s4_pushed`, `C6_head2`, `Z2_on_U`); to rename an object, call
its constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import le
from typing import Iterable, Sequence

from .covers import (Cover, CoverCertificate, certify, check_equivariance,
                     validate_cover, validate_decomposition, Decomposition)
from .errors import InternalInvariantError
from .groups import IsometricAction, QuotientSpace, _cosets, _generated, quotient
from .metric import (INF, FiniteMetricSpace, Scalar, _set_distance, check_index,
                     check_positive, check_scalar, diameter)


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


def _component_index(components: Sequence[FiniteMetricSpace]) -> tuple[tuple[int, int], ...]:
    """(component, local point) of each point of the weighted union, in the
    union's order: component by component, each in its own order."""
    return tuple((n, x) for n, comp in enumerate(components) for x in range(len(comp)))


@dataclass(frozen=True, eq=False, repr=False)
class SSpace:
    """Weighted disjoint union of finite metric spaces: its components, their
    basepoint sets and weights, and the assembled space.

    Within component n the metric is untouched; between components n and m
    the distance is d(x, Y_n) + d(y, Y_m) + max(w_n, w_m) where Y_n is the
    chosen basepoint set of component n.  The weights must be strictly
    increasing and each at least its component's basepoint-set diameter;
    that is exactly what makes the triangle inequality go through whichever
    components the three points sit in.

    The assembled space lists the components' points in component order, so
    point i of the union is the (component, local point) pair at position i
    of one index, derived from the components, as the offsets are.  Two
    unions are equal only when they are the same object.
    """

    components: tuple[FiniteMetricSpace, ...]
    basepoints: tuple[frozenset[int], ...]
    weights: tuple[Scalar, ...]
    assembled: FiniteMetricSpace

    @cached_property
    def _index(self) -> tuple[tuple[int, int], ...]:
        return _component_index(self.components)

    @property
    def offsets(self) -> tuple[int, ...]:
        """The union index of each component's first point."""
        return tuple(accumulate(map(len, self.components[:-1]), initial=0))

    def global_index(self, component: int, local: int) -> int:
        check_index(component, len(self.components), "a component index")
        self.components[component].check_point(local)
        return self.offsets[component] + local

    def component_of(self, index: int) -> tuple[int, int]:
        return self._index[self.assembled.check_point(index)]

    def __repr__(self) -> str:
        return (f"SSpace({self.assembled.name!r}, {len(self.components)} components, "
                f"{len(self.assembled)} points)")


def build_sspace(components: Sequence[FiniteMetricSpace],
                 basepoints: Sequence[Iterable[int]], weights: Sequence[Scalar],
                 name: str = "sspace") -> SSpace:
    components = list(components)
    if not components:
        raise ValueError("a weighted union needs at least one component")
    if not (len(basepoints) == len(weights) == len(components)):
        raise ValueError("components, basepoints and weights must have equal length")

    base_sets = []
    for n, (comp, bp) in enumerate(zip(components, basepoints)):
        bp = frozenset(comp.check_points(tuple(bp)))
        if not bp:
            raise ValueError(f"component {n} has an empty basepoint set")
        base_sets.append(bp)
    for n, w in enumerate(weights):
        check_positive(w, f"weight[{n}]")
        d = diameter(components[n], base_sets[n])
        if w < d:
            raise ValueError(
                f"weight[{n}] = {w} is below the basepoint-set diameter {d}")
    for n in range(1, len(weights)):
        if not weights[n] > weights[n - 1]:
            raise ValueError(
                f"weights must be strictly increasing, got {weights[n - 1]} then "
                f"{weights[n]} at position {n}")

    index = _component_index(components)
    points = [f"{n}/{components[n].points[x]}" for n, x in index]
    # distance from each point to its component's basepoint set, once
    to_base = [min(components[n].dist[x][y] for y in base_sets[n]) for n, x in index]
    dist = [[components[n].dist[x][y] if n == k
             else to_base[i] + to_base[j] + max(weights[n], weights[k])
             for j, (k, y) in enumerate(index)]
            for i, (n, x) in enumerate(index)]
    return SSpace(tuple(components), tuple(base_sets), tuple(weights),
                  FiniteMetricSpace(points, dist, name=name))


def sub_sspace(s: SSpace, count: int) -> SSpace:
    """The weighted union of the first `count` components, same weights."""
    if not 1 <= count <= len(s.components):
        raise ValueError(f"component count {count} out of range")
    return build_sspace(s.components[:count], s.basepoints[:count],
                        s.weights[:count], name=f"{s.assembled.name}_head{count}")


def sspace_componentwise_action(s: SSpace,
                                actions: Sequence[IsometricAction]) -> IsometricAction:
    """One group acting on every component at once, blockwise.

    All actions must share the same group table, act on the matching
    components, and preserve each basepoint set (otherwise the cross-
    component distances would not be invariant).
    """
    if len(actions) != len(s.components):
        raise ValueError(f"{len(actions)} actions for {len(s.components)} components")
    group = actions[0].group
    for n, act in enumerate(actions):
        if act.group != group:
            raise ValueError(f"action {n} uses a different group table")
        if act.space != s.components[n]:
            raise ValueError(f"action {n} does not act on component {n}")
        for g in range(len(group)):
            image = {act.perms[g][y] for y in s.basepoints[n]}
            if image != set(s.basepoints[n]):
                raise ValueError(
                    f"basepoint set of component {n} is not invariant under "
                    f"{group.elements[g]}")
    offsets = s.offsets
    perms = [[offsets[n] + actions[n].perms[g][x] for n, x in s._index]
             for g in range(len(group))]
    return IsometricAction(group, s.assembled, perms,
                           name=f"{group.name}_on_{s.assembled.name}")


@dataclass(frozen=True)
class CommuteWitness:
    """Quotient of the union versus union of the quotients, with the explicit
    matching of points.  mapping[i] is the index, in the assembled space of
    component quotients, of quotient point i of the assembled action."""

    whole_quotient: QuotientSpace
    component_quotients: tuple[QuotientSpace, ...]
    quotient_union: SSpace
    mapping: tuple[int, ...]


def sspace_quotient_commute(s: SSpace,
                            actions: Sequence[IsometricAction]) -> CommuteWitness:
    """Check that quotienting commutes with the weighted union, exactly.

    Left side: quotient of the assembled space under the blockwise action.
    Right side: weighted union of the component quotients, with the images
    of the basepoint sets and the same weights.  The natural point matching
    must preserve every pairwise distance; a mismatch is an implementation
    bug, not a property of the input.
    """
    assembled_action = sspace_componentwise_action(s, actions)
    whole = quotient(assembled_action)

    comp_quotients = tuple(quotient(act) for act in actions)
    image_basepoints = [frozenset(q.orbit_of[y] for y in s.basepoints[n])
                        for n, q in enumerate(comp_quotients)]
    union = build_sspace([q.space for q in comp_quotients], image_basepoints,
                         s.weights, name=f"{s.assembled.name}_quotients")

    mapping = []
    for fiber in whole.fibers:
        n, local = s.component_of(fiber[0])
        mapping.append(union.global_index(n, comp_quotients[n].orbit_of[local]))
    if sorted(mapping) != list(range(len(union.assembled))):
        raise InternalInvariantError("quotient commutation map is not a bijection")
    for i in range(len(mapping)):
        for j in range(len(mapping)):
            left = whole.space.dist[i][j]
            right = union.assembled.dist[mapping[i]][mapping[j]]
            if left != right:
                raise InternalInvariantError(
                    f"quotient commutation is not isometric at pair ({i}, {j}): "
                    f"{left} != {right}")
    return CommuteWitness(whole_quotient=whole, component_quotients=comp_quotients,
                          quotient_union=union, mapping=tuple(mapping))


def restrict_decomposition(s: SSpace, d: Decomposition) -> list[Decomposition]:
    """Cut a decomposition of the union down to each component.

    Pieces are intersected with the component (empty intersections dropped);
    the family count and r are kept.  Distances within a component agree
    with the union's, so disjointness survives restriction.
    """
    if d.space != s.assembled:
        raise ValueError("decomposition does not live on this union")
    # per family, per piece: the piece's local points in each component
    parts = [[[{x for k, x in map(s._index.__getitem__, piece) if k == n}
               for n in range(len(s.components))]
              for piece in family]
             for family in d.families]
    return [Decomposition(comp, d.r,
                          [[part[n] for part in family if part[n]] for family in parts],
                          name=f"{d.name}_component{n}")
            for n, comp in enumerate(s.components)]


def merge_decompositions(s: SSpace, head: Decomposition,
                         tails: Sequence[Decomposition], r: Scalar) -> Decomposition:
    """Combine a decomposition of the first components with per-component
    decompositions of the rest.

    The union's cross-component distances are at least the larger weight
    involved, so once the first tail component's weight exceeds r, pieces
    from different components can never violate r-disjointness; within a
    family everything else is inherited.  Family counts must match.
    """
    check_scalar(r, "r")
    n_head = len(s.components) - len(tails)
    if n_head < 1:
        raise ValueError(f"{len(tails)} tail decompositions for "
                         f"{len(s.components)} components leave no head")
    head_space = sub_sspace(s, n_head).assembled
    if head.space != head_space:
        raise ValueError(f"head decomposition does not match the first {n_head} "
                         f"components")
    for i, tail in enumerate(tails):
        if tail.space != s.components[n_head + i]:
            raise ValueError(f"tail {i} does not match component {n_head + i}")
    if head.r < r:
        raise ValueError(f"head is only valid at r = {head.r}, below {r}")
    for i, tail in enumerate(tails):
        if tail.r < r:
            raise ValueError(f"tail {i} is only valid at r = {tail.r}, below {r}")
    issues = [v for d in (head, *tails) for v in validate_decomposition(d)]
    if issues:
        raise ValueError("invalid input decomposition: "
                         + "; ".join(v.message for v in issues))
    counts = {len(head.families)} | {len(t.families) for t in tails}
    if len(counts) != 1:
        raise ValueError(f"family counts differ: {sorted(counts)}")
    if tails and not s.weights[n_head] > r:
        raise ValueError(
            f"first tail weight {s.weights[n_head]} must exceed r = {r}")

    # head indices coincide with union indices: components keep their order
    families = [list(family) for family in head.families]
    for i, tail in enumerate(tails):
        lo = s.offsets[n_head + i]
        for fi, family in enumerate(tail.families):
            families[fi].extend(frozenset(lo + x for x in piece) for piece in family)

    merged = Decomposition(s.assembled, r, families, name=f"{head.name}_merged")
    issues = validate_decomposition(merged)
    if issues:
        raise InternalInvariantError(
            "merged decomposition invalid: " + "; ".join(v.message for v in issues))
    return merged
