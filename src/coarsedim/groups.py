"""Finite groups as explicit multiplication tables, and their isometric actions.

Everything here works over element indices into a fixed ordering; the orders
involved are tiny (quotient constructions keep |G| in the single digits), so
exhaustive checks are the honest tool.

Only the constructors FiniteGroup and IsometricAction take a name.  The
builders here name what they build after their inputs (`Z4`, `D3`,
`P9_mod_Z2`); to rename an object, call its constructor.

quotient keeps the QuotientSpace it builds on the action, whose fields
cannot be reassigned.  What that space keeps (its integer rows and its
diameter) then serves every caller of quotient(a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import Violation
from .metric import (FiniteMetricSpace, _construct, _no_deletion, _no_reassignment,
                     check_indices)


class FiniteGroup:
    """Elements named by strings, multiplication as an index table.

    mul[a][b] is the index of (a * b).  A two-sided identity must exist or construction
    fails; associativity and inverses are validate_group's job, so broken tables can
    still be loaded and reported on.  No attribute can be reassigned or deleted.
    """

    __setattr__, __delattr__ = _no_reassignment, _no_deletion

    def __init__(self, elements: Sequence[str], mul: Sequence[Sequence[int]],
                 name: str = "group"):
        elements = tuple(str(e) for e in elements)
        if not elements:
            raise ValueError("a group needs at least one element")
        if len(set(elements)) != len(elements):
            raise ValueError("element names must be distinct")
        n = len(elements)
        if len(mul) != n:
            raise ValueError(f"multiplication table has {len(mul)} rows for {n} elements")
        table = tuple(map(tuple, mul))
        # The whole table in one pass and, only if that fails, row by row,
        # so that the first fault in reading order is named.
        try:
            if set(map(len, table)) != {n}:
                raise ValueError("a row of another length")
            check_indices(tuple(itertools.chain.from_iterable(table)), n, "a table entry")
        except ValueError:
            for i, row in enumerate(table):
                if len(row) != n:
                    raise ValueError(f"multiplication table row {i} has length {len(row)}")
                check_indices(row, n, f"a table entry in row {i}")
        every = tuple(range(n))     # the identity's row and its column
        for identity in every:
            if table[identity] == every and tuple(map(itemgetter(identity), table)) == every:
                break
        else:
            raise ValueError(f"group {str(name)!r} has no two-sided identity")
        _construct(self, elements=elements, mul_table=table, name=str(name),
                   identity=identity)

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inverse(self, a: int) -> int:
        for b in range(len(self.elements)):
            if self.mul_table[a][b] == self.identity and self.mul_table[b][a] == self.identity:
                return b
        raise ValueError(f"element {self.elements[a]!r} of {self.name!r} has no inverse")

    def element_order(self, a: int) -> int:
        seen = 1
        cur = a
        while cur != self.identity:
            cur = self.mul_table[cur][a]
            seen += 1
            if seen > len(self.elements):
                raise ValueError(f"element {self.elements[a]!r} generates no finite cycle; "
                                 f"table is not a group")
        return seen

    def index(self, element: str) -> int:
        try:
            return self.elements.index(element)
        except ValueError:
            raise KeyError(f"unknown element {element!r} in group {self.name!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.elements == other.elements and self.mul_table == other.mul_table

    __hash__ = None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order {len(self)})"


def validate_group(g: FiniteGroup) -> list[Violation]:
    """Exhaustive associativity and inverse check."""
    out: list[Violation] = []
    n = len(g)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = g.mul(g.mul(a, b), c)
                right = g.mul(a, g.mul(b, c))
                if left != right:
                    out.append(Violation(
                        "associativity", (a, b, c),
                        f"({g.elements[a]}*{g.elements[b]})*{g.elements[c]} = "
                        f"{g.elements[left]} but {g.elements[a]}*({g.elements[b]}*"
                        f"{g.elements[c]}) = {g.elements[right]}"))
    for a in range(n):
        has = any(g.mul(a, b) == g.identity and g.mul(b, a) == g.identity for b in range(n))
        if not has:
            out.append(Violation("inverse", (a,),
                                 f"element {g.elements[a]} has no two-sided inverse"))
    return out


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup([str(i) for i in range(n)], mul, name=f"Z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-cycle: n rotations r{k}, n reflections s{k}.

    Built from the permutations themselves (x -> x+k and x -> k-x mod n),
    so the table is correct by construction.  Needs n >= 3: on fewer points
    the 2n symmetries are not distinct permutations.
    """
    if n < 3:
        raise ValueError("dihedral parameter must be >= 3")
    perms = ([tuple((x + k) % n for x in range(n)) for k in range(n)]
             + [tuple((k - x) % n for x in range(n)) for k in range(n)])
    lookup = {p: i for i, p in enumerate(perms)}
    mul = [[lookup[tuple(map(p.__getitem__, q))] for q in perms] for p in perms]
    return FiniteGroup([f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)], mul,
                       name=f"D{n}")


class IsometricAction:
    """A finite group acting on a finite metric space by point permutations.

    perms[g][x] is the image of point x under group element g.  Construction
    checks shapes and that each row is a permutation; the action law and the
    isometry property are validate_action's job.
    """

    __setattr__, __delattr__ = _no_reassignment, _no_deletion
    _quotient = None    # quotient(self), built on first use and kept

    def __init__(self, group: FiniteGroup, space: FiniteMetricSpace,
                 perms: Sequence[Sequence[int]], name: str = "action"):
        if len(perms) != len(group):
            raise ValueError(f"{len(perms)} permutations for {len(group)} group elements")
        n = len(space)
        perms = tuple(map(tuple, perms))
        for g, perm in enumerate(perms):
            check_indices(perm, n, f"an image under {group.elements[g]!r}")
            if len(perm) != n or len(set(perm)) != n:
                raise ValueError(
                    f"permutation for {group.elements[g]!r} is not a bijection on "
                    f"{n} points")
        _construct(self, group=group, space=space, perms=perms, name=str(name))

    def __repr__(self) -> str:
        return (f"IsometricAction({self.name!r}: {self.group.name!r} "
                f"on {self.space.name!r})")


def validate_action(a: IsometricAction) -> list[Violation]:
    """Check identity, the action law g(hx) = (gh)x, and isometry, exhaustively.

    A lawful action is recognised by an all-clear pass that compares whole
    permutations and whole rows in C: h after k is perms[h] gathered at
    perms[k], and h is an isometry when the space's integer rows, gathered
    at perms[h] both ways, give the rows back.  When that pass fails, the
    listing runs and reports every violation, in the same order and with
    the same messages whichever way the answer was reached."""
    if _action_all_clear(a):
        return []
    return _list_action_violations(a)


def _action_all_clear(a: IsometricAction) -> bool:
    """Whether the action has no violation (see validate_action).  The law,
    checked first, proves the identity: at (e, e) it makes e's permutation
    idempotent, and the one idempotent bijection is the identity.  So the
    isometry of e, wherever the group lists it, is not gathered."""
    perms = a.perms
    if len(a.space) == 1:
        return True     # (0,) is the one permutation of one point
    gathers = [itemgetter(*perm) for perm in perms]
    for after_k, column in zip(gathers, zip(*a.group.mul_table)):
        if list(map(after_k, perms)) != list(map(perms.__getitem__, column)):
            return False
    del gathers[a.group.identity]
    rows = a.space.integer_rows()
    return all(tuple(map(moved, moved(rows))) == rows for moved in gathers)


def _list_action_violations(a: IsometricAction) -> list[Violation]:
    out: list[Violation] = []
    g, m = a.group, a.space
    n = len(m)
    ident = a.perms[g.identity]
    for x in range(n):
        if ident[x] != x:
            out.append(Violation("identity-action", (x,),
                                 f"identity moves {m.points[x]} to {m.points[ident[x]]}"))
    for h in range(len(g)):
        for k in range(len(g)):
            hk = g.mul(h, k)
            for x in range(n):
                if a.perms[h][a.perms[k][x]] != a.perms[hk][x]:
                    out.append(Violation(
                        "action-law", (h, k, x),
                        f"{g.elements[h]}({g.elements[k]} {m.points[x]}) != "
                        f"({g.elements[h]}{g.elements[k]}) {m.points[x]}"))
    for h in range(len(g)):
        perm = a.perms[h]
        for x in range(n):
            for y in range(x + 1, n):
                if m.dist[perm[x]][perm[y]] != m.dist[x][y]:
                    out.append(Violation(
                        "isometry", (h, x, y),
                        f"{g.elements[h]} changes d({m.points[x]},{m.points[y]}) from "
                        f"{m.dist[x][y]} to {m.dist[perm[x]][perm[y]]}"))
    return out


def orbits(a: IsometricAction) -> list[tuple[int, ...]]:
    """Orbits as sorted index tuples, ordered by their smallest point."""
    seen, out = set(), []
    for x in range(len(a.space)):
        if x not in seen:
            orb = tuple(sorted({perm[x] for perm in a.perms}))
            seen.update(orb)
            out.append(orb)
    return out


@dataclass(frozen=True, eq=False, repr=False)
class QuotientSpace:
    """The quotient metric space of an isometric action, with its fiber data.

    space is the quotient itself; orbit_of maps a source point index to its
    quotient point index; fibers[i] lists the source points over quotient
    point i (sorted), and the lowest-index fiber point names the quotient
    point.  Frozen, as quotient(a) hands the same one to every caller.
    """

    space: FiniteMetricSpace
    source: FiniteMetricSpace
    orbit_of: tuple[int, ...]
    fibers: tuple[tuple[int, ...], ...]

    def __repr__(self) -> str:
        return f"QuotientSpace({self.space.name!r}, {len(self.space)} orbits)"


def quotient(a: IsometricAction) -> QuotientSpace:
    """Quotient of the space by the action: points are orbits, and the
    distance between the orbits of x and y is d(Fx, Fy) = min over group
    elements f of d(x, f.y), measured from each orbit's least point.

    The action must be a valid isometric action (validate_action(a) == []),
    as the space must be a metric for covers; the CLI loads only such
    actions.  Then the minimum does not depend on which members of the two
    orbits are measured, it is the smallest distance between them, and the
    result is again a genuine metric.

    The minima are taken on the space's integer rows, a C-level gather per
    group element, and kept as the quotient's, at the space's scale; the
    table holds the distances they stand for (FiniteMetricSpace._scalar).

    The result is kept on the action, and every later call returns it.
    """
    if a._quotient is not None:
        return a._quotient
    orbs = orbits(a)
    m = a.space
    reps = [orb[0] for orb in orbs]
    qpoints = [m.points[x] for x in reps]
    rows, scale = m.integer_rows(), m.integer_scale()
    if len(reps) == 1:      # an itemgetter of one index returns a bare value
        table = ((min(rows[0][perm[0]] for perm in a.perms),),)
    else:
        gathers = [itemgetter(*map(perm.__getitem__, reps)) for perm in a.perms]
        if len(gathers) == 1:
            gathers *= 2    # min takes one iterable or two values and more
        table = tuple(tuple(map(min, *[gather(row) for gather in gathers]))
                      for row in map(rows.__getitem__, reps))
    dist = table                        # a Fraction table maps back its distinct ints
    if scale != 1:
        back = {k: m._scalar(k) for k in set(itertools.chain.from_iterable(table))}
        dist = [map(back.__getitem__, row) for row in table]
    orbit_of = tuple(i for _, i in sorted((x, i) for i, orb in enumerate(orbs) for x in orb))
    space = FiniteMetricSpace._built(qpoints, dist, f"{m.name}_mod_{a.group.name}", scale, table)
    a._quotient = QuotientSpace(space, m, orbit_of, tuple(orbs))
    return a._quotient


def generated_subgroup(g: FiniteGroup, generators: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing the generators: the elements reached by
    walking the table from the identity, multiplying on the right by a
    generator at each step.  In a finite group that is the whole generated
    subgroup, as each generator's inverse is one of its powers."""
    gens = check_indices(list(generators), len(g), f"a generator of {g.name!r}")
    return _generated(g, gens)


def _generated(g: FiniteGroup, gens: Sequence[int]) -> tuple[int, ...]:
    """generated_subgroup of generators already known to be elements of g."""
    reached = {g.identity}
    frontier = [g.identity]
    while frontier:
        step = {p for a in frontier for p in map(g.mul_table[a].__getitem__, gens)}
        frontier = step - reached
        reached |= frontier
    return tuple(sorted(reached))


def is_subgroup(g: FiniteGroup, members: Iterable[int]) -> bool:
    """Whether the members are closed under the group law: exactly when they
    generate nothing beyond themselves."""
    members = set(members)
    return set(generated_subgroup(g, members)) == members


def coset_representatives(g: FiniteGroup, subgroup: Iterable[int]) -> list[int]:
    """Lowest-index representative of each left coset f*H, in index order."""
    sub = sorted(set(subgroup))
    if not is_subgroup(g, sub):
        raise ValueError(f"{[g.elements[x] for x in sub]} is not a subgroup of {g.name!r}")
    return _cosets(g, sub)


def _cosets(g: FiniteGroup, sub: Sequence[int]) -> list[int]:
    """coset_representatives of what is known to be a subgroup of g."""
    assigned = set()
    reps = []
    for f in range(len(g)):
        if f in assigned:
            continue
        reps.append(f)
        assigned.update(map(g.mul_table[f].__getitem__, sub))
    return reps

