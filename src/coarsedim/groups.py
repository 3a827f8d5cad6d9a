"""Finite groups as explicit multiplication tables, and their isometric actions.

Everything here works over element indices into a fixed ordering; the orders
involved are tiny (quotient constructions keep |G| in the single digits), so
exhaustive checks and brute-force searches are the honest tool.

Only the constructors FiniteGroup and IsometricAction take a name.  The
builders here name what they build after their inputs (`Z4`, `D3`,
`Z2+Z3`, `P9_mod_Z2`, `Z2+Z2_via_P9_reflect`); to rename an object, set its
`.name` or call its constructor.

quotient keeps the QuotientSpace it builds on the action, keyed on the
action's `group`, `space` and `perms` and on the quotient space's name.
What that space keeps (its integer rows and its diameter) then serves
every caller of quotient(a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import is_not, itemgetter
from typing import Iterable, Sequence

from .errors import CapExceededError, Violation
from .metric import FiniteMetricSpace, check_index, check_indices

# Guardrails on the brute-force constructions, not tuning knobs.
ISOMORPHISM_ORDER_CAP = 12
DIRECT_SUM_ORDER_CAP = 64


class FiniteGroup:
    """Elements named by strings, multiplication as an index table.

    mul[a][b] is the index of (a * b).  A two-sided identity must exist or
    construction fails; associativity and inverses are validate_group's job,
    so broken tables can still be loaded and reported on.
    """

    def __init__(self, elements: Sequence[str], mul: Sequence[Sequence[int]],
                 name: str = "group"):
        self.elements = tuple(str(e) for e in elements)
        if not self.elements:
            raise ValueError("a group needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("element names must be distinct")
        n = len(self.elements)
        if len(mul) != n:
            raise ValueError(f"multiplication table has {len(mul)} rows for {n} elements")
        self.mul_table = tuple(map(tuple, mul))
        for i, row in enumerate(self.mul_table):
            if len(row) != n:
                raise ValueError(f"multiplication table row {i} has length {len(row)}")
            check_indices(row, n, f"a table entry in row {i}")
        self.name = str(name)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.identity = self._find_identity()

    def _find_identity(self) -> int:
        every = range(len(self.elements))
        for e in every:
            if all(self.mul_table[e][a] == a == self.mul_table[a][e] for a in every):
                return e
        raise ValueError(f"group {self.name!r} has no two-sided identity")

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
            return self._index[element]
        except KeyError:
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

    def __init__(self, group: FiniteGroup, space: FiniteMetricSpace,
                 perms: Sequence[Sequence[int]], name: str = "action"):
        self.group = group
        self.space = space
        if len(perms) != len(group):
            raise ValueError(f"{len(perms)} permutations for {len(group)} group elements")
        n = len(space)
        self.perms = tuple(map(tuple, perms))
        for g, perm in enumerate(self.perms):
            check_indices(perm, n, f"an image under {group.elements[g]!r}")
            if len(perm) != n or len(set(perm)) != n:
                raise ValueError(
                    f"permutation for {group.elements[g]!r} is not a bijection on "
                    f"{n} points")
        self.name = str(name)
        self._quotient = (None, None, None, None)

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
    group element, and kept as the quotient's, at the space's scale.

    The result is kept on the action.  It is built again only after
    `group`, `space` or `perms` is reassigned, or the space, the group or
    the kept quotient space is renamed.
    """
    made = (a.group, a.space, a.perms)
    name = f"{a.space.name}_mod_{a.group.name}"
    *kept_from, kept = a._quotient
    if not any(map(is_not, kept_from, made)) and kept.space.name == name:
        return kept
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
        back = {k: Fraction(k, scale) for k in set(itertools.chain.from_iterable(table))}
        dist = [map(back.__getitem__, row) for row in table]
    orbit_of = tuple(i for _, i in sorted((x, i) for i, orb in enumerate(orbs) for x in orb))
    space = FiniteMetricSpace._built(qpoints, dist, name, scale, table)
    q = QuotientSpace(space, m, orbit_of, tuple(orbs))
    a._quotient = (*made, q)
    return q


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


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> dict[int, int] | None:
    """Brute-force isomorphism search, None if the groups are not isomorphic.

    Candidate images are pruned by element order, and the map is grown from a
    small generating set, so the search is comfortable for the orders this
    toolkit works at; above ISOMORPHISM_ORDER_CAP it refuses.
    """
    if len(g1) > ISOMORPHISM_ORDER_CAP or len(g2) > ISOMORPHISM_ORDER_CAP:
        raise CapExceededError(
            f"isomorphism search is capped at order {ISOMORPHISM_ORDER_CAP}, "
            f"got orders {len(g1)} and {len(g2)}")
    if len(g1) != len(g2):
        return None
    orders1 = [g1.element_order(a) for a in range(len(g1))]
    orders2 = [g2.element_order(a) for a in range(len(g2))]
    if sorted(orders1) != sorted(orders2):
        return None

    gens: list[int] = []
    generated = {g1.identity}
    for a in range(len(g1)):
        if a not in generated:
            gens.append(a)
            generated = set(generated_subgroup(g1, gens))
        if len(generated) == len(g1):
            break

    candidates = [[b for b in range(len(g2)) if orders2[b] == orders1[a]] for a in gens]

    for images in itertools.product(*candidates):
        phi = _extend_homomorphism(g1, g2, gens, images)
        if phi is not None:
            return phi
    return None


def _extend_homomorphism(g1: FiniteGroup, g2: FiniteGroup,
                         gens: Sequence[int], images: Sequence[int]) -> dict[int, int] | None:
    """Grow generator images to a full map by products; check it is a bijective
    homomorphism; None on any conflict."""
    phi = {g1.identity: g2.identity}
    for a, b in zip(gens, images):
        if phi.get(a, b) != b:
            return None
        phi[a] = b
    frontier = list(phi)
    while frontier:
        new = []
        for x in frontier:
            for a, b in zip(gens, images):
                y = g1.mul(x, a)
                img = g2.mul(phi[x], b)
                if y in phi:
                    if phi[y] != img:
                        return None
                else:
                    phi[y] = img
                    new.append(y)
        frontier = new
    if len(phi) != len(g1) or len(set(phi.values())) != len(g1):
        return None
    for x in range(len(g1)):
        for y in range(len(g1)):
            if phi[g1.mul(x, y)] != g2.mul(phi[x], phi[y]):
                return None
    return phi


class DirectSum:
    """Direct sum of finite groups, with the component injections.

    group is the assembled table; injections[j][a] is the index, in the sum,
    of the tuple that is a in component j and identity elsewhere; project
    splits a sum element back into component indices.
    """

    def __init__(self, components: Sequence[FiniteGroup]):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("direct sum needs at least one component")
        comps = self.components
        tuples = list(itertools.product(*(range(len(g)) for g in comps)))
        self._tuples = tuples
        index = {t: i for i, t in enumerate(tuples)}
        names = ["(" + ",".join(g.elements[a] for g, a in zip(comps, t)) + ")"
                 for t in tuples]
        mul = [[index[tuple(g.mul(a, b) for g, a, b in zip(comps, t, u))] for u in tuples]
               for t in tuples]
        self.group = FiniteGroup(names, mul, name="+".join(g.name for g in comps))
        ident = tuple(g.identity for g in comps)
        self.injections = [tuple(index[ident[:j] + (a,) + ident[j + 1:]] for a in range(len(g)))
                           for j, g in enumerate(comps)]

    def project(self, element: int) -> tuple[int, ...]:
        return self._tuples[element]


def direct_sum(components: Sequence[FiniteGroup]) -> DirectSum:
    total = 1
    for g in components:
        total *= len(g)
    if total > DIRECT_SUM_ORDER_CAP:
        raise CapExceededError(
            f"direct sum of order {total} exceeds the cap {DIRECT_SUM_ORDER_CAP}")
    return DirectSum(components)


def extend_action(a: IsometricAction, dsum: DirectSum,
                  component: int) -> IsometricAction:
    """Let the full direct sum act on a's space through one of its components.

    Component `component` of the sum acts as a's group does (up to
    isomorphism); every other component acts trivially.  This is an action
    because projecting to one component is a homomorphism.
    """
    check_index(component, len(dsum.components), "a component index")
    comp = dsum.components[component]
    if comp == a.group:
        iso = {i: i for i in range(len(comp))}
    else:
        iso = find_isomorphism(comp, a.group)
        if iso is None:
            raise ValueError(
                f"component {comp.name!r} is not isomorphic to the acting "
                f"group {a.group.name!r}")
    perms = []
    for elt in range(len(dsum.group)):
        part = dsum.project(elt)[component]
        perms.append(a.perms[iso[part]])
    return IsometricAction(dsum.group, a.space, perms,
                           name=f"{dsum.group.name}_via_{a.name}")
