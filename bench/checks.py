"""The benchmark's own correctness checks, written from the definitions.

Nothing here calls into coarsedim: distances come from the benchmark's copy
of each input (or from the written documents, parsed with plain `json`),
and every certified quantity is recomputed directly, so a check that passes
is evidence about the program and not an echo of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def parse_scalar(text):
    """Exact scalar from its document form ("5", "5/4", "inf")."""
    if text == "inf":
        return INF
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


def scalar_text(value) -> str:
    """Document form of an exact scalar, as the written certificates use."""
    if value == INF:
        return "inf"
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def table_of(space_doc: dict) -> list[list]:
    return [[parse_scalar(v) for v in row] for row in space_doc["dist"]]


def perms_of(action_doc: dict, group_doc: dict) -> list[list[int]]:
    return [action_doc["perm"][e] for e in group_doc["elements"]]


# ---------------------------------------------------------------- quantities

def cover_problems(members, n: int) -> list[str]:
    """A valid cover: non-empty members, no duplicates, every point covered."""
    out = []
    sets = [frozenset(m) for m in members]
    if any(not m for m in sets):
        out.append("empty member")
    if len(set(sets)) != len(sets):
        out.append("duplicate members")
    if any(not 0 <= x < n for m in sets for x in m):
        out.append("member point out of range")
    if set().union(*sets) != set(range(n)):
        out.append("not every point is covered")
    return out


def dimension(members, n: int) -> int:
    """Largest number of members through one point, minus one."""
    counts = [0] * n
    for m in members:
        for x in m:
            counts[x] += 1
    return max(counts) - 1


def mesh(dist, members):
    """Largest distance between two points of one member."""
    return max(max(dist[x][y] for x in m for y in m) for m in members)


def lebesgue(dist, members):
    """min over points x of: the largest r such that the open r-ball around x
    lies inside a member containing x.  For one member U that r is the
    distance from x to the nearest point outside U, or INF if U is everything."""
    n = len(dist)
    sets = [frozenset(m) for m in members]
    overall = INF
    for x in range(n):
        row = dist[x]
        best = 0
        for m in sets:
            if x not in m:
                continue
            outside = [row[y] for y in range(n) if y not in m]
            reach = min(outside) if outside else INF
            if reach > best:
                best = reach
        overall = min(overall, best)
    return overall


def is_equivariant(members, perms) -> bool:
    family = {frozenset(m) for m in members}
    return all(frozenset(p[x] for x in m) in family for m in family for p in perms)


def infeasible_point(dist, R, B):
    """A point whose open R-ball has diameter above B, or None.  Such a ball
    fits in no member of mesh <= B, so no cover exists; otherwise the open
    balls themselves form one."""
    n = len(dist)
    for x in range(n):
        ball = [y for y in range(n) if dist[x][y] < R]
        if max(dist[a][b] for a in ball for b in ball) > B:
            return x
    return None


def orbits(perms, n: int) -> list[tuple[int, ...]]:
    """Orbits as sorted tuples, ordered by their smallest point."""
    seen, out = set(), []
    for x in range(n):
        if x not in seen:
            orb = tuple(sorted({p[x] for p in perms}))
            seen.update(orb)
            out.append(orb)
    return out


def quotient_table(dist, orbs) -> list[list]:
    """Orbit distance straight from the definition: the closest pair."""
    return [[0 if a is b else min(dist[x][y] for x in a for y in b) for b in orbs]
            for a in orbs]


# ---------------------------------------------------------------- claims

def certified_cover_problems(dist, members, *, R=None, B=None, perms=None,
                             cert=None, action_name=None) -> list[str]:
    """Everything a certified cover promises, recomputed.

    cert, when given, is the written certificate document: each certified
    field must equal the recomputed value exactly.
    """
    n = len(dist)
    out = cover_problems(members, n)
    if out:
        return out
    dim, msh, leb = dimension(members, n), mesh(dist, members), lebesgue(dist, members)
    if R is not None and not leb >= R:
        out.append(f"Lebesgue number {scalar_text(leb)} below R={scalar_text(R)}")
    if B is not None and not msh <= B:
        out.append(f"mesh {scalar_text(msh)} above B={scalar_text(B)}")
    equivariant = None
    if perms is not None:
        equivariant = is_equivariant(members, perms)
        if not equivariant:
            out.append("cover is not equivariant")
    if cert is not None:
        claimed = {"dimension": cert["dimension"], "lebesgue": cert["lebesgue"],
                   "mesh": cert["mesh"], "equivariant": cert["equivariant"],
                   "action": cert["action"], "ball_meet": cert["ball_meet"]}
        actual = {"dimension": dim, "lebesgue": scalar_text(leb),
                  "mesh": scalar_text(msh), "equivariant": equivariant,
                  "action": action_name, "ball_meet": None}
        for field, value in actual.items():
            if claimed[field] != value:
                out.append(f"certificate {field} says {claimed[field]!r}, "
                           f"recomputed {value!r}")
    return out
