"""JSON formats for every object kind, and the named-object workspace.

All scalars are serialized as exact strings ("5", "5/4", "inf"); nothing in
a file is a float.  Every document opens with the same envelope, "format",
"kind" and "name" in that order (written by _document alone), then its own
fields.  The writer is canonical (fixed key order, two-space indentation,
trailing newline), so serialize after deserialize reproduces a written file
byte for byte.  `dumps` builds that text with one string join per list or
dict, and its bytes are json.dumps(d, indent=2, ensure_ascii=False) + "\n"
exactly; json's own indenting encoder is pure Python, about twice as slow.
It writes only what a document holds (dicts with string keys, lists,
strings, ints, booleans and None) and raises TypeError on anything else, a
float included.  A space's table is read in one pass that also gives its
integer rows, and written from them, each distinct value once.  A document
loads only as what it names: load_entry writes the object it builds back
and refuses any other document, so members are sorted, scalars in lowest
terms and no key is extra; a profile's derived keys must be what its
entries derive (each entry's dimension and mesh stay claims, as its cover
is not in the document).  A certificate's fields are also recomputed from
its cover; any disagreement is a validation failure.
A lift trace loads only beside its action and both its covers, and only as
what the lift of its source cover at its R writes: the reader checks its
indices against the action, builds that trace with the lift's own split
(constructions._split) and checks its pieces against the lifted cover's
members; load_entry's write-back refuses every other document.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import asdict
from fractions import Fraction
from itertools import chain, repeat
from typing import Sequence

from .constructions import LiftTrace, SSpace, _split, build_sspace
from .covers import Cover, CoverCertificate, Decomposition, certify, validate_cover, \
    validate_decomposition, verify_certificate
from .errors import ResolutionError, Violation
from .estimation import DimensionProfile, FamilyProfile, Infeasible, ProfileEntry
from .groups import FiniteGroup, IsometricAction, orbits, validate_action, validate_group
from .metric import (INF, FiniteMetricSpace, check_index, check_indices, is_scalar,
                     validate_metric)

FORMAT_TAG = "coarsedim/1"

KIND_ORDER = {"space": 0, "group": 0, "action": 1, "sspace": 2,
              "cover": 3, "decomposition": 3, "certificate": 4,
              "lift_trace": 4, "profile": 4}


class FormatError(ValueError):
    """Malformed or invalid file content; may carry validator violations."""

    def __init__(self, message: str, violations: Sequence[Violation] = ()):
        super().__init__(message)
        self.violations = list(violations)


def scalar_str(value) -> str:
    if value == INF:
        return "inf"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if is_scalar(value):
        return str(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def parse_scalar(text: str):
    """The scalar that scalar_str writes as text; "03", "2/4", "1/1", ... fail."""
    if not isinstance(text, str):
        raise FormatError(f"scalar must be a string, got {text!r}")
    try:
        value = INF if text == "inf" else Fraction(text) if "/" in text else int(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or scalar_str(value) != text:
        raise FormatError(f"bad scalar {text!r}")
    return value


def _opt_scalar_str(value) -> str | None:
    return None if value is None else scalar_str(value)


def _opt_parse_scalar(text):
    return None if text is None else parse_scalar(text)


def dumps(d: dict) -> str:
    """The canonical text of a document (see the module docstring)."""
    return _encode(d, "\n") + "\n"


#: The string encoder json.dumps uses when ensure_ascii is false.
_encode_str = json.encoder.encode_basestring


def _encode(value, newline: str) -> str:
    """value as json.dumps(indent=2, ensure_ascii=False) writes it, where
    newline is a line break followed by the indent of value's own line.  A
    list of only strings or only ints is written in one C-level map."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(_encode_str, value)
        elif kinds == {int}:
            items = map(int.__repr__, value)
        else:
            items = map(_encode, value, repeat(inner))
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if kind is dict:
        if not value:
            return "{}"
        # _encode_str raises TypeError on a key that is not a string.
        items = [f"{_encode_str(k)}: {_encode(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"not a document value: {value!r}")


def _document(kind: str, name: str, **fields) -> dict:
    """The envelope every document shares, then its own fields in order."""
    return {"format": FORMAT_TAG, "kind": kind, "name": name, **fields}


# ---------------------------------------------------------------- space

def space_to_dict(m: FiniteMetricSpace) -> dict:
    """The document of m.  The table is written from its integer rows, each
    distinct int k there once, as the entry k / integer_scale() it stands
    for.  Anything but a FiniteMetricSpace is written entry by entry, so the
    first bad entry (INF, a float, ...) in reading order raises."""
    if isinstance(m, FiniteMetricSpace):
        rows, scale = m.integer_rows(), m.integer_scale()
        text = {k: scalar_str(Fraction(k, scale)) for k in set(chain.from_iterable(rows))}
        dist = [list(map(text.__getitem__, row)) for row in rows]
    else:
        dist = [[scalar_str(v) for v in row] for row in m.dist]
    return _document("space", m.name, points=list(m.points), dist=dist)


class _Parsed(dict):
    """parse_scalar of each string looked up, parsed on its first lookup."""

    def __missing__(self, text):
        value = self[text] = parse_scalar(text)
        return value


def space_from_dict(d: dict) -> FiniteMetricSpace:
    """The space a document describes.  One pass maps the table through a
    dict that parses each distinct string on first sight; its few values
    give the integer form (see FiniteMetricSpace.integer_rows), by a second
    map of the strings when a Fraction is among them.  A table with anything
    else in it (an unhashable entry, a non-string, a bad string) is parsed
    entry by entry, so the first bad entry in reading order raises."""
    dist = d["dist"]
    parsed = _Parsed()
    scale = integers = None
    try:
        rows = [tuple(map(parsed.__getitem__, row)) for row in dist]
    except (TypeError, FormatError):
        rows = [[parse_scalar(v) for v in row] for row in dist]
    else:
        if INF not in parsed.values():      # else the constructor refuses it
            scale = math.lcm(*(v.denominator for v in parsed.values()))
            if scale > 1:
                scaled = {t: v.numerator * (scale // v.denominator) for t, v in parsed.items()}
                integers = tuple(tuple(map(scaled.__getitem__, row)) for row in dist)
    m = FiniteMetricSpace._built(d["points"], rows, d["name"], scale, integers)
    # load_entry takes the table as read, so a string row (which the
    # constructor reads character by character) is refused here; after the
    # constructor, so that a short row or a bad entry is reported first.
    if not set(map(type, dist)) <= {list}:
        bad = next(row for row in dist if type(row) is not list)
        raise TypeError(f"each row of dist must be an array, got {bad!r}")
    return m


# ---------------------------------------------------------------- group

def group_to_dict(g: FiniteGroup) -> dict:
    return _document("group", g.name, elements=list(g.elements),
                     mul=[list(row) for row in g.mul_table])


def group_from_dict(d: dict) -> FiniteGroup:
    return FiniteGroup(d["elements"], d["mul"], name=d["name"])


# ---------------------------------------------------------------- action

def action_to_dict(a: IsometricAction) -> dict:
    return _document("action", a.name, group=a.group.name, space=a.space.name,
                     perm={a.group.elements[g]: list(a.perms[g])
                           for g in range(len(a.group))})


def action_from_dict(d: dict, ws: "Workspace") -> IsometricAction:
    group = ws.get("group", d["group"])
    space = ws.get("space", d["space"])
    perm_map = d["perm"]
    perms = []
    for element in group.elements:
        if element not in perm_map:
            raise FormatError(f"action is missing the permutation for {element!r}")
        perms.append(perm_map[element])
    return IsometricAction(group, space, perms, name=d["name"])


# ---------------------------------------------------------------- cover

def cover_to_dict(c: Cover) -> dict:
    return _document("cover", c.name, space=c.space.name,
                     members=[sorted(member) for member in c.members])


def cover_from_dict(d: dict, ws: "Workspace") -> Cover:
    space = ws.get("space", d["space"])
    return Cover(space, d["members"], name=d["name"])


# ---------------------------------------------------------------- decomposition

def decomposition_to_dict(d: Decomposition) -> dict:
    return _document("decomposition", d.name, space=d.space.name, r=scalar_str(d.r),
                     families=[[sorted(piece) for piece in family]
                               for family in d.families])


def decomposition_from_dict(d: dict, ws: "Workspace") -> Decomposition:
    space = ws.get("space", d["space"])
    return Decomposition(space, parse_scalar(d["r"]), d["families"], name=d["name"])


# ---------------------------------------------------------------- sspace

def sspace_to_dict(s: SSpace) -> dict:
    return _document("sspace", s.assembled.name,
                     components=[comp.name for comp in s.components],
                     basepoints=[sorted(bp) for bp in s.basepoints],
                     weights=[scalar_str(w) for w in s.weights])


def sspace_from_dict(d: dict, ws: "Workspace") -> SSpace:
    components = [ws.get("space", cname) for cname in d["components"]]
    basepoints = d["basepoints"]
    weights = [parse_scalar(w) for w in d["weights"]]
    return build_sspace(components, basepoints, weights, name=d["name"])


# ---------------------------------------------------------------- certificate

def certificate_to_dict(cert: CoverCertificate, cover_name: str,
                        action_name: str | None = None) -> dict:
    return _document("certificate", f"{cover_name}_cert", cover=cover_name,
                     action=action_name, dimension=cert.dimension,
                     lebesgue=scalar_str(cert.lebesgue), mesh=scalar_str(cert.mesh),
                     meet_radius=_opt_scalar_str(cert.meet_radius),
                     ball_meet=cert.ball_meet, equivariant=cert.equivariant)


def certificate_from_dict(d: dict) -> CoverCertificate:
    """Rebuild the claimed certificate; the caller still has to verify it
    against the referenced cover (load_entry does)."""
    return CoverCertificate(
        dimension=d["dimension"],
        lebesgue=parse_scalar(d["lebesgue"]),
        mesh=parse_scalar(d["mesh"]),
        meet_radius=_opt_parse_scalar(d.get("meet_radius")),
        ball_meet=d.get("ball_meet"),
        equivariant=d.get("equivariant"),
    )


# ---------------------------------------------------------------- lift trace

def lift_trace_to_dict(trace: LiftTrace, action_name: str,
                       source_cover: str, lifted_cover: str) -> dict:
    members = [{"member": sorted(entry.member),
                "fiber": sorted(entry.fiber),
                "basepoint": entry.basepoint,
                "pieces": [{"rep": piece.rep,
                            "subgroup": list(piece.subgroup),
                            "piece": sorted(piece.piece)}
                           for piece in entry.pieces]}
               for entry in trace.entries]
    return _document("lift_trace", f"{lifted_cover}_trace", action=action_name,
                     source_cover=source_cover, cover=lifted_cover,
                     R=scalar_str(trace.R), s=scalar_str(trace.s), members=members)


def lift_trace_from_dict(d: dict, ws: "Workspace") -> LiftTrace:
    """The trace the lift of its source cover at its R makes, once its
    action and both its covers resolve, and every index in the document is
    checked against that action: points against its space, coset
    representatives and subgroup elements against its group, and members
    against its orbit count.  The source cover must live on a space with
    the quotient's points, one per orbit (orbit i is the i-th by least
    point), each named after that least point, as quotient(action) names
    them; R must be positive and at most the cover's Lebesgue number.  The
    lifted cover's members must be the pieces, in order, equal ones once.
    load_entry then refuses a document that is not this trace as written."""
    indices = [(entry["member"], entry["fiber"], entry["basepoint"],
                [(p["rep"], p["subgroup"], p["piece"]) for p in entry["pieces"]])
               for entry in d["members"]]
    R = parse_scalar(d["R"])
    action = ws.get("action", d["action"])
    source = ws.get("cover", d["source_cover"])
    lifted = ws.get("cover", d["cover"])
    n, order = len(action.space), len(action.group)
    orbs = orbits(action)
    for member, fiber, basepoint, pieces in indices:
        check_indices(member, len(orbs), "a member's orbit")
        check_indices(fiber, n, "a fiber's point")
        check_index(basepoint, n, "a basepoint")
        for rep, subgroup, piece in pieces:
            check_index(rep, order, "a piece's coset representative")
            check_indices(subgroup, order, "a piece's subgroup element")
            check_indices(piece, n, "a piece's point")
    if source.space.points != tuple(action.space.points[orb[0]] for orb in orbs):
        raise ValueError(f"cover {source.name!r} does not live on the quotient of "
                         f"{action.name!r}")
    trace = _split(action, orbs, source, certify(source), R)
    if tuple(dict.fromkeys(p.piece for e in trace.entries for p in e.pieces)) != \
            lifted.members:
        raise ValueError(f"the members of {lifted.name!r} are not the trace's pieces, "
                         "in order")
    return trace


# ---------------------------------------------------------------- profile

def _entry_to_dict(entry: ProfileEntry) -> dict:
    return {
        "scale": scalar_str(entry.scale),
        "mesh_bound": _opt_scalar_str(entry.mesh_bound),
        "method": entry.method,
        "dimension": entry.dimension,
        "mesh": _opt_scalar_str(entry.mesh),
        "cover": entry.cover_name,
        "infeasible": None if entry.infeasible is None else asdict(entry.infeasible),
    }


def _entry_from_dict(d: dict) -> ProfileEntry:
    record = d.get("infeasible")
    return ProfileEntry(scale=parse_scalar(d["scale"]),
                        mesh_bound=_opt_parse_scalar(d.get("mesh_bound")),
                        dimension=d.get("dimension"),
                        mesh=_opt_parse_scalar(d.get("mesh")),
                        cover_name=d.get("cover"),
                        infeasible=None if record is None else Infeasible(**record))


def _profiles_to_list(profiles: Sequence[DimensionProfile]) -> list:
    return [{"space": p.space_name,
             "entries": [_entry_to_dict(e) for e in p.entries]}
            for p in profiles]


def _profiles_from_list(items: list) -> tuple[DimensionProfile, ...]:
    return tuple(DimensionProfile(space_name=p["space"],
                                  entries=tuple(map(_entry_from_dict, p["entries"])))
                 for p in items)


def profile_to_dict(fp: FamilyProfile, name: str) -> dict:
    quotients = (None if fp.quotient_profiles is None
                 else _profiles_to_list(fp.quotient_profiles))
    comparisons = None
    if fp.comparisons is not None:
        comparisons = [{"space": rep.space_name,
                        "scale": scalar_str(rep.scale),
                        "mesh_bound": _opt_scalar_str(rep.mesh_bound),
                        "dimension": rep.dimension,
                        "quotient_dimension": rep.quotient_dimension,
                        "relation": rep.relation}
                       for rep in fp.comparisons]
    return _document("profile", name, spaces=_profiles_to_list(fp.profiles),
                     family_dimension=list(fp.family_dimension),
                     family_mesh=[_opt_scalar_str(v) for v in fp.family_mesh],
                     quotients=quotients, comparisons=comparisons)


def profile_from_dict(d: dict) -> FamilyProfile:
    """The profile its entries describe; every other key is derived from
    them (load_entry checks that the document holds what they derive)."""
    return FamilyProfile(
        _profiles_from_list(d["spaces"]),
        None if d["quotients"] is None else _profiles_from_list(d["quotients"]))


def profile_to_csv(fp: FamilyProfile) -> str:
    """Flat table: one row per space and scale, quotient columns when known."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["space", "scale", "mesh_bound", "method", "dimension", "mesh",
                     "quotient_dimension", "quotient_mesh", "relation"])
    reports = iter(fp.comparisons or ())
    for prof, qprof in zip(fp.profiles, fp.quotient_profiles or repeat(None)):
        for entry, qentry in zip(prof.entries,
                                 repeat(None) if qprof is None else qprof.entries):
            rep = next(reports, None)
            writer.writerow([
                prof.space_name,
                scalar_str(entry.scale),
                "" if entry.mesh_bound is None else scalar_str(entry.mesh_bound),
                entry.method,
                "" if entry.dimension is None else entry.dimension,
                "" if entry.mesh is None else scalar_str(entry.mesh),
                "" if qentry is None or qentry.dimension is None else qentry.dimension,
                "" if qentry is None or qentry.mesh is None else scalar_str(qentry.mesh),
                "" if rep is None else rep.relation,
            ])
    return buf.getvalue()


# ---------------------------------------------------------------- workspace

class Workspace:
    """Named objects of each kind, the unit of reference resolution."""

    def __init__(self):
        self._objects: dict[tuple[str, str], object] = {}

    def add(self, kind: str, name: str, obj) -> None:
        key = (kind, str(name))
        if key in self._objects:
            raise FormatError(f"duplicate {kind} named {name!r}")
        self._objects[key] = obj

    def has(self, kind: str, name: str) -> bool:
        return (kind, str(name)) in self._objects

    def get(self, kind: str, name: str):
        try:
            return self._objects[(kind, str(name))]
        except KeyError:
            raise ResolutionError(f"no {kind} named {name!r} is loaded") from None

    def names(self, kind: str) -> list[str]:
        return sorted(n for (k, n) in self._objects if k == kind)


def parse_document(text: str) -> dict:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise FormatError("top level of a document must be an object")
    tag = d.get("format")
    if tag != FORMAT_TAG:
        raise FormatError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in KIND_ORDER:
        raise FormatError(f"unknown kind {kind!r}")
    return d


def load_entry(d: dict, ws: Workspace) -> tuple[str, str, object, list[Violation]]:
    """Materialize one parsed document into the workspace.

    Returns (kind, name, object, violations).  This is the one place that
    reports a malformed document, by one rule: the object, written back by
    its kind's *_to_dict, must equal the document (key order and whitespace
    are free), else "<kind> '<name>': <key> is not as its object writes it".
    What a bad field makes the readers raise becomes "<kind> file is missing
    '<key>'" or "bad <kind>: ...", and a missing reference ResolutionError.
    The validators and certificate recomputation run after the object is
    built, outside that conversion, so a fault in one is never reported as
    a bad file; they only fill the violation list, so callers can report
    instead of abort.
    """
    kind = d["kind"]
    check = None
    try:
        name = d["name"]
        if kind == "space":
            obj, check = space_from_dict(d), validate_metric
            # The table is taken as read (parse_scalar and space_from_dict
            # make it canonical); writing it again costs as much as reading.
            written = _document("space", obj.name, points=list(obj.points), dist=d["dist"])
        elif kind == "group":
            obj, check = group_from_dict(d), validate_group
            written = group_to_dict(obj)
        elif kind == "action":
            obj, check = action_from_dict(d, ws), validate_action
            written = action_to_dict(obj)
        elif kind == "sspace":
            obj = sspace_from_dict(d, ws)
            written = sspace_to_dict(obj)
        elif kind == "cover":
            obj, check = cover_from_dict(d, ws), validate_cover
            written = cover_to_dict(obj)
        elif kind == "decomposition":
            obj, check = decomposition_from_dict(d, ws), validate_decomposition
            written = decomposition_to_dict(obj)
        elif kind == "certificate":
            obj = certificate_from_dict(d)
            cover = ws.get("cover", d["cover"])
            action = None if d["action"] is None else ws.get("action", d["action"])
            # What verify_certificate assumes, checked here so that a file
            # breaking it is reported as a bad certificate.
            if action is not None and action.space != cover.space:
                raise ValueError(f"action {action.name!r} does not act on the space "
                                 f"of cover {cover.name!r}")
            check = functools.partial(verify_certificate, cover, action=action)
            written = certificate_to_dict(obj, d["cover"], d["action"])
        elif kind == "lift_trace":
            obj = lift_trace_from_dict(d, ws)
            written = lift_trace_to_dict(obj, d["action"], d["source_cover"], d["cover"])
        elif kind == "profile":
            obj = profile_from_dict(d)
            written = profile_to_dict(obj, name)
        else:
            raise FormatError(f"unknown kind {kind!r}")
        if written != d:
            key = next(k for k in {**written, **d}
                       if k not in written or k not in d or written[k] != d[k])
            raise FormatError(f"{kind} {name!r}: {key} is not as its object writes it")
    except (FormatError, ResolutionError):  # ResolutionError is a KeyError
        raise
    except KeyError as exc:
        raise FormatError(f"{kind} file is missing {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise FormatError(f"bad {kind}: {exc}") from None
    violations = [] if check is None else check(obj)
    if not violations:
        ws.add(kind, name, obj)
        if kind == "sspace":
            # The assembled space is registered under the same name so that
            # covers and estimates can refer to it.  A plain space document
            # with this name may already be loaded (the CLI writes one);
            # that is fine exactly when it agrees point for point.
            if ws.has("space", name):
                if ws.get("space", name) != obj.assembled:
                    raise FormatError(
                        f"sspace {name!r} disagrees with the loaded space of "
                        f"the same name")
            else:
                ws.add("space", name, obj.assembled)
    return kind, name, obj, violations
