"""Serialization: exact scalars, canonical JSON documents for every kind,
workspace resolution, certificate recomputation on load, CSV export."""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coarsedim import (Cover, Decomposition, FiniteMetricSpace, FormatError,
                       ResolutionError, Workspace, build_sspace, certify, dumps, family_profile,
                       greedy_cover, lift_equivariant, min_dimension_cover_exact, quotient)
from coarsedim import formats
from coarsedim.formats import (action_to_dict, certificate_to_dict,
                               cover_to_dict, decomposition_to_dict,
                               group_to_dict,
                               lift_trace_to_dict, load_entry,
                               parse_document, parse_scalar, profile_from_dict,
                               profile_to_csv, profile_to_dict, scalar_str,
                               space_from_dict, space_to_dict, sspace_to_dict)
from coarsedim.generators import (cycle_rotation_action, cycle_space,
                                  path_reflection_action, path_space)
from coarsedim.groups import cyclic_group


def test_scalar_strings():
    assert scalar_str(5) == "5"
    assert scalar_str(-3) == "-3"
    assert scalar_str(Fraction(5, 4)) == "5/4"
    assert scalar_str(Fraction(8, 4)) == "2"
    assert scalar_str(math.inf) == "inf"
    with pytest.raises(TypeError):
        scalar_str(1.5)
    assert parse_scalar("5") == 5
    assert parse_scalar("5/4") == Fraction(5, 4)
    assert parse_scalar("inf") == math.inf
    for bad in ("1.5", "abc", "1/0", "", 5, "03", " 3", "+3", "-0", "1_0", "2/4",
                "4/2", "1/1", "0/1"):
        with pytest.raises(FormatError):
            parse_scalar(bad)


def fixtures():
    """One object of every kind, wired together."""
    space = path_space(5)
    group = cyclic_group(2)
    action = path_reflection_action(space)
    cover = Cover(space, [[0, 1, 2], [2, 3, 4]], name="halves")
    decomp = Decomposition(space, 1, [[[0, 1], [3, 4]], [[2]]], name="split")
    union = build_sspace([space, cycle_space(4)], [[2], [0, 2]], [5, 6],
                         name="U")
    cert = certify(cover, meet_radius=1, action=None)
    q = quotient(action)
    qc = min_dimension_cover_exact(q.space, 1, 4)
    lifted, trace, lift_cert = lift_equivariant(action, q, qc, R=1)
    return dict(space=space, group=group, action=action, cover=cover,
                decomp=decomp, union=union, cert=cert, q=q, qc=qc,
                lifted=lifted, trace=trace, lift_cert=lift_cert)


def seeded_workspace(fx) -> Workspace:
    ws = Workspace()
    ws.add("space", fx["space"].name, fx["space"])
    ws.add("space", fx["q"].space.name, fx["q"].space)
    ws.add("group", fx["group"].name, fx["group"])
    ws.add("action", fx["action"].name, fx["action"])
    ws.add("cover", fx["cover"].name, fx["cover"])
    ws.add("cover", fx["qc"].name, fx["qc"])
    return ws


def assert_round_trip(d, rebuild, redump):
    text = dumps(d)
    parsed = parse_document(text)
    obj = rebuild(parsed)
    assert dumps(redump(obj, parsed)) == text
    return obj


def test_space_round_trip_is_byte_identical():
    fx = fixtures()
    ws = Workspace()
    obj = assert_round_trip(
        space_to_dict(fx["space"]),
        lambda d: load_entry(d, ws)[2],
        lambda obj, d: space_to_dict(obj))
    assert obj == fx["space"]
    assert ws.has("space", "P5")


def test_group_round_trip_is_byte_identical():
    fx = fixtures()
    ws = Workspace()
    obj = assert_round_trip(
        group_to_dict(fx["group"]),
        lambda d: load_entry(d, ws)[2],
        lambda obj, d: group_to_dict(obj))
    assert obj.elements == fx["group"].elements
    assert obj.mul_table == fx["group"].mul_table


def test_action_round_trip_is_byte_identical():
    fx = fixtures()
    ws = Workspace()
    ws.add("space", fx["space"].name, fx["space"])
    ws.add("group", fx["group"].name, fx["group"])
    obj = assert_round_trip(
        action_to_dict(fx["action"]),
        lambda d: load_entry(d, ws)[2],
        lambda obj, d: action_to_dict(obj))
    assert obj.perms == fx["action"].perms


def test_cover_round_trip_is_byte_identical():
    fx = fixtures()
    ws = seeded_workspace(fx)
    d = cover_to_dict(fx["cover"])
    d["name"] = "halves2"
    obj = assert_round_trip(
        d,
        lambda parsed: load_entry(parsed, ws)[2],
        lambda obj, parsed: cover_to_dict(obj))
    assert obj.members == fx["cover"].members


def test_decomposition_round_trip_is_byte_identical():
    fx = fixtures()
    ws = seeded_workspace(fx)
    obj = assert_round_trip(
        decomposition_to_dict(fx["decomp"]),
        lambda d: load_entry(d, ws)[2],
        lambda obj, d: decomposition_to_dict(obj))
    assert obj.families == fx["decomp"].families
    assert obj.r == 1


def test_sspace_round_trip_is_byte_identical():
    fx = fixtures()
    ws = seeded_workspace(fx)
    ws.add("space", "C4", cycle_space(4))
    obj = assert_round_trip(
        sspace_to_dict(fx["union"]),
        lambda d: load_entry(d, ws)[2],
        lambda obj, d: sspace_to_dict(obj))
    assert obj.assembled == fx["union"].assembled
    # the assembled space was registered for downstream references
    assert ws.get("space", "U") == fx["union"].assembled


def test_certificate_round_trip_and_recomputation():
    fx = fixtures()
    ws = seeded_workspace(fx)
    d = certificate_to_dict(fx["cert"], "halves")
    kind, name, obj, violations = load_entry(parse_document(dumps(d)), ws)
    assert violations == []
    assert obj == fx["cert"]
    assert dumps(certificate_to_dict(obj, "halves")) == dumps(d)


def test_tampered_certificate_is_rejected():
    fx = fixtures()
    ws = seeded_workspace(fx)
    d = certificate_to_dict(fx["cert"], "halves")
    d["dimension"] = d["dimension"] + 1
    kind, name, obj, violations = load_entry(parse_document(dumps(d)), ws)
    assert any(v.subject == ("dimension",) for v in violations)
    assert not ws.has("certificate", "halves_cert")


def test_equivariant_certificate_needs_its_action():
    fx = fixtures()
    ws = seeded_workspace(fx)
    ws.add("cover", fx["lifted"].name, fx["lifted"])
    d = certificate_to_dict(fx["lift_cert"], fx["lifted"].name,
                            action_name=fx["action"].name)
    kind, name, obj, violations = load_entry(parse_document(dumps(d)), ws)
    assert violations == []
    assert obj.equivariant is True


def test_lift_trace_round_trip_is_byte_identical():
    fx = fixtures()
    d = lift_trace_to_dict(fx["trace"], fx["action"].name,
                           fx["qc"].name, fx["lifted"].name)
    text = dumps(d)
    parsed = parse_document(text)
    ws = Workspace()    # a trace loads beside its action and both covers
    ws.add("action", fx["action"].name, fx["action"])
    ws.add("cover", fx["qc"].name, fx["qc"])
    ws.add("cover", fx["lifted"].name, fx["lifted"])
    obj = load_entry(parsed, ws)[2]
    assert obj == fx["trace"]
    assert dumps(lift_trace_to_dict(obj, fx["action"].name,
                                    fx["qc"].name, fx["lifted"].name)) == text


def test_profile_round_trip_is_byte_identical():
    spaces = [path_space(5), cycle_space(4)]
    actions = [path_reflection_action(spaces[0]),
               cycle_rotation_action(spaces[1], 2)]
    fp = family_profile(spaces, [1, 5], mesh_bounds=[2, 1], actions=actions)
    d = profile_to_dict(fp, "fam")
    text = dumps(d)
    obj = profile_from_dict(parse_document(text))
    assert dumps(profile_to_dict(obj, "fam")) == text
    # infeasible entries survive (scale 5 with mesh bound 1 is impossible)
    assert obj.profiles[0].entries[1].infeasible is not None
    assert obj.profiles[0].entries[1].dimension is None
    assert obj.profiles[0].entries[1].infeasible == \
        fp.profiles[0].entries[1].infeasible


def test_profile_csv_shape():
    spaces = [path_space(5)]
    actions = [path_reflection_action(spaces[0])]
    fp = family_profile(spaces, [1, 5], mesh_bounds=[2, 1], actions=actions)
    lines = profile_to_csv(fp).splitlines()
    assert lines[0] == ("space,scale,mesh_bound,method,dimension,mesh,"
                        "quotient_dimension,quotient_mesh,relation")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "P5" and first[1] == "1" and first[4] == "0"
    assert first[8] == "equal"
    second = lines[2].split(",")
    assert second[4] == "" and second[8] == "infeasible"


DOCUMENT_IDS = ["space", "quotient-space", "fraction-space", "group", "action", "cover",
                "decomposition", "sspace", "certificate", "equivariant-certificate",
                "lift-trace", "profile", "bare-profile"]


def every_document(fx) -> list[dict]:
    """A document of every kind the CLI writes, in DOCUMENT_IDS order."""
    spaces = [path_space(5), cycle_space(4)]
    actions = [path_reflection_action(spaces[0]),
               cycle_rotation_action(spaces[1], 2)]
    # An infeasible entry has a null dimension and mesh; without actions
    # the quotients and comparisons are null.
    with_quotients = family_profile(spaces, [1, 5], mesh_bounds=[2, 1], actions=actions)
    plain = family_profile(spaces, [1, 5], mesh_bounds=[2, 1])
    thirds = FiniteMetricSpace(["é", "漢", "\"q\""],
                               [[0, Fraction(2, 3), 1], [Fraction(2, 3), 0, 1],
                                [1, 1, 0]], name="tiers\tü")
    return [space_to_dict(fx["space"]), space_to_dict(fx["q"].space),
            space_to_dict(thirds), group_to_dict(fx["group"]),
            action_to_dict(fx["action"]), cover_to_dict(fx["cover"]),
            decomposition_to_dict(fx["decomp"]), sspace_to_dict(fx["union"]),
            certificate_to_dict(fx["cert"], fx["cover"].name),
            certificate_to_dict(fx["lift_cert"], fx["lifted"].name,
                                action_name=fx["action"].name),
            lift_trace_to_dict(fx["trace"], fx["action"].name, fx["qc"].name,
                               fx["lifted"].name),
            profile_to_dict(with_quotients, "fam"), profile_to_dict(plain, "bare")]


def test_every_document_kind_is_written_as_json_dumps_writes_it():
    docs = every_document(fixtures())
    assert None in docs[-1].values()
    for d in docs:
        assert dumps(d) == json.dumps(d, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("index", range(len(DOCUMENT_IDS)), ids=DOCUMENT_IDS)
def test_load_entry_refuses_a_key_its_object_does_not_write(index):
    fx = fixtures()
    d = every_document(fx)[index]

    def references():
        """Every object the documents refer to, except d itself."""
        ws = Workspace()
        for kind, obj in [("space", fx["space"]), ("space", fx["q"].space),
                          ("space", cycle_space(4)), ("group", fx["group"]),
                          ("action", fx["action"]), ("cover", fx["cover"]),
                          ("cover", fx["qc"]), ("cover", fx["lifted"])]:
            if (kind, obj.name) != (d["kind"], d["name"]):
                ws.add(kind, obj.name, obj)
        return ws

    assert load_entry(parse_document(dumps(d)), references())[3] == []
    with pytest.raises(FormatError) as info:
        load_entry(parse_document(dumps({**d, "note": None})), references())
    assert str(info.value) == \
        f"{d['kind']} {d['name']!r}: note is not as its object writes it"


@pytest.mark.parametrize("value", [
    {"r": 1.5}, {"rows": [[0, 1], [1, 0.0]]}, {"nan": [math.nan]}, {1: "a"},
    {"pair": (0, 1)}, {"set": {1}},
], ids=["float", "nested-float", "nan", "int-key", "tuple", "set"])
def test_dumps_refuses_what_no_document_holds(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_parse_document_rejects_malformed_input():
    with pytest.raises(FormatError):
        parse_document("{not json")
    with pytest.raises(FormatError):
        parse_document("[1, 2]")
    with pytest.raises(FormatError):
        parse_document('{"format": "other/9", "kind": "space"}')
    with pytest.raises(FormatError):
        parse_document('{"format": "coarsedim/1", "kind": "widget"}')


def per_entry_space(d):
    """space_from_dict as one parse_scalar call per entry."""
    dist = [[parse_scalar(v) for v in row] for row in d["dist"]]
    return FiniteMetricSpace(d["points"], dist, name=d["name"])


def load_outcome(load, dist):
    """Each entry as (type, value), then the integer rows and their scale,
    or the exception's type and message."""
    d = {"name": "t", "points": ["a", "b", "c"], "dist": dist}
    try:
        m = load(d)
    except Exception as exc:
        return type(exc), str(exc)
    return ([[(type(v), v) for v in row] for row in m.dist],
            m.integer_rows(), m.integer_scale())


@pytest.mark.parametrize("dist", [
    [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
    [["0", "4/6", "2/3"], ["4/6", "0", "4/2"], ["2/3", "2", "0"]],  # types kept
    [["0", " 5", "+5"], ["5", "0", "1_0"], ["+5", "1_0", "0"]],
    [["0", 1, "2"], ["1", "0", "1"], ["2", "1", "0"]],               # JSON number
    [["0", "1", "2"], ["1", "0", 1.5], ["2", "1", None]],
    [["0", "inf", "2"], ["inf", "0", "1"], ["2", "1", "0"]],
    [["0", "1", "3/0"], ["1", "0", "1"], ["3/0", "1", "0"]],
    [["0", "1", "x"], ["y", "0", "1"], ["2", "1", "0"]],             # first in order
    [[f"x{i}{j}" for j in range(20)] for i in range(3)],
    [["0", "1", "2"], ["1", "0", "z"], ["2", "3/0", "0"]],
    [["0", ["1"], "2"], ["1", "0", "1"], ["2", "1", "0"]],           # nested lists
    [["0", "1", "2"], [["1", "0"], "0", "1"], ["2", "1", "0"]],
    [[], [], []],
    [["0", "1", "2"], [], ["2", "1", "0"]],
    [],
    "012",
    5,
    [5, 6, 7],
])
def test_space_from_dict_matches_per_entry_parse(dist):
    assert load_outcome(space_from_dict, dist) == load_outcome(per_entry_space, dist)


def test_a_loaded_fraction_space_is_scaled_by_its_parse_alone(integer_table_builds):
    # The parse gives the integer rows; the quotient takes its minima on
    # them and keeps them, and greedy and the writer read them.
    path = path_space(9)
    d = space_to_dict(FiniteMetricSpace(
        path.points, [[Fraction(2, 3) * v for v in row] for row in path.dist], name="P9/3"))
    integer_table_builds.clear()        # writing the built space scaled it once
    _, _, m, violations = load_entry(parse_document(dumps(d)), Workspace())
    assert violations == [] and m.integer_scale() == 3
    q = quotient(path_reflection_action(m))
    cover, cert = greedy_cover(q.space, Fraction(2, 3))
    assert cert.lebesgue >= Fraction(2, 3)
    assert space_to_dict(q.space) == per_entry_space_dict(q.space)
    assert integer_table_builds == []
    assert q.space.integer_rows() == tuple(tuple(3 * v for v in row) for row in q.space.dist)


class Loud(int):
    def __str__(self):
        return f"Loud({int(self)})"


def write_outcome(write, dist):
    """The bytes a space document is written as, or the error it raises."""
    space = SimpleNamespace(name="t", points=[str(i) for i in range(len(dist))],
                            dist=dist)
    try:
        return dumps(write(space))
    except TypeError as exc:
        return type(exc), str(exc)


def per_entry_space_dict(m):
    return {"format": "coarsedim/1", "kind": "space", "name": m.name,
            "points": list(m.points),
            "dist": [[scalar_str(v) for v in row] for row in m.dist]}


@pytest.mark.parametrize("dist", [
    [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    [[0, Fraction(1, 2), 2], [Fraction(1, 2), 0, Fraction(4, 2)],
     [2, Fraction(4, 2), 0]],
    [[Fraction(4, 2), 2], [2, Fraction(0)]],
    [[0, math.inf, 1], [math.inf, 0, math.inf], [1, math.inf, 0]],
    [[0, Loud(3)], [3, 0]],
    [[0, 3], [Loud(3), 0]],
    [[0, 2, 2.0], [2.0, 0, 2], [2, 2, 0]],
    [[0, 2.5, True], [2.5, 0, 1], [True, 1, 0]],
    [],
])
def test_space_to_dict_matches_per_entry_write(dist):
    assert write_outcome(space_to_dict, dist) == \
        write_outcome(per_entry_space_dict, dist)


def test_load_entry_reports_validator_violations():
    d = {"format": "coarsedim/1", "kind": "space", "name": "bad",
         "points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}
    ws = Workspace()
    kind, name, obj, violations = load_entry(parse_document(dumps(d)), ws)
    assert any(v.kind == "symmetry" for v in violations)
    assert not ws.has("space", "bad")


@pytest.mark.parametrize("kind, field, value, message", [
    ("group", "elements", None, "group file is missing 'elements'"),
    ("decomposition", "r", "zz", "bad scalar 'zz'"),
    ("space", "dist", 5, "bad space: 'int' object is not iterable"),
], ids=["missing-key", "bad-scalar", "wrong-type"])
def test_load_entry_reports_a_malformed_field_once(kind, field, value, message):
    fx = fixtures()
    d = {"group": group_to_dict(fx["group"]),
         "decomposition": decomposition_to_dict(fx["decomp"]),
         "space": space_to_dict(fx["space"])}[kind]
    if value is None:
        del d[field]
    else:
        d[field] = value
    with pytest.raises(FormatError) as info:
        load_entry(d, seeded_workspace(fx))
    assert str(info.value) == message


def test_load_entry_leaves_a_validator_fault_alone(monkeypatch):
    def broken(m):
        raise TypeError("fault in the validator")
    monkeypatch.setattr(formats, "validate_metric", broken)
    with pytest.raises(TypeError, match="fault in the validator"):
        load_entry(space_to_dict(path_space(3)), Workspace())


def test_load_entry_needs_references_loaded_first():
    fx = fixtures()
    d = action_to_dict(fx["action"])
    with pytest.raises(ResolutionError):
        load_entry(d, Workspace())


def test_sspace_tolerates_equal_preloaded_space():
    fx = fixtures()
    ws = Workspace()
    ws.add("space", "P5", fx["space"])
    ws.add("space", "C4", cycle_space(4))
    ws.add("space", "U", fx["union"].assembled)
    kind, name, obj, violations = load_entry(sspace_to_dict(fx["union"]), ws)
    assert violations == []
    # but a disagreeing space of the same name is an error
    ws2 = Workspace()
    ws2.add("space", "P5", fx["space"])
    ws2.add("space", "C4", cycle_space(4))
    ws2.add("space", "U", path_space(9))
    with pytest.raises(FormatError):
        load_entry(sspace_to_dict(fx["union"]), ws2)


def test_workspace_duplicates_and_misses():
    ws = Workspace()
    ws.add("space", "P5", path_space(5))
    with pytest.raises(FormatError):
        ws.add("space", "P5", path_space(5))
    with pytest.raises(ResolutionError) as err:
        ws.get("space", "Q")
    assert "no space named 'Q' is loaded" in str(err.value)
    ws.add("space", "A", path_space(3))
    assert ws.names("space") == ["A", "P5"]
    assert ws.names("group") == []
