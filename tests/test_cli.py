"""End-to-end command-line flows: every subcommand, every exit code, and
byte-identical reruns."""

import argparse
import json
import pathlib

import pytest

import coarsedim.cli
import coarsedim.estimation
import coarsedim.groups
from coarsedim.cli import _build_parser, main
from coarsedim.errors import InternalInvariantError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = [line for line in captured.out.splitlines() if line]
    err = [json.loads(line) for line in captured.err.splitlines() if line]
    return code, out, err


def generate_path_instance(tmp_path, capsys, n=5):
    code, out, _ = run(capsys, "generate", "--kind", "path",
                       "--params", f"n={n}", "--out", str(tmp_path))
    assert code == 0
    return [line for line in out]


def test_generate_writes_space_group_action(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    names = sorted(f.rsplit("/", 1)[-1] for f in files)
    assert names == ["P5.space.json", "P5_reflect.action.json", "Z2.group.json"]
    for f in files:
        d = json.loads(open(f).read())
        assert d["format"] == "coarsedim/1"
    code, _, _ = run(capsys, "validate", *files)
    assert code == 0


def test_generate_other_kinds(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--kind", "cycle",
                       "--params", "n=4,action=none", "--out", str(tmp_path))
    assert code == 0 and len(out) == 1 and out[0].endswith("C4.space.json")
    code, out, _ = run(capsys, "generate", "--kind", "grid",
                       "--params", "w=2,h=2", "--out", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "generate", "--kind", "random",
                       "--params", "n=6", "--seed", "3", "--out", str(tmp_path))
    assert code == 0 and out[0].endswith("random6s3.space.json")
    code, _, err = run(capsys, "generate", "--kind", "path",
                       "--params", "n", "--out", str(tmp_path))
    assert code == 1 and err[0]["error"] == "validation"
    code, out, err = run(capsys, "generate", "--kind", "random",
                         "--params", "p=1/0", "--out", str(tmp_path))
    assert (code, out) == (1, [])
    assert err == [{"error": "validation",
                    "message": "parameter 'p' must be a fraction, got '1/0'"}]
    code, out, err = run(capsys, "generate", "--kind", "random",
                         "--params", "p=2", "--out", str(tmp_path))
    assert (code, out) == (1, [])
    assert err == [{"error": "validation",
                    "message": "parameter 'p' must be in [0, 1], got '2'"}]
    code, out, err = run(capsys, "generate", "--kind", "cayley-ball",
                         "--params", "n=5,gens=1+,radius=1", "--out", str(tmp_path))
    assert (code, out) == (1, [])
    assert err == [{"error": "validation", "message":
                    "parameter 'gens' must be integers joined by '+', got '1+'"}]
    code, out, _ = run(capsys, "generate", "--kind", "cayley-ball",
                       "--params", "n=12,gens=1+5,radius=2", "--out", str(tmp_path))
    assert code == 0 and len(out) == 1 and out[0].endswith("cayley12r2.space.json")
    assert len(json.loads(pathlib.Path(out[0]).read_text())["points"]) == 10
    assert run(capsys, "validate", out[0]) == (0, [], [])
    code, out, err = run(capsys, "generate", "--kind", "cayley-ball",
                         "--params", "n=12,radius=2", "--out", str(tmp_path / "x"))
    assert (code, out) == (1, [])
    assert err == [{"error": "validation",
                    "message": "cayley-ball needs gens, e.g. gens=1+5"}]
    for kind, params, message in (
            ("grid", "W=5", "unknown parameter 'W' for grid; it takes w, h"),
            ("path", "n=3,zz=4", "unknown parameter 'zz' for path; it takes n"),
            ("cycle", "n=5,action=reflection,shift=2",
             "parameter 'shift' needs action=rotation, got action=reflection"),
            ("cycle", "n=5,action=none,shift=3",
             "parameter 'shift' needs action=rotation, got action=none"),
            ("cycle", "n=5,n=7", "--params names 'n' twice"),
            ("grid", "w=3, h=4,h=4", "--params names 'h' twice")):
        code, out, err = run(capsys, "generate", "--kind", kind,
                             "--params", params, "--out", str(tmp_path / "rejected"))
        assert (code, out) == (1, [])
        assert err == [{"error": "validation", "message": message}]
        assert not (tmp_path / "rejected").exists()


def test_quotient_flow(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "quotient", *files, "--out", str(tmp_path))
    assert code == 0
    assert out[0].endswith("P5_mod_Z2.space.json")
    d = json.loads(open(out[0]).read())
    assert len(d["points"]) == 3
    code, _, _ = run(capsys, "validate", out[0])
    assert code == 0


def test_validate_is_order_independent(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    action_first = sorted(files, key=lambda f: ".action." not in f)
    assert ".action." in action_first[0]
    code, _, _ = run(capsys, "validate", *action_first)
    assert code == 0


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.space.json"
    bad.write_text(json.dumps({
        "format": "coarsedim/1", "kind": "space", "name": "bad",
        "points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err[0]["error"] == "validation"
    assert any(v["kind"] == "symmetry" for v in err[0]["violations"])


def test_loader_reports_violations_whole_or_raises_them(tmp_path, capsys):
    # d(a,c) = 5 across two unit steps: two triangle violations, one each way
    tri = tmp_path / "tri.space.json"
    tri.write_text(json.dumps({
        "format": "coarsedim/1", "kind": "space", "name": "tri",
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}))
    violations = [
        {"kind": "triangle", "subject": [0, 1, 2], "message": "d(a,c) = 5 > 1 + 1 via b"},
        {"kind": "triangle", "subject": [2, 1, 0], "message": "d(c,a) = 5 > 1 + 1 via b"}]
    # validate collects: one record naming the file, the kind and the object
    assert run(capsys, "validate", str(tri)) == (1, [], [{
        "error": "validation", "message": "space 'tri' failed validation",
        "file": str(tri), "kind": "space", "name": "tri", "violations": violations}])
    # every other command raises at the first failure and writes nothing
    assert run(capsys, "estimate", str(tri), "--R", "1",
               "--out", str(tmp_path / "out")) == (1, [], [{
        "error": "validation",
        "message": f"space 'tri' in {tri} failed validation",
        "violations": violations}])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    ({"action": "C4_rot2"}, "bad certificate: action 'C4_rot2' does not act on "
                            "the space of cover 'P5_mod_Z2_exact_R1_B4_lifted'"),
    ({"meet_radius": "inf"}, "bad certificate: meet_radius must be an int or "
                             "Fraction, got inf"),
], ids=["action-elsewhere", "inexact-meet-radius"])
def test_validate_reports_a_bad_certificate_and_goes_on(tmp_path, capsys,
                                                        edit, message):
    files = generate_path_instance(tmp_path, capsys)
    code, cycle, _ = run(capsys, "generate", "--kind", "cycle", "--params", "n=4",
                         "--out", str(tmp_path / "cycle"))
    assert code == 0
    code, out, _ = run(capsys, "quotient", *files, "--out", str(tmp_path))
    qspace = out[0]
    code, out, _ = run(capsys, "estimate", qspace, "--R", "1",
                       "--out", str(tmp_path))
    qcover = out[0]
    code, lifted, _ = run(capsys, "lift", *files, qspace, qcover, "--R", "1",
                          "--out", str(tmp_path / "lift"))
    assert code == 0
    cert = json.loads(pathlib.Path(lifted[2]).read_text())
    bad = tmp_path / "bad.certificate.json"
    bad.write_text(json.dumps({**cert, "name": "bad", **edit}))
    trace = json.loads(pathlib.Path(lifted[1]).read_text())
    del trace["members"][0]["pieces"]
    broken = tmp_path / "broken.lift_trace.json"
    broken.write_text(json.dumps({**trace, "name": "broken"}))
    inputs = [*files, cycle[0], cycle[2], qspace, qcover, *lifted]
    assert run(capsys, "validate", *inputs)[0] == 0
    assert run(capsys, "validate", *inputs, str(bad), str(broken)) == (1, [], [
        {"error": "format", "message": message, "file": str(bad)},
        {"error": "format", "message": "lift_trace file is missing 'pieces'",
         "file": str(broken)}])


def test_validate_reports_malformed_nested_fields(tmp_path, capsys):
    head = {"format": "coarsedim/1", "name": "bad"}
    docs = {
        "noscale.profile.json": {
            **head, "kind": "profile", "family_dimension": [0],
            "family_mesh": ["1"],
            "spaces": [{"space": "P5", "entries": [{"method": "exact"}]}]},
        "listentry.profile.json": {
            **head, "kind": "profile", "family_dimension": [0],
            "family_mesh": ["1"], "spaces": [{"space": "P5", "entries": [[]]}]},
        "nopieces.lift_trace.json": {
            **head, "kind": "lift_trace", "R": "1", "s": "1",
            "members": [{"member": [0], "fiber": [0], "basepoint": 0}]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    files = [str(tmp_path / name) for name in docs]
    code, _, err = run(capsys, "validate", *files)
    assert code == 1
    assert [(rec["error"], rec["file"]) for rec in err] == \
        [("format", f) for f in files]
    assert err[0]["message"] == "profile file is missing 'scale'"
    assert err[2]["message"] == "lift_trace file is missing 'pieces'"


@pytest.mark.parametrize("kind, field, value", [
    ("space", "dist", 5),
    ("space", "dist", [7]),
    ("action", "perm", 5),
    ("sspace", "components", 5),
    ("sspace", "weights", 5),
])
def test_validate_reports_a_wrong_type_field_and_goes_on(tmp_path, capsys,
                                                         kind, field, value):
    files = generate_path_instance(tmp_path, capsys)
    space, group, action = (next(f for f in files if f".{k}." in f)
                            for k in ("space", "group", "action"))
    good = {"action": json.loads(pathlib.Path(action).read_text()),
            "space": json.loads(pathlib.Path(space).read_text()),
            "sspace": {"format": "coarsedim/1", "kind": "sspace", "name": "U",
                       "components": ["P5"], "basepoints": [[2]],
                       "weights": ["5"]}}[kind]
    bad = tmp_path / f"bad.{kind}.json"
    bad.write_text(json.dumps({**good, "name": "bad", field: value}))
    code, _, err = run(capsys, "validate", space, group, str(bad), space)
    assert code == 1
    assert sorted((rec["error"], rec["file"], rec["message"].split(":")[0])
                  for rec in err) == \
        sorted([("format", str(bad), f"bad {kind}"),
                ("format", space, "duplicate space named 'P5'")])


@pytest.mark.parametrize("kind, fields, message", [
    ("space", {"points": ["a", "b"], "dist": ["03", "30"]},
     "bad space: each row of dist must be an array, got '03'"),
    ("space", {"points": "ab", "dist": [["0", "3"], ["3", "0"]]},
     "space 's': points is not as its object writes it"),
    ("group", {"elements": "ab", "mul": [[0, 1], [1, 0]]},
     "group 's': elements is not as its object writes it"),
], ids=["space-dist-rows", "space-points", "group-elements"])
def test_a_string_where_an_array_belongs_is_a_bad_file(tmp_path, capsys,
                                                       kind, fields, message):
    # A string is a sequence too: read character by character, each of
    # these would load as a 2-point space or a 2-element group.
    bad = tmp_path / f"s.{kind}.json"
    bad.write_text(json.dumps({"format": "coarsedim/1", "kind": kind, "name": "s",
                               **fields}))
    assert run(capsys, "validate", str(bad)) == \
        (1, [], [{"error": "format", "message": message, "file": str(bad)}])
    if kind == "space":
        code, out, err = run(capsys, "estimate", str(bad), "--R", "1",
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (1, [])
        assert err == [{"error": "validation", "message": message}]
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, fields, message", [
    ("sspace", {"name": "U", "components": ["P5"], "basepoints": [[2]], "weights": "5"},
     "sspace 'U': weights is not as its object writes it"),
    ("space", {"name": "s", "points": [1, True], "dist": [["0", "1"], ["1", "0"]]},
     "space 's': points is not as its object writes it"),
    ("space", {"name": "s", "points": ["a", "b"], "dist": [["0/1", "1"], ["1", "0"]]},
     "bad scalar '0/1'"),
    ("space", {"name": "s", "points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]],
               "note": "x"},
     "space 's': note is not as its object writes it"),
    ("cover", {"name": "c", "space": "P5", "members": [[0, 1, 1, 2], [2, 3, 4]]},
     "cover 'c': members is not as its object writes it"),
    ("cover", {"name": "c", "space": "P5", "members": [[2, 1, 0], [2, 3, 4]]},
     "cover 'c': members is not as its object writes it"),
], ids=["sspace-weights-string", "space-points-not-strings", "scalar-not-lowest-terms",
        "extra-key", "member-repeats-a-point", "member-unsorted"])
def test_a_document_its_object_writes_otherwise_is_a_bad_file(tmp_path, capsys,
                                                               kind, fields, message):
    # Each of these loaded as some other object (the points "1" and "True",
    # a Fraction table, a sorted member), so writing it back changed its bytes.
    files = generate_path_instance(tmp_path, capsys)
    bad = tmp_path / f"bad.{kind}.json"
    bad.write_text(json.dumps({"format": "coarsedim/1", "kind": kind, **fields}))
    assert run(capsys, "validate", *files, str(bad)) == \
        (1, [], [{"error": "format", "message": message, "file": str(bad)}])


def _edit(*keys_and_value):
    """An edit that sets the value at a path of keys and indices."""
    *keys, value = keys_and_value

    def edit(d):
        for key in keys[:-1]:
            d = d[key]
        d[keys[-1]] = value
    return edit


# Each edit leaves the document as its object writes it, so only the index
# rule, the count rule or the trace's references can refuse it: (kind of
# the edited document, edit, error, message).  Each validates at exit 0 when
# neither the index, the count nor the reference is checked.
INDEX_AND_COUNT_EDITS = {
    "perm-row-with-a-bool": (
        "action", _edit("perm", "0", [0, True, 2, 3, 4]), "format",
        "bad action: an image under '0' must be an int in range(5), got True"),
    "perm-row-with-a-float": (
        "action", _edit("perm", "1", [4, 3, 2, 1.0, 0]), "format",
        "bad action: an image under '1' must be an int in range(5), got 1.0"),
    "certificate-dimension-false": (
        "certificate", _edit("dimension", False), "format",
        "bad certificate: dimension must be a nonnegative int, got False"),
    "certificate-ball-meet-float": (
        # the largest number of members an open 2-ball meets is 3
        "certificate", lambda d: d.update(meet_radius="2", ball_meet=3.0), "format",
        "bad certificate: ball_meet must be a nonnegative int, got 3.0"),
    "certificate-equivariant-one": (
        "certificate", _edit("equivariant", 1), "format",
        "bad certificate: equivariant must be a bool or None, got 1"),
    "infeasible-point-string": (
        "profile", _edit("spaces", 0, "entries", 1, "infeasible", "point", "x"), "format",
        "bad profile: an infeasible record's point must be a nonnegative int, got 'x'"),
    "infeasible-message-number": (
        "profile", _edit("spaces", 0, "entries", 1, "infeasible", "message", 5), "format",
        "bad profile: an infeasible record's message must be a str, got 5"),
    "trace-basepoint-string": (
        "lift_trace", _edit("members", 0, "basepoint", "zz"), "format",
        "bad lift_trace: a basepoint must be an int in range(5), got 'zz'"),
    "trace-rep-true": (
        "lift_trace", _edit("members", 0, "pieces", 0, "rep", True), "format",
        "bad lift_trace: a piece's coset representative must be an int in range(2), "
        "got True"),
    "trace-action-missing": (
        "lift_trace", _edit("action", "nosuch"), "resolution",
        "no action named 'nosuch' is loaded"),
    "trace-covers-missing": (
        "lift_trace", lambda d: d.update(cover="nosuch", source_cover="alsonot",
                                         name="nosuch_trace"), "resolution",
        "no cover named 'alsonot' is loaded"),
}


@pytest.mark.parametrize("kind, edit, error, message", INDEX_AND_COUNT_EDITS.values(),
                         ids=INDEX_AND_COUNT_EDITS)
def test_a_bad_index_count_or_trace_action_is_refused(tmp_path, capsys,
                                                        kind, edit, error, message):
    files = generate_path_instance(tmp_path / "inputs", capsys)
    code, lifted, _ = run(capsys, "equivariant-cover", *files, "--R", "1",
                          "--out", str(tmp_path / "lift"))
    assert code == 0
    # scale 5 under mesh bound 1 is infeasible: entry 1 holds the record
    code, profile, _ = run(capsys, "profile", *files, "--action", "P5_reflect",
                           "--scales", "1,5", "--mesh-bounds", "2,1", "--mode", "exact",
                           "--out", str(tmp_path / "profile"))
    assert code == 0
    # an edited action is validated with its space and group alone, as
    # every output depends on it
    docs = files if kind == "action" else [*files, *lifted, profile[0]]
    assert run(capsys, "validate", *docs)[0] == 0
    path = next(p for p in docs if p.endswith(f".{kind}.json"))
    d = json.loads(pathlib.Path(path).read_text())
    edit(d)
    pathlib.Path(path).write_text(json.dumps(d))
    assert run(capsys, "validate", *docs) == (
        {"format": 1, "resolution": 2}[error], [],
        [{"error": error, "message": message, "file": path}])


def _swap(*keys_and_indices):
    """An edit that swaps two items of the list at a path of keys."""
    *keys, i, j = keys_and_indices

    def edit(d):
        for key in keys:
            d = d[key]
        d[i], d[j] = d[j], d[i]
    return edit


# Edits that leave a lift trace of P9 under its reflection at R=1 canonical
# and every index in range, so only the lift's own rules or the covers the
# trace names refuse them: (B, edit, message).  At B=0 the source cover has
# 5 singleton members, so s = 1; member 0 names orbit {0, 8}, split into [0]
# with subgroup [0] and [8].  At B=3 the source cover has Lebesgue number 1
# and mesh 3, so s = 3 for every R up to 3, and only the lift's
# preconditions on R refuse an edited R.
MEMBERS_DIFFER = ("lift_trace 'P9_mod_Z2_exact_R1_B0_lifted_trace': members is not "
                  "as its object writes it")
TRACE_EDITS = {
    "entries-swapped": (0, _swap("members", 0, 1), MEMBERS_DIFFER),
    "an-entry-short": (0, lambda d: d["members"].pop(), MEMBERS_DIFFER),
    "pieces-swapped": (0, _swap("members", 0, "pieces", 0, 1), MEMBERS_DIFFER),
    "s-not-the-lift's": (
        0, _edit("s", "99"),
        "lift_trace 'P9_mod_Z2_exact_R1_B0_lifted_trace': s is not as its object "
        "writes it"),
    "fiber-not-its-orbits": (0, _edit("members", 0, "fiber", [0]), MEMBERS_DIFFER),
    "basepoint-not-least": (0, _edit("members", 0, "basepoint", 8), MEMBERS_DIFFER),
    "piece-outside-the-fiber": (
        0, _edit("members", 0, "pieces", 0, "piece", [5, 6, 7]), MEMBERS_DIFFER),
    "pieces-overlap": (
        0, _edit("members", 0, "pieces", 1, "piece", [0, 8]), MEMBERS_DIFFER),
    "pieces-short-of-the-fiber": (
        0, _edit("members", 0, "pieces", 1, "piece", [0]), MEMBERS_DIFFER),
    "subgroup-not-the-displacement-subgroup": (
        0, _edit("members", 0, "pieces", 0, "subgroup", [0, 1]), MEMBERS_DIFFER),
    "rep-not-the-coset's": (
        0, _edit("members", 0, "pieces", 1, "rep", 0), MEMBERS_DIFFER),
    "source-is-the-lifted-cover": (
        0, _edit("source_cover", "P9_mod_Z2_exact_R1_B0_lifted"),
        "bad lift_trace: cover 'P9_mod_Z2_exact_R1_B0_lifted' does not live on the "
        "quotient of 'P9_reflect'"),
    "R-above-the-lebesgue-number": (
        3, _edit("R", "3"), "bad lift_trace: cover has Lebesgue number 1, below the "
        "target 3"),
    "R-zero": (3, _edit("R", "0"), "bad lift_trace: R must be positive, got 0"),
    "R-negative": (3, _edit("R", "-5"), "bad lift_trace: R must be positive, got -5"),
    "lifted-is-the-source-cover": (
        0, _edit("cover", "P9_mod_Z2_exact_R1_B0"),
        "bad lift_trace: the members of 'P9_mod_Z2_exact_R1_B0' are not the trace's "
        "pieces, in order"),
}


@pytest.mark.parametrize("B, edit, message", TRACE_EDITS.values(), ids=TRACE_EDITS)
def test_a_lift_trace_that_is_not_the_lift_is_refused(tmp_path, capsys, B, edit, message):
    files = generate_path_instance(tmp_path / "inputs", capsys, n=9)
    code, lifted, _ = run(capsys, "equivariant-cover", *files, "--R", "1", "--B", str(B),
                          "--out", str(tmp_path / "lift"))
    assert code == 0
    docs = [*files, *lifted]
    assert run(capsys, "validate", *docs)[0] == 0
    path = next(p for p in docs if p.endswith(".lift_trace.json"))
    d = json.loads(pathlib.Path(path).read_text())
    edit(d)
    pathlib.Path(path).write_text(json.dumps(d))
    assert run(capsys, "validate", *docs) == (
        1, [], [{"error": "format", "message": message, "file": path}])


def test_validate_reports_an_unhashable_kind_and_goes_on(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "coarsedim/1", "kind": [7], "name": "x"}))
    code, _, err = run(capsys, "validate", space, str(bad), space)
    assert code == 1
    assert [(rec["error"], rec.get("file"), rec["message"]) for rec in err] == [
        ("format", str(bad), "unknown kind [7]"),
        ("format", space, "duplicate space named 'P5'")]


def test_validate_missing_file_wins_over_validation(tmp_path, capsys):
    bad = tmp_path / "bad.space.json"
    bad.write_text(json.dumps({
        "format": "coarsedim/1", "kind": "space", "name": "bad",
        "points": ["a"], "dist": [["1"]]}))
    code, _, err = run(capsys, "validate", str(bad), str(tmp_path / "absent.json"))
    assert code == 2
    assert {rec["error"] for rec in err} == {"validation", "resolution"}


def test_validate_reports_a_file_that_is_not_utf8_and_goes_on(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    absent = str(tmp_path / "nothere.json")
    code, _, err = run(capsys, "validate", str(bad), space, absent)
    assert code == 2
    assert [(rec["error"], rec.get("file")) for rec in err] == [
        ("format", str(bad)), ("resolution", absent)]
    assert err[0]["message"].startswith("not UTF-8 text: ")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert [(rec["error"], rec.get("file")) for rec in err] == [("format", str(bad))]


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "quotient", str(tmp_path / "nowhere.json"),
                       "--out", str(tmp_path))
    assert code == 2
    assert err[0]["error"] == "resolution"


def test_unresolved_reference_exits_two(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    action = next(f for f in files if ".action." in f)
    group = next(f for f in files if ".group." in f)
    code, _, err = run(capsys, "quotient", action, group, "--out", str(tmp_path))
    assert code == 2
    assert "no space named 'P5'" in err[0]["message"]


def test_estimate_writes_cover_and_certificate(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    code, out, _ = run(capsys, "estimate", space, "--R", "1", "--B", "2",
                       "--out", str(tmp_path))
    assert code == 0
    assert out[0].endswith("P5_exact_R1_B2.cover.json")
    assert out[1].endswith("P5_exact_R1_B2_cert.certificate.json")
    cert = json.loads(open(out[1]).read())
    assert cert["dimension"] == 0
    # the written pair validates as a unit, certificate recomputation included
    code, _, _ = run(capsys, "validate", space, out[0], out[1])
    assert code == 0


def test_exact_estimate_measures_its_cover_once(tmp_path, capsys, lebesgue_calls):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    code, out, _ = run(capsys, "estimate", space, "--R", "1", "--mode", "exact",
                       "--out", str(tmp_path))
    assert code == 0
    # the search certifies its answer; the command reuses that certificate
    assert lebesgue_calls == ["P5_exact_R1_B4"]


def test_estimate_infeasible_exits_three(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    code, out, err = run(capsys, "estimate", space, "--R", "5", "--B", "1",
                         "--out", str(tmp_path))
    assert code == 3
    assert out == []
    assert err[0]["error"] == "infeasible"
    assert err[0]["point"] == "0"


def test_infeasible_record_names_the_point(tmp_path, capsys):
    # both commands name the point, not its index: for equivariant-cover it
    # is the quotient point, named after its orbit's representative
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    for argv in (["estimate", space], ["equivariant-cover", *files]):
        code, out, err = run(capsys, *argv, "--R", "5", "--B", "1",
                             "--out", str(tmp_path / "x"))
        assert (code, out) == (3, [])
        assert err[0]["error"] == "infeasible"
        assert err[0]["point"] == "0"


def test_infeasible_equivariant_cover_builds_one_quotient(tmp_path, capsys,
                                                         monkeypatch):
    files = generate_path_instance(tmp_path, capsys, n=9)
    calls = []
    original = coarsedim.groups.quotient

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    for module in (coarsedim.groups, coarsedim.estimation, coarsedim.cli):
        monkeypatch.setattr(module, "quotient", counting)
    code, out, err = run(capsys, "equivariant-cover", *files, "--R", "5",
                         "--B", "1", "--out", str(tmp_path / "x"))
    assert (code, out) == (3, [])
    assert err == [{"error": "infeasible", "point": "0", "message":
                    "the open 5-ball around 0 has diameter 4, above the mesh bound 1"}]
    assert calls == ["P9_reflect"]


def test_each_writing_command_creates_out_once(tmp_path, capsys, monkeypatch):
    files = generate_path_instance(tmp_path, capsys, n=9)
    space = next(f for f in files if ".space." in f)
    made = []
    real_mkdir = pathlib.Path.mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "mkdir", counting_mkdir)
    cases = [
        (["generate", "--kind", "path", "--params", "n=5"], 0, 1),
        (["estimate", space, "--R", "1", "--B", "2"], 0, 1),
        (["estimate", space, "--R", "5", "--B", "1"], 3, 0),
        (["equivariant-cover", *files, "--R", "1"], 0, 1),
        (["profile", *files, "--scales", "1,2", "--max-points", "16"], 0, 1),
        (["estimate", space, "--R", "0"], 1, 0),
    ]
    for i, (argv, code, calls) in enumerate(cases):
        out = tmp_path / f"out{i}"
        made.clear()
        assert run(capsys, *argv, "--out", str(out))[0] == code, argv
        assert made == [out] * calls, argv
        assert out.exists() == bool(calls), argv


def test_estimate_greedy_mode(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys, n=21)
    space = next(f for f in files if ".space." in f)
    code, out, _ = run(capsys, "estimate", space, "--R", "2",
                       "--out", str(tmp_path))
    assert code == 0
    assert out[0].endswith("P21_greedy_R2.cover.json")


def test_estimate_rejects_float_scale(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    code, _, err = run(capsys, "estimate", space, "--R", "1.5",
                       "--out", str(tmp_path))
    assert code == 1
    assert "--R" in err[0]["message"]


def test_scalar_flag_message_lists_what_it_accepts(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    code, out, err = run(capsys, "estimate", space, "--R", "zz",
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, [])
    assert err == [{"error": "validation",
                    "message": "--R must be an integer or fraction p/q in lowest terms, "
                               "got 'zz'"}]


@pytest.mark.parametrize("max_points", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["estimate", "--R", "2", "--B", "4"],
    ["estimate", "--R", "2", "--B", "4", "--mode", "exact"],
    ["estimate", "--R", "2", "--B", "4", "--mode", "greedy"],
    ["equivariant-cover", "--R", "2"],
    ["profile", "--scales", "1,2"],
], ids=["estimate", "estimate-exact", "estimate-greedy", "equivariant-cover",
        "profile"])
def test_max_points_below_one_is_rejected(tmp_path, capsys, argv, max_points):
    files = generate_path_instance(tmp_path / "in", capsys, n=9)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, *files, "--max-points", max_points,
                         "--out", str(out_dir))
    assert (code, out) == (1, [])
    assert err == [{"error": "validation",
                    "message": f"max_points must be at least 1, got {max_points}"}]
    assert not out_dir.exists()


def test_estimate_ambiguous_space_exits_two(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    code, out, _ = run(capsys, "generate", "--kind", "cycle",
                       "--params", "n=4,action=none", "--out", str(tmp_path))
    other = out[0]
    code, _, err = run(capsys, "estimate", space, other, "--R", "1",
                       "--out", str(tmp_path))
    assert code == 2
    assert "--space" in err[0]["message"]
    code, _, _ = run(capsys, "estimate", space, other, "--R", "1",
                     "--space", "C4", "--out", str(tmp_path))
    assert code == 0


def test_pushforward_flow(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)
    code, out, _ = run(capsys, "estimate", space, "--R", "1", "--B", "2",
                       "--out", str(tmp_path))
    cover = out[0]
    code, out, _ = run(capsys, "pushforward", *files, cover,
                       "--out", str(tmp_path))
    assert code == 0
    assert len(out) == 3
    assert out[1].endswith("P5_exact_R1_B2_pushed.cover.json")
    code, _, _ = run(capsys, "validate", *files, *out[:2], out[2])
    assert code == 0


def test_lift_flow(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "quotient", *files, "--out", str(tmp_path))
    qspace = out[0]
    code, out, _ = run(capsys, "estimate", qspace, "--R", "1",
                       "--out", str(tmp_path))
    qcover = out[0]
    code, out, _ = run(capsys, "lift", *files, qspace, qcover, "--R", "1",
                       "--out", str(tmp_path))
    assert code == 0
    assert len(out) == 3
    assert ".cover.json" in out[0]
    assert ".lift_trace.json" in out[1]
    assert ".certificate.json" in out[2]
    cert = json.loads(open(out[2]).read())
    assert cert["equivariant"] is True
    # the lifted cover covers the original space and validates with everything
    code, _, _ = run(capsys, "validate", *files, qspace, qcover, *out)
    assert code == 0


def test_equivariant_cover_pipeline_flow(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "equivariant-cover", *files, "--R", "1",
                       "--out", str(tmp_path))
    assert code == 0
    assert len(out) == 5
    code, _, _ = run(capsys, "validate", *files, *out)
    assert code == 0
    # infeasibility propagates as exit 3
    code, out, err = run(capsys, "equivariant-cover", *files, "--R", "5",
                         "--B", "1", "--out", str(tmp_path / "x"))
    assert code == 3
    assert err[0]["error"] == "infeasible"


@pytest.mark.parametrize("kind, params, mode", [
    ("path", "n=9", "exact"), ("grid", "w=4,h=5", "greedy")])
def test_lift_of_the_pipeline_quotient_cover_writes_the_same_files(
        tmp_path, capsys, kind, params, mode):
    # equivariant-cover always estimates; lift --cover lifts a cover the
    # caller has, and given the pipeline's own quotient cover it agrees.
    code, files, _ = run(capsys, "generate", "--kind", kind, "--params", params,
                         "--out", str(tmp_path))
    assert code == 0
    code, piped, _ = run(capsys, "equivariant-cover", *files, "--R", "1",
                         "--mode", mode, "--out", str(tmp_path / "pipeline"))
    assert code == 0 and len(piped) == 5
    qspace, qcover = piped[:2]
    qname = json.loads(pathlib.Path(qcover).read_text())["name"]
    code, lifted, _ = run(capsys, "lift", *files, qspace, qcover,
                          "--cover", qname, "--R", "1",
                          "--out", str(tmp_path / "lift"))
    assert code == 0
    assert ([pathlib.Path(f).name for f in lifted]
            == [pathlib.Path(f).name for f in piped[2:]])
    for ours, theirs in zip(lifted, piped[2:]):
        assert pathlib.Path(ours).read_bytes() == pathlib.Path(theirs).read_bytes()


def test_sspace_flow(tmp_path, capsys):
    generate_path_instance(tmp_path, capsys)
    run(capsys, "generate", "--kind", "cycle", "--params", "n=4,action=none",
        "--out", str(tmp_path))
    union = tmp_path / "U.sspace.json"
    union.write_text(json.dumps({
        "format": "coarsedim/1", "kind": "sspace", "name": "U",
        "components": ["P5", "C4"], "basepoints": [[2], [0, 2]],
        "weights": ["5", "6"]}, indent=2) + "\n")
    parts = [str(tmp_path / "P5.space.json"), str(tmp_path / "C4.space.json")]
    code, out, _ = run(capsys, "sspace", *parts, str(union),
                       "--out", str(tmp_path))
    assert code == 0
    assert out[0].endswith("U.space.json")
    d = json.loads(open(out[0]).read())
    assert len(d["points"]) == 9
    assert d["points"][0] == "0/0"
    # the assembled space file coexists with the sspace document
    code, _, _ = run(capsys, "validate", *parts, out[0], str(union))
    assert code == 0
    # and the assembled space is directly usable downstream
    code, out, _ = run(capsys, "estimate", *parts, str(union), "--space", "U",
                       "--R", "1", "--out", str(tmp_path))
    assert code == 0


def test_profile_flow(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys, n=9)
    code, out, _ = run(capsys, "profile", *files, "--space", "P9",
                       "--action", "P9_reflect", "--scales", "1,2",
                       "--mesh-bounds", "2,4", "--max-points", "16",
                       "--name", "fam", "--out", str(tmp_path))
    assert code == 0
    assert out[0].endswith("fam.profile.json")
    assert out[1].endswith("fam.profile.csv")
    d = json.loads(open(out[0]).read())
    relations = [rep["relation"] for rep in d["comparisons"]]
    assert relations == ["equal", "drop"]
    csv_lines = open(out[1]).read().splitlines()
    assert csv_lines[0].startswith("space,scale,mesh_bound")
    assert len(csv_lines) == 3
    code, _, _ = run(capsys, "validate", out[0])
    assert code == 0
    # bad scales are a validation failure, not a crash
    code, _, err = run(capsys, "profile", *files, "--scales", "0",
                       "--out", str(tmp_path))
    assert code == 1


def test_profile_csv_keeps_each_action_on_its_own_rows(tmp_path, capsys):
    # One space profiled under two actions: each row pair must carry its own
    # action's quotient, as the JSON does.
    inputs = tmp_path / "inputs"
    for shift in (6, 3):
        code, _, _ = run(capsys, "generate", "--kind", "cycle",
                         "--params", f"n=12,shift={shift}", "--out", str(inputs))
        assert code == 0
    code, out, _ = run(capsys, "profile", *sorted(map(str, inputs.iterdir())),
                       "--space", "C12", "--action", "C12_rot6",
                       "--space", "C12", "--action", "C12_rot3",
                       "--scales", "1,2", "--mesh-bounds", "1,2", "--mode", "exact",
                       "--out", str(tmp_path / "out"))
    assert code == 0
    d = json.loads(open(out[0]).read())
    assert [(e["dimension"], e["mesh"]) for q in d["quotients"]
            for e in q["entries"]] == [(0, "1"), (2, "2"), (0, "1"), (0, "1")]
    assert [r["relation"] for r in d["comparisons"]] == \
        ["equal", "equal", "equal", "drop"]
    assert open(out[1]).read().splitlines()[1:] == [
        "C12,1,1,exact,0,1,0,1,equal",
        "C12,2,2,exact,2,2,2,2,equal",
        "C12,1,1,exact,0,1,0,1,equal",
        "C12,2,2,exact,2,2,0,1,drop",
    ]


def _first_entry(d, key="spaces"):
    return d[key][0]["entries"][0]


# Each edit leaves a document whose stored values disagree with its entries.
PROFILE_EDITS = {
    "comparison-removed-family-value-added": (
        lambda d: (d["comparisons"].pop(0), d["family_dimension"].append(0)),
        "profile 'profile': family_dimension is not as its object writes it"),
    "comparison-and-family-maximum-rewritten": (
        lambda d: (d["comparisons"][0].update(quotient_dimension=5,
                                              relation="exceeds"),
                   d["family_dimension"].__setitem__(0, 9)),
        "profile 'profile': family_dimension is not as its object writes it"),
    "quotients-emptied": (
        lambda d: d.update(quotients=[]),
        "bad profile: 0 quotient profiles for 1 spaces"),
    "exact-entry-without-mesh-bound": (
        lambda d: _first_entry(d).update(mesh_bound=None),
        "profile 'profile': spaces is not as its object writes it"),
    "quotient-scale-changed": (
        lambda d: d["quotients"][0]["entries"][1].update(scale="3"),
        "bad profile: every profile must have the same scales, in order"),
    "feasible-entry-also-infeasible": (
        lambda d: _first_entry(d, "quotients").update(
            infeasible={"point": 0, "message": "no cover"}),
        "bad profile: the entry at scale 1 must hold either a cover's name, "
        "dimension and mesh or an infeasible record"),
    "unknown-method": (
        lambda d: _first_entry(d).update(method="magic"),
        "profile 'profile': spaces is not as its object writes it"),
}


@pytest.mark.parametrize("edit, message", PROFILE_EDITS.values(),
                         ids=PROFILE_EDITS)
def test_validate_rejects_a_profile_that_disagrees_with_its_entries(
        tmp_path, capsys, edit, message):
    files = generate_path_instance(tmp_path / "inputs", capsys, n=9)
    code, out, _ = run(capsys, "profile", *files, "--action", "P9_reflect",
                       "--scales", "1,2", "--mode", "exact",
                       "--out", str(tmp_path / "out"))
    assert code == 0
    assert run(capsys, "validate", out[0]) == (0, [], [])
    d = json.loads(open(out[0]).read())
    edit(d)
    edited = tmp_path / "edited.profile.json"
    edited.write_text(json.dumps(d))
    code, _, err = run(capsys, "validate", str(edited))
    assert code == 1
    assert err == [{"error": "format", "message": message, "file": str(edited)}]


def _set_dimensions(d, value):
    for entry in d["spaces"][0]["entries"]:
        entry["dimension"] = value
    d["family_dimension"] = [value] * len(d["family_dimension"])


# Each edit keeps the derived keys in step with the entries, so only the
# entries' own types can reject it.
ENTRY_EDITS = {
    "dimension-not-a-number": (
        lambda d: _set_dimensions(d, "x"),
        "bad profile: the dimension at scale 1 must be a nonnegative int, got 'x'"),
    "dimension-negative": (
        lambda d: _set_dimensions(d, -3),
        "bad profile: the dimension at scale 1 must be a nonnegative int, got -3"),
    "dimension-bool": (
        lambda d: _set_dimensions(d, True),
        "bad profile: the dimension at scale 1 must be a nonnegative int, got True"),
    "mesh-negative": (
        lambda d: (_first_entry(d).update(mesh="-1"),
                   d["family_mesh"].__setitem__(0, "-1")),
        "bad profile: the mesh at scale 1 must be >= 0, got -1"),
}


@pytest.mark.parametrize("edit, message", ENTRY_EDITS.values(), ids=ENTRY_EDITS)
def test_validate_rejects_profile_entries_of_the_wrong_type(
        tmp_path, capsys, edit, message):
    files = generate_path_instance(tmp_path / "inputs", capsys, n=9)
    code, out, _ = run(capsys, "profile", *files, "--scales", "1,2",
                       "--mode", "exact", "--out", str(tmp_path / "out"))
    assert code == 0
    d = json.loads(open(out[0]).read())
    edit(d)
    edited = tmp_path / "edited.profile.json"
    edited.write_text(json.dumps(d))
    code, _, err = run(capsys, "validate", str(edited))
    assert code == 1
    assert err == [{"error": "format", "message": message, "file": str(edited)}]


def test_reruns_are_byte_identical(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    code, first, _ = run(capsys, "equivariant-cover", *files, "--R", "1",
                         "--out", str(out1))
    assert code == 0
    code, second, _ = run(capsys, "equivariant-cover", *files, "--R", "1",
                          "--out", str(out2))
    assert code == 0
    for a, b in zip(first, second):
        assert open(a, "rb").read() == open(b, "rb").read()
    # regenerating the inputs reproduces them byte for byte too
    regen = tmp_path / "regen"
    code, files2, _ = run(capsys, "generate", "--kind", "path", "--params",
                          "n=5", "--out", str(regen))
    for a, b in zip(sorted(files), sorted(files2)):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_greedy_reruns_are_byte_identical(tmp_path, capsys):
    code, files, _ = run(capsys, "generate", "--kind", "grid",
                         "--params", "w=12,h=12", "--out", str(tmp_path / "in"))
    assert code == 0
    written = []
    for out in (tmp_path / "one", tmp_path / "two"):
        code, paths, _ = run(capsys, "equivariant-cover", *files, "--mode", "greedy",
                             "--R", "2", "--out", str(out))
        assert code == 0 and len(paths) == 5
        written.append({pathlib.Path(p).name: pathlib.Path(p).read_bytes()
                        for p in paths})
    assert written[0] == written[1]
    cert = json.loads(written[0]["grid12x12_mod_Z2_greedy_R2_lifted_cert.certificate.json"])
    assert (cert["dimension"], cert["equivariant"]) == (3, True)


def test_internal_failure_exits_four(tmp_path, capsys, monkeypatch):
    files = generate_path_instance(tmp_path, capsys)
    space = next(f for f in files if ".space." in f)

    def boom(cover):
        raise InternalInvariantError("postcondition failed")

    monkeypatch.setattr("coarsedim.cli.certify", boom)
    code, _, err = run(capsys, "estimate", space, "--R", "1",
                       "--out", str(tmp_path))
    assert code == 4
    assert err[0]["error"] == "internal"


def test_equivariant_cover_auto_mode_falls_back_to_greedy(tmp_path, capsys):
    files = generate_path_instance(tmp_path, capsys)
    # the quotient P5/Z2 has 3 points, above --max-points 2
    code, out, _ = run(capsys, "equivariant-cover", *files, "--R", "1",
                       "--max-points", "2", "--out", str(tmp_path))
    assert code == 0
    assert out[1].endswith("P5_mod_Z2_greedy_R1.cover.json")


def test_cli_options_match_inventory():
    # Adding or removing a command-line option means editing this list.
    common = ["-h", "--help", "--out"]
    inventory = {
        "validate": ["-h", "--help"],
        "quotient": common + ["--action"],
        "pushforward": common + ["--action", "--cover"],
        "lift": common + ["--action", "--cover", "--R"],
        "equivariant-cover": common + ["--action", "--R", "--B", "--mode",
                                       "--max-points"],
        "sspace": common + ["--name"],
        "estimate": common + ["--space", "--R", "--B", "--mode", "--max-points"],
        "profile": common + ["--space", "--action", "--scales", "--mesh-bounds",
                             "--mode", "--max-points", "--name"],
        "generate": common + ["--kind", "--params", "--seed"],
    }
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"]
    found = {name: sorted(s for a in sp._actions for s in a.option_strings)
             for name, sp in sub.choices.items()}
    assert found == {name: sorted(opts) for name, opts in inventory.items()}
    # Every command but generate reads FILE arguments.
    reads = {name for name, sp in sub.choices.items()
             if any(a.dest == "files" for a in sp._actions)}
    assert reads == set(inventory) - {"generate"}


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # Calls in one process share one parser; repeatable options and defaults
    # must not carry over from one call to the next.
    inputs = tmp_path / "inputs"
    for kind, params in (("path", "n=5"), ("cycle", "n=6")):
        assert main(["generate", "--kind", kind, "--params", params,
                     "--out", str(inputs)]) == 0
    capsys.readouterr()
    files = sorted(str(p) for p in inputs.iterdir())
    calls = [
        ["profile", *files, "--space", "P5", "--action", "P5_reflect",
         "--space", "C6", "--action", "C6_rot3", "--scales", "1,2"],
        ["profile", *files, "--scales", "1", "--name", "all"],
        ["estimate", *files, "--space", "C6", "--R", "1"],
        ["profile", *files, "--scales", "1", "--mode", "exatc"],
        ["profile", *files, "--space", "P5", "--scales", "2"],
    ]

    def run_calls(out):
        record = []
        for i, argv in enumerate(calls):
            target = out / str(i)
            try:
                code = main(argv + ["--out", str(target)])
            except SystemExit as exc:
                code = f"exit {exc.code}"
            captured = capsys.readouterr()
            written = {p.name: p.read_bytes() for p in sorted(target.glob("*"))}
            record.append((code, captured.out.replace(str(out), "OUT"),
                           captured.err, written))
        return record

    assert coarsedim.cli._parser() is coarsedim.cli._parser()
    shared = run_calls(tmp_path / "shared")
    monkeypatch.setattr(coarsedim.cli, "_parser", _build_parser)
    fresh = run_calls(tmp_path / "fresh")
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 0, 0, "exit 2", 0]
    # the second profile covers every loaded space, not the first call's list
    assert b'"P5"' in shared[1][3]["all.profile.json"]
    assert b'"C6"' in shared[1][3]["all.profile.json"]
    assert b'"C6"' not in shared[4][3]["profile.profile.json"]
