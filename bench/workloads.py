"""The three workloads: inputs made from the seed, the ops, their checks.

A workload is one fixed list of ops built from the seed.  The harness in
run.py runs the list over and over ("passes"), timing each op; everything
an op needs that is not the program's own work (clearing its output
directory, copying its input objects) happens in prepare(), outside the
timer, and everything the checks need is read back in collect(), also
outside the timer.

- grid_cli: mid-size spaces through the CLI, building a certified cover and
  then validating inputs plus outputs (the read path) after each build.
- exact_cli: many small exact searches through the CLI, one per case.
- invariant_corpus: many short-lived invariant instances through the
  library: quotient, random cover, pushforward, pipeline, verification.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import shutil
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import checks

LIBRARY_MODULES = ("cli", "formats", "metric", "groups", "covers",
                   "constructions", "estimation", "generators")

ANSWERS_PATH = Path(__file__).with_name("oracle_answers.json")


def import_library() -> SimpleNamespace:
    """Import coarsedim afresh, dropping any earlier import, so that the
    import is part of every measured set-up."""
    for name in [n for n in sys.modules if n == "coarsedim" or n.startswith("coarsedim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"coarsedim.{n}")
                              for n in LIBRARY_MODULES})


def fingerprint(dist) -> str:
    """Identity of a distance table, to tie a stored answer to its space."""
    text = json.dumps([[checks.scalar_text(v) for v in row] for row in dist])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_doc(lib, directory: Path, d: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{d['name']}.{d['kind']}.json"
    path.write_text(lib.formats.dumps(d), encoding="utf-8")
    return path


def manifest_entry(space, path: Path | None) -> dict:
    fraction = any(isinstance(v, Fraction) for row in space.dist for v in row)
    return {"name": space.name, "points": len(space),
            "scalars": "Fraction" if fraction else "int",
            "bytes": path.stat().st_size if path is not None else None}


# ---------------------------------------------------------------- ops

class CliOp:
    """One `coarsedim` command, run in-process through cli.main.

    reads_outputs_of names a directory whose files (another op's outputs)
    are appended to the arguments, as `validate` needs.
    """

    def __init__(self, label, args, out_dir=None, reads_outputs_of=None,
                 check=None, verify=False):
        self.label = label
        self.args = list(args)
        self.out_dir = out_dir
        self.reads_outputs_of = reads_outputs_of
        self.check = check
        self.verify = verify

    def prepare(self, lib):
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = list(self.args)
        if self.reads_outputs_of is not None:
            argv += [str(p) for p in sorted(self.reads_outputs_of.iterdir())]
        if self.out_dir is not None:
            argv += ["--out", str(self.out_dir)]
        return argv

    @staticmethod
    def run(lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue(), argv

    def collect(self, outcome):
        code, out, err, argv = outcome
        files = {}
        if self.out_dir is not None and self.out_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        read = sum(Path(a).stat().st_size for a in argv if a.endswith(".json"))
        return {"code": code, "stdout": out, "stderr": err, "files": files,
                "bytes_read": read, "bytes_written": sum(map(len, files.values()))}


class CorpusOp:
    """One invariant instance through the library, on fresh objects."""

    verify = False

    def __init__(self, label, raw, check):
        self.label = label
        self.raw = raw
        self.check = check

    def prepare(self, lib):
        r = self.raw
        group = lib.groups.FiniteGroup(r["elements"], r["mul"], name=r["group"])
        space = lib.metric.FiniteMetricSpace(r["points"], r["dist"], name=r["name"])
        return lib.groups.IsometricAction(group, space, r["perms"], name=r["action"])

    def run(self, lib, action):
        q = lib.groups.quotient(action)
        cover = lib.generators.random_cover(action.space, self.raw["cover_seed"])
        pushed, pushed_cert = lib.constructions.pushforward_cover(action, q, cover)
        result = lib.estimation.equivariant_cover_pipeline(action, CORPUS_R, mode="auto")
        violations = lib.covers.verify_certificate(result.cover, result.certificate,
                                                   action=action)
        return q, cover, pushed, pushed_cert, result, violations

    @staticmethod
    def collect(outcome):
        q, cover, pushed, pushed_cert, result, violations = outcome

        def members(c):
            return tuple(tuple(sorted(m)) for m in c.members)

        def cert(c):
            return {"dimension": c.dimension, "lebesgue": checks.scalar_text(c.lebesgue),
                    "mesh": checks.scalar_text(c.mesh), "equivariant": c.equivariant,
                    "ball_meet": c.ball_meet}
        return {"orbit_of": tuple(q.orbit_of), "quotient": q.space.dist,
                "cover": members(cover), "pushed": members(pushed),
                "pushed_cert": cert(pushed_cert),
                "quotient_cover": members(result.quotient_cover),
                "lifted": members(result.cover), "lifted_cert": cert(result.certificate),
                "violations": tuple(v.message for v in violations),
                "bytes_read": 0, "bytes_written": 0}


@dataclass
class Workload:
    name: str
    ops: list
    manifest: list = field(default_factory=list)


# ---------------------------------------------------------------- checks

def _docs_by_kind(files: dict) -> dict:
    out: dict[str, list] = {}
    for name, data in files.items():
        if not name.endswith(".json"):
            continue
        d = json.loads(data)
        out.setdefault(d["kind"], []).append(d)
    return out


def _exit_problems(result, code) -> list[str]:
    if result["code"] != code:
        return [f"exit code {result['code']}, expected {code}: {result['stderr'].strip()}"]
    return []


def check_validate(result) -> list[str]:
    out = _exit_problems(result, 0)
    if result["stderr"]:
        out.append(f"validate reported problems: {result['stderr'].strip()}")
    return out


def check_equivariant_cover(inputs, R):
    def check(result) -> list[str]:
        out = _exit_problems(result, 0)
        if out:
            return out
        space_doc, group_doc, action_doc = (json.loads(p.read_bytes()) for p in inputs)
        dist = checks.table_of(space_doc)
        perms = checks.perms_of(action_doc, group_doc)
        docs = _docs_by_kind(result["files"])
        if sorted((k, len(v)) for k, v in docs.items()) != [
                ("certificate", 1), ("cover", 2), ("lift_trace", 1), ("space", 1)]:
            return [f"unexpected outputs {sorted(result['files'])}"]
        qdoc, cert = docs["space"][0], docs["certificate"][0]
        orbs = checks.orbits(perms, len(dist))
        qtable = checks.quotient_table(dist, orbs)
        if checks.table_of(qdoc) != qtable:
            out.append("quotient distances differ from the orbit minimum")
        by_space = {c["space"]: c for c in docs["cover"]}
        qcover, lifted = by_space.get(qdoc["name"]), by_space.get(space_doc["name"])
        if qcover is None or lifted is None:
            return out + ["covers do not refer to the quotient and the input space"]
        out += ["quotient cover: " + p for p in
                checks.certified_cover_problems(qtable, qcover["members"], R=R)]
        out += ["lifted cover: " + p for p in checks.certified_cover_problems(
            dist, lifted["members"], R=R, perms=perms, cert=cert,
            action_name=action_doc["name"])]
        if cert["cover"] != lifted["name"]:
            out.append(f"certificate is for {cert['cover']!r}")
        if not out and checks.dimension(lifted["members"], len(dist)) > \
                checks.dimension(qcover["members"], len(qtable)):
            out.append("lift raised the dimension")
        return out
    return check


def check_estimate(space_path, R, B=None, answer=None, answer_print=None):
    """answer: the stored oracle dimension (None: infeasible); answer_print:
    the fingerprint the stored answer belongs to, or None when no oracle
    answer exists for the case."""
    def check(result) -> list[str]:
        dist = checks.table_of(json.loads(space_path.read_bytes()))
        if answer_print is not None and fingerprint(dist) != answer_print:
            return ["stored oracle answer belongs to a different space"]
        infeasible = B is not None and checks.infeasible_point(dist, R, B) is not None
        if answer_print is not None and (answer is None) != infeasible:
            return ["stored oracle answer disagrees with the direct feasibility check"]
        if infeasible:
            out = _exit_problems(result, 3)
            if result["files"]:
                out.append("an infeasible estimate wrote files")
            if not any(json.loads(line).get("error") == "infeasible"
                       for line in result["stderr"].splitlines()):
                out.append("no infeasible record on stderr")
            return out
        out = _exit_problems(result, 0)
        if out:
            return out
        docs = _docs_by_kind(result["files"])
        if sorted(docs) != ["certificate", "cover"]:
            return [f"unexpected outputs {sorted(result['files'])}"]
        cover, cert = docs["cover"][0], docs["certificate"][0]
        out += checks.certified_cover_problems(dist, cover["members"], R=R, B=B,
                                               cert=cert, action_name=None)
        if answer_print is not None and cert["dimension"] != answer:
            out.append(f"dimension {cert['dimension']}, the oracle says {answer}")
        return out
    return check


# ---------------------------------------------------------------- grid_cli

GRID_R = 2
RATIONAL_R = Fraction(4, 3)
RANDOM_GRAPH_POINTS = 150


def build_grid_cli(lib, seed: int, work: Path) -> Workload:
    g = lib.generators
    rng = random.Random(seed)
    instances = []
    for w in (12, 14):
        space = g.grid_space(w, w)
        instances.append((space, g.grid_rotation_action(space, w, w), GRID_R))
    base = g.grid_space(8, 8)
    scaled = lib.metric.FiniteMetricSpace(
        base.points, [[Fraction(2, 3) * v for v in row] for row in base.dist],
        name="grid8x8_two_thirds")
    instances.append((scaled, g.grid_rotation_action(scaled, 8, 8), RATIONAL_R))
    graph = g.random_graph_space(RANDOM_GRAPH_POINTS, rng.randrange(10 ** 6),
                                 edge_chance=Fraction(1, 50), max_weight=5)

    wl = Workload("grid_cli", [])
    fmt = lib.formats
    for space, action, R in instances:
        src = work / "inputs" / space.name
        inputs = [write_doc(lib, src, fmt.space_to_dict(space)),
                  write_doc(lib, src, fmt.group_to_dict(action.group)),
                  write_doc(lib, src, fmt.action_to_dict(action))]
        wl.manifest.append(manifest_entry(space, inputs[0]))
        out = work / "out" / space.name
        wl.ops.append(CliOp(f"equivariant-cover {space.name}",
                            ["equivariant-cover", *map(str, inputs), "--mode", "greedy",
                             "--R", checks.scalar_text(R)],
                            out_dir=out, check=check_equivariant_cover(inputs, R)))
        wl.ops.append(CliOp(f"validate {space.name}", ["validate", *map(str, inputs)],
                            reads_outputs_of=out, check=check_validate, verify=True))
    path = write_doc(lib, work / "inputs" / graph.name, fmt.space_to_dict(graph))
    wl.manifest.append(manifest_entry(graph, path))
    out = work / "out" / graph.name
    wl.ops.append(CliOp(f"estimate {graph.name}",
                        ["estimate", str(path), "--mode", "greedy", "--R", str(GRID_R)],
                        out_dir=out, check=check_estimate(path, GRID_R)))
    wl.ops.append(CliOp(f"validate {graph.name}", ["validate", str(path)],
                        reads_outputs_of=out, check=check_validate, verify=True))
    return wl


# ---------------------------------------------------------------- exact_cli

EXACT_SCALES = [(R, B) for R in (1, 2, 3) for B in (R, 2 * R, 4 * R)]
FIXED_SPACES = ("path:8", "path:10", "path:11", "path:13", "path:14",
                "cycle:9", "cycle:10", "cycle:12", "cycle:14",
                "grid:3x3", "grid:3x4", "grid:2x7")
# (R, B) = (2, 3): the seed's search answers 2 on these, the minimum is 1.
KNOWN_GAP_CASES = ("path:11", "path:14", "cycle:14")
RANDOM_GRAPH_SLOTS = (8, 9, 10, 11, 12, 14)
INVARIANT_SLOTS = (("Z2", 4), ("Z3", 3), ("Z2", 5), ("Z4", 3), ("D3", 2), ("Z2", 7))
# Seeded slots of at most ORACLE_MAX_POINTS points draw from a pool of this
# many instances, whose oracle answers are stored in oracle_answers.json.
ORACLE_POOL = 12
ORACLE_MAX_POINTS = 10
# The acceptance-7 family: space key, action, and the (R, B) pairs profiled.
PROFILE_FAMILY = (("path:9", "reflect"), ("cycle:8", "rot4"), ("grid:4x4", "halfturn"))
PROFILE_SCALES = ((1, 2), (2, 4))
PROFILE_MAX_POINTS = 16
RANDOM_EDGE_CHANCE = Fraction(1, 5)


def make_group(lib, name: str):
    order = int(name[1:])
    if name[0] == "Z":
        return lib.groups.cyclic_group(order)
    return lib.groups.dihedral_group(order)


def space_for(lib, key: str):
    """The space a corpus key names, e.g. "path:8", "grid:3x4",
    "random:10:3" (points, generator seed) or "invariant:Z2:5:3" (group,
    base slots, generator seed)."""
    g = lib.generators
    kind, _, rest = key.partition(":")
    if kind == "path":
        return g.path_space(int(rest))
    if kind == "cycle":
        return g.cycle_space(int(rest))
    if kind == "grid":
        w, h = map(int, rest.split("x"))
        return g.grid_space(w, h)
    if kind == "random":
        n, s = map(int, rest.split(":"))
        return g.random_graph_space(n, s, edge_chance=RANDOM_EDGE_CHANCE)
    if kind == "invariant":
        group, base, s = rest.split(":")
        return g.random_invariant_instance(make_group(lib, group), int(base), int(s))[0]
    raise ValueError(f"unknown corpus key {key!r}")


def profile_action(lib, space, which: str):
    g = lib.generators
    if which == "reflect":
        return g.path_reflection_action(space)
    if which == "rot4":
        return g.cycle_rotation_action(space, 4)
    side = int(len(space) ** 0.5)
    return g.grid_rotation_action(space, side, side)


def exact_cli_keys(seed: int) -> list[str]:
    """Fixed spaces plus one seeded instance per slot, in a fixed order."""
    rng = random.Random(seed)

    def draw(points):
        return rng.randrange(ORACLE_POOL) if points <= ORACLE_MAX_POINTS \
            else rng.randrange(10 ** 6)
    keys = list(FIXED_SPACES)
    keys += [f"random:{n}:{draw(n)}" for n in RANDOM_GRAPH_SLOTS]
    keys += [f"invariant:{grp}:{base}:{draw(int(grp[1:]) * base * (2 if grp[0] == 'D' else 1))}"
             for grp, base in INVARIANT_SLOTS]
    return keys


def load_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text(encoding="utf-8"))["answers"]


def _answer(answers, key, R, B):
    """(dimension or None, fingerprint), or (None, None) without an answer."""
    entry = answers.get(key)
    if entry is None:
        return None, None
    return entry["dims"][f"{R},{B}"], entry["fingerprint"]


def family_tables(family, group_path) -> dict:
    """Corpus key and distance table of each profiled space and quotient,
    by the name the profile document gives it, from the input documents."""
    group_doc = json.loads(group_path.read_bytes())
    out = {}
    for key, which, space_path, action_path in family:
        space_doc = json.loads(space_path.read_bytes())
        dist = checks.table_of(space_doc)
        perms = checks.perms_of(json.loads(action_path.read_bytes()), group_doc)
        out[space_doc["name"]] = (key, dist)
        out[f"{space_doc['name']}_mod_{group_doc['name']}"] = (
            f"{key}/{which}", checks.quotient_table(dist, checks.orbits(perms, len(dist))))
    return out


def check_profile(answers, family, group_path):
    def check(result) -> list[str]:
        out = _exit_problems(result, 0)
        if out:
            return out
        docs = _docs_by_kind(result["files"])
        if list(docs) != ["profile"] or sorted(result["files"]) != [
                "acceptance7.profile.csv", "acceptance7.profile.json"]:
            return [f"unexpected outputs {sorted(result['files'])}"]
        doc = docs["profile"][0]
        tables = family_tables(family, group_path)
        dims = {}
        for prof in doc["spaces"] + doc["quotients"]:
            name = prof["space"]
            key, dist = tables[name]
            answer_print = answers.get(key, {}).get("fingerprint")
            if answer_print is not None and fingerprint(dist) != answer_print:
                out.append(f"{name}: stored oracle answer belongs to a different space")
                continue
            for entry in prof["entries"]:
                R = checks.parse_scalar(entry["scale"])
                B = checks.parse_scalar(entry["mesh_bound"])
                dims[(name, R)] = entry["dimension"]
                if entry["method"] != "exact":
                    out.append(f"{name} R={R}: method {entry['method']}")
                if entry["dimension"] is not None and \
                        not checks.parse_scalar(entry["mesh"]) <= B:
                    out.append(f"{name} R={R}: mesh above {B}")
                answer, _ = _answer(answers, key, R, B)
                if answer_print is not None and entry["dimension"] != answer:
                    out.append(f"{name} R={R}: dimension {entry['dimension']}, "
                               f"the oracle says {answer}")
        for rep in doc["comparisons"]:
            d, qd = rep["dimension"], rep["quotient_dimension"]
            R = checks.parse_scalar(rep["scale"])
            expected = "infeasible" if d is None or qd is None else \
                "equal" if qd == d else "drop" if qd < d else "exceeds"
            quotient_name = next(n for n in tables if n.startswith(rep["space"] + "_mod_"))
            if (d, qd) != (dims.get((rep["space"], R)), dims.get((quotient_name, R))) \
                    or rep["relation"] != expected:
                out.append(f"comparison for {rep['space']} R={R} disagrees with the entries")
        return out
    return check


def build_exact_cli(lib, seed: int, work: Path) -> Workload:
    answers = load_answers()
    fmt = lib.formats
    wl = Workload("exact_cli", [])
    paths = {}
    for key in exact_cli_keys(seed):
        space = space_for(lib, key)
        paths[key] = write_doc(lib, work / "inputs", fmt.space_to_dict(space))
        wl.manifest.append(manifest_entry(space, paths[key]))

    def estimate(key, R, B, path, max_points=None):
        answer, answer_print = _answer(answers, key, R, B)
        label = f"estimate {path.name.split('.')[0]} R={R} B={B}"
        args = ["estimate", str(path), "--mode", "exact", "--R", str(R), "--B", str(B)]
        if max_points is not None:
            args += ["--max-points", str(max_points)]
        wl.ops.append(CliOp(label, args, out_dir=work / "out" / f"op{len(wl.ops)}",
                            check=check_estimate(path, R, B, answer, answer_print)))

    for key in paths:
        for R, B in EXACT_SCALES:
            estimate(key, R, B, paths[key])
    for key in KNOWN_GAP_CASES:
        estimate(key, 2, 3, paths[key])

    family = work / "family"
    spaces, actions, members = [], [], []
    for key, which in PROFILE_FAMILY:
        space = space_for(lib, key)
        action = profile_action(lib, space, which)
        spaces.append(write_doc(lib, family, fmt.space_to_dict(space)))
        actions.append(write_doc(lib, family, fmt.action_to_dict(action)))
        wl.manifest.append(manifest_entry(space, spaces[-1]))
        members.append((key, which, spaces[-1], actions[-1]))
    group = write_doc(lib, family, fmt.group_to_dict(action.group))
    estimate("grid:4x4", 2, 4, spaces[-1], max_points=PROFILE_MAX_POINTS)
    names = [p.name.split(".")[0] for p in spaces]
    action_names = [p.name.split(".")[0] for p in actions]
    args = ["profile", *map(str, spaces), str(group), *map(str, actions)]
    for name, action_name in zip(names, action_names):
        args += ["--space", name, "--action", action_name]
    args += ["--scales", ",".join(str(R) for R, _ in PROFILE_SCALES),
             "--mesh-bounds", ",".join(str(B) for _, B in PROFILE_SCALES),
             "--mode", "exact", "--max-points", str(PROFILE_MAX_POINTS),
             "--name", "acceptance7"]
    wl.ops.append(CliOp("profile acceptance-7 family", args,
                        out_dir=work / "out" / "profile",
                        check=check_profile(answers, members, group)))
    return wl


def smallest_exact_op(lib, work: Path) -> CliOp:
    """The cheapest exact_cli op: the 8-point path at R = B = 1."""
    path = write_doc(lib, work / "probe", lib.formats.space_to_dict(space_for(lib, "path:8")))
    return CliOp("estimate P8 R=1 B=1",
                 ["estimate", str(path), "--mode", "exact", "--R", "1", "--B", "1"],
                 out_dir=work / "probe" / "out")


# ---------------------------------------------------------------- invariant_corpus

CORPUS_R = 2
CORPUS_GROUPS = ("Z2", "Z3", "Z4", "Z6", "D3", "D4")
CORPUS_BASES = range(3, 9)
CORPUS_PER_CELL = 6


def check_corpus_op(raw):
    def check(result) -> list[str]:
        dist, perms = raw["dist"], raw["perms"]
        n = len(dist)
        orbs = checks.orbits(perms, n)
        qtable = checks.quotient_table(dist, orbs)
        out = []
        orbit_of = [0] * n
        for qi, orb in enumerate(orbs):
            for x in orb:
                orbit_of[x] = qi
        if tuple(orbit_of) != result["orbit_of"] or \
                [list(row) for row in result["quotient"]] != qtable:
            return ["quotient differs from the orbit-minimum metric"]
        out += ["random cover: " + p for p in checks.cover_problems(result["cover"], n)]
        images = list(dict.fromkeys(tuple(sorted({orbit_of[x] for x in m}))
                                    for m in result["cover"]))
        if images != list(result["pushed"]):
            out.append("pushforward members are not the images of the cover")
        pushed_cert = dict(result["pushed_cert"], action=None)
        out += ["pushforward: " + p for p in checks.certified_cover_problems(
            qtable, result["pushed"], cert=pushed_cert)]
        if not out:
            if not checks.mesh(qtable, result["pushed"]) <= checks.mesh(dist, result["cover"]):
                out.append("pushforward raised the mesh")
            if not checks.lebesgue(qtable, result["pushed"]) >= \
                    checks.lebesgue(dist, result["cover"]):
                out.append("pushforward lowered the Lebesgue number")
            bound = len(perms) * (checks.dimension(result["cover"], n) + 1) - 1
            if checks.dimension(result["pushed"], len(qtable)) > bound:
                out.append("pushforward dimension above |F|(n+1)-1")
        out += ["quotient cover: " + p for p in checks.certified_cover_problems(
            qtable, result["quotient_cover"], R=CORPUS_R, B=4 * CORPUS_R)]
        lifted_cert = dict(result["lifted_cert"], action=raw["action"])
        out += ["lifted cover: " + p for p in checks.certified_cover_problems(
            dist, result["lifted"], R=CORPUS_R, perms=perms, cert=lifted_cert,
            action_name=raw["action"])]
        if result["violations"]:
            out.append(f"verify_certificate: {result['violations']}")
        return out
    return check


def build_invariant_corpus(lib, seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    wl = Workload("invariant_corpus", [])
    for group_name in CORPUS_GROUPS:
        group = make_group(lib, group_name)
        for base in CORPUS_BASES:
            for _ in range(CORPUS_PER_CELL):
                s = rng.randrange(10 ** 6)
                space, action = lib.generators.random_invariant_instance(group, base, s)
                raw = {"name": space.name, "points": space.points,
                       "dist": [list(row) for row in space.dist],
                       "group": group.name, "elements": group.elements,
                       "mul": group.mul_table, "action": action.name,
                       "perms": [list(p) for p in action.perms], "cover_seed": s}
                wl.manifest.append(manifest_entry(space, None))
                wl.ops.append(CorpusOp(f"instance {space.name}", raw, check_corpus_op(raw)))
    return wl


BUILDERS = {"grid_cli": build_grid_cli, "exact_cli": build_exact_cli,
            "invariant_corpus": build_invariant_corpus}
