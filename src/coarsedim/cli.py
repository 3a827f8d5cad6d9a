"""Command-line interface.

Every command loads its input documents into a workspace (validating each
one on the way in), runs one construction, and writes the results as
canonical JSON documents; written file paths go to standard output, one per
line, and every problem goes to standard error as one JSON object per line.
Two commands do half of that: `validate` writes nothing, and `generate`
reads no files.

Exit codes: 0 success, 1 validation or format failure, 2 unresolved
reference or missing file, 3 infeasible estimation, 4 failed internal
postcondition (an implementation bug, never the input's fault).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .constructions import lift_equivariant, pushforward_cover
from .covers import certify
from .errors import InternalInvariantError, ResolutionError
from .estimation import (EXACT_POINT_CAP, Infeasible, _estimate_cover,
                         equivariant_cover_pipeline, family_profile)
from .formats import (KIND_ORDER, FormatError, Workspace, action_to_dict,
                      certificate_to_dict, cover_to_dict, dumps, group_to_dict,
                      lift_trace_to_dict, load_entry, parse_document,
                      parse_scalar, profile_to_csv, profile_to_dict,
                      space_to_dict)
from .generators import KIND_PARAMS, generate_instance
from .groups import quotient


def _emit_error(error: str, message: str, **extra) -> None:
    record = {"error": error, "message": message, **extra}
    print(json.dumps(record, ensure_ascii=False), file=sys.stderr)


def _safe_name(name: str) -> str:
    """Object names may contain characters like '/' that filenames cannot."""
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name)


def _write(out: str, *docs: dict) -> Path:
    """Write the documents into directory `out`, created once, printing each
    path; returns the directory."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for d in docs:
        path = out_dir / f"{_safe_name(d['name'])}.{d['kind']}.json"
        path.write_text(dumps(d), encoding="utf-8")
        print(path)
    return out_dir


def _load(paths, collect: bool = False) -> tuple[Workspace, int, int]:
    """Read, parse and register documents in dependency order.

    Returns (workspace, validation failures, resolution failures).  With
    collect=False the first problem is raised instead of counted, so the
    counters are only meaningful to `validate`, which wants the full report.
    """
    ws = Workspace()
    bad = {"validation": 0, "resolution": 0}

    def report(error: str, exc: Exception, path: Path, **extra) -> None:
        """Raise exc; or, collecting, emit it as an `error` record naming
        the file and count it as a resolution or a validation failure."""
        if not collect:
            raise exc
        _emit_error(error, str(exc), file=str(path), **extra)
        bad["resolution" if error == "resolution" else "validation"] += 1

    docs = []
    for p in paths:
        path = Path(p)
        try:
            docs.append((path, parse_document(path.read_text(encoding="utf-8"))))
        except OSError as exc:
            report("resolution", exc, path)
        except UnicodeDecodeError as exc:
            report("format", FormatError(f"not UTF-8 text: {exc}"), path)
        except FormatError as exc:
            report("format", exc, path)
    # Dependencies before dependents (spaces/groups, then actions, ...);
    # ties keep command-line order.
    docs.sort(key=lambda item: KIND_ORDER[item[1]["kind"]])
    for path, d in docs:
        try:
            kind, name, _, violations = load_entry(d, ws)
        except (FormatError, ResolutionError) as exc:
            report("resolution" if isinstance(exc, ResolutionError) else "format",
                   exc, path)
            continue
        if violations:
            where = "" if collect else f" in {path}"
            report("validation", FormatError(f"{kind} {name!r}{where} failed validation",
                                             violations),
                   path, kind=kind, name=name,
                   violations=[v.to_dict() for v in violations])
    return ws, bad["validation"], bad["resolution"]


def _pick(ws: Workspace, kind: str, name: str | None, flag: str):
    """The named object, or the only one of its kind when no name is given."""
    if name is not None:
        return ws.get(kind, name)
    names = ws.names(kind)
    if len(names) == 1:
        return ws.get(kind, names[0])
    if not names:
        raise ResolutionError(f"no {kind} was loaded; pass one and select it "
                              f"with {flag}")
    raise ResolutionError(f"{len(names)} {kind}s loaded ({', '.join(names)}); "
                          f"select one with {flag}")


def _scalar_arg(text: str | None, flag: str):
    if text is None:
        return None
    try:
        return parse_scalar(text)
    except FormatError:
        raise FormatError(f"{flag} must be an integer or fraction p/q in lowest "
                          f"terms, got {text!r}") from None


def _scalar_list(text: str | None, flag: str):
    return None if text is None else [_scalar_arg(tok.strip(), flag)
                                      for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    _, bad_validation, bad_resolution = _load(args.files, collect=True)
    # An unresolved reference is the more fundamental failure: the object
    # could not even be assembled, let alone checked.
    return 2 if bad_resolution else 1 if bad_validation else 0


def cmd_quotient(args) -> int:
    ws, _, _ = _load(args.files)
    a = _pick(ws, "action", args.action, "--action")
    q = quotient(a)
    _write(args.out, space_to_dict(q.space))
    return 0


def cmd_pushforward(args) -> int:
    ws, _, _ = _load(args.files)
    a = _pick(ws, "action", args.action, "--action")
    c = _pick(ws, "cover", args.cover, "--cover")
    q = quotient(a)
    pushed, cert = pushforward_cover(a, q, c)
    _write(args.out, space_to_dict(q.space), cover_to_dict(pushed),
           certificate_to_dict(cert, pushed.name))
    return 0


def cmd_lift(args) -> int:
    ws, _, _ = _load(args.files)
    a = _pick(ws, "action", args.action, "--action")
    c = _pick(ws, "cover", args.cover, "--cover")
    q = quotient(a)
    lifted, trace, cert = lift_equivariant(a, q, c, R=_scalar_arg(args.R, "--R"))
    _write(args.out, cover_to_dict(lifted),
           lift_trace_to_dict(trace, a.name, c.name, lifted.name),
           certificate_to_dict(cert, lifted.name, action_name=a.name))
    return 0


def cmd_equivariant_cover(args) -> int:
    ws, _, _ = _load(args.files)
    a = _pick(ws, "action", args.action, "--action")
    result = equivariant_cover_pipeline(
        a, _scalar_arg(args.R, "--R"), B=_scalar_arg(args.B, "--B"),
        mode=args.mode, max_points=args.max_points)
    if isinstance(result, Infeasible):
        _emit_error("infeasible", result.message,
                    point=quotient(a).space.points[result.point])
        return 3
    _write(args.out, space_to_dict(result.quotient.space),
           cover_to_dict(result.quotient_cover), cover_to_dict(result.cover),
           lift_trace_to_dict(result.trace, a.name, result.quotient_cover.name,
                              result.cover.name),
           certificate_to_dict(result.certificate, result.cover.name,
                               action_name=a.name))
    return 0


def cmd_estimate(args) -> int:
    ws, _, _ = _load(args.files)
    m = _pick(ws, "space", args.space, "--space")
    _, result = _estimate_cover(m, _scalar_arg(args.R, "--R"),
                                _scalar_arg(args.B, "--B"), args.mode,
                                args.max_points)
    if isinstance(result, Infeasible):
        _emit_error("infeasible", result.message, point=m.points[result.point])
        return 3
    cover, cert = result, certify(result)
    _write(args.out, cover_to_dict(cover), certificate_to_dict(cert, cover.name))
    return 0


def cmd_profile(args) -> int:
    ws, _, _ = _load(args.files)
    spaces = [ws.get("space", n) for n in args.space or ws.names("space")]
    actions = args.action and [ws.get("action", n) for n in args.action]
    scales = _scalar_list(args.scales, "--scales")
    if not scales:
        raise FormatError("--scales needs at least one scale, e.g. --scales 1,2")
    mesh_bounds = _scalar_list(args.mesh_bounds, "--mesh-bounds")
    fp = family_profile(spaces, scales, mesh_bounds, actions=actions,
                        mode=args.mode, max_points=args.max_points)
    out = _write(args.out, profile_to_dict(fp, args.name))
    csv_path = out / f"{_safe_name(args.name)}.profile.csv"
    csv_path.write_text(profile_to_csv(fp), encoding="utf-8")
    print(csv_path)
    return 0


def cmd_generate(args) -> int:
    params = {}
    for token in (args.params or "").split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, value = token.partition("=")
        if not sep:
            raise FormatError(f"--params entries look like key=value, got {token!r}")
        key = key.strip()
        if key in params:
            raise FormatError(f"--params names {key!r} twice")
        params[key] = value.strip()
    instance = generate_instance(args.kind, params, seed=args.seed)
    docs = [space_to_dict(instance.space)]
    if instance.action is not None:
        docs += [group_to_dict(instance.action.group),
                 action_to_dict(instance.action)]
    _write(args.out, *docs)
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsedim",
        description="Finite metric spaces, group actions, covers and "
                    "finite-scale dimension estimation, over exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if name != "generate":
            sp.add_argument("files", nargs="*", metavar="FILE",
                            help="input documents (JSON)")
        if name != "validate":
            sp.add_argument("--out", default=".", metavar="DIR",
                            help="directory for output documents (default: .)")
        return sp

    def estimator_flags(sp):
        sp.add_argument("--mode", choices=("auto", "exact", "greedy"), default="auto")
        sp.add_argument("--max-points", type=int, default=EXACT_POINT_CAP,
                        help="largest space the exact search will accept")

    command("validate", cmd_validate,
            "validate documents; report problems as JSON lines")

    sp = command("quotient", cmd_quotient, "write the quotient space of an action")
    sp.add_argument("--action", metavar="NAME", help="action to quotient by")

    sp = command("pushforward", cmd_pushforward,
                 "push a cover forward to the quotient, with certificate")
    sp.add_argument("--action", metavar="NAME")
    sp.add_argument("--cover", metavar="NAME", help="cover of the acted-on space")

    sp = command("lift", cmd_lift,
                 "lift a quotient cover to an invariant cover, with trace")
    sp.add_argument("--action", metavar="NAME")
    sp.add_argument("--cover", metavar="NAME", help="cover of the quotient space")
    sp.add_argument("--R", metavar="SCALAR",
                    help="target Lebesgue number (default: the cover's)")

    sp = command("equivariant-cover", cmd_equivariant_cover,
                 "quotient, cover at scale R, lift back; the full pipeline")
    sp.add_argument("--action", metavar="NAME")
    sp.add_argument("--R", metavar="SCALAR", required=True)
    sp.add_argument("--B", metavar="SCALAR", help="mesh bound (default 4R)")
    estimator_flags(sp)

    sp = command("estimate", cmd_estimate,
                 "minimal cover dimension at scale R under mesh bound B")
    sp.add_argument("--space", metavar="NAME")
    sp.add_argument("--R", metavar="SCALAR", required=True)
    sp.add_argument("--B", metavar="SCALAR", help="mesh bound (default 4R)")
    estimator_flags(sp)

    sp = command("profile", cmd_profile,
                 "dimension profile over scales, JSON plus CSV")
    sp.add_argument("--space", action="append", metavar="NAME",
                    help="profile this space (repeatable; default: all loaded)")
    sp.add_argument("--action", action="append", metavar="NAME",
                    help="compare against the quotient by this action "
                         "(repeatable, one per space, same order)")
    sp.add_argument("--scales", metavar="LIST", required=True,
                    help="comma-separated scales, e.g. 1,2,4")
    sp.add_argument("--mesh-bounds", metavar="LIST",
                    help="comma-separated mesh bounds, one per scale")
    estimator_flags(sp)
    sp.add_argument("--name", default="profile", help="output document name")

    sp = command("generate", cmd_generate,
                 "write a generated space (and its canonical action, if any)")
    sp.add_argument("--kind", required=True, choices=tuple(KIND_PARAMS))
    sp.add_argument("--params", metavar="LIST",
                    help="comma-separated key=value pairs, e.g. n=9,shift=4")
    sp.add_argument("--seed", type=int, default=0)

    return parser


# Parsing leaves the parser as it was: every call gets a fresh namespace, and
# the repeatable options default to None, not to a list that could be shared.
_parser = functools.cache(_build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        _emit_error("internal", str(exc))
        return 4
    except FormatError as exc:
        extra = {}
        if exc.violations:
            extra["violations"] = [v.to_dict() for v in exc.violations]
        _emit_error("validation", str(exc), **extra)
        return 1
    except (ResolutionError, OSError) as exc:
        _emit_error("resolution", str(exc))
        return 2
    except (ValueError, TypeError) as exc:
        _emit_error("validation", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
