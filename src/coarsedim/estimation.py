"""Cover-dimension estimation at a fixed scale, exact and greedy.

"Exact" means: minimal dimension among covers drawn from a stated candidate
family (closed balls of radius at most B, plus every subset of diameter at
most B when the space is small enough to enumerate subsets).  The space of
covers is searched completely by iterative deepening on the multiplicity
cap, so the returned dimension is the true minimum over that family; there
is no scope beyond it, and the test suite cross-checks the small cases
against a naive enumerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .covers import (Cover, CoverCertificate, certify, dimension, lebesgue_number,
                     mesh)
from .constructions import LiftTrace, lift_equivariant
from .errors import CapExceededError, InternalInvariantError
from .groups import IsometricAction, QuotientSpace, quotient
from .metric import FiniteMetricSpace, Scalar, _diameter, ball, check_scalar

EXACT_POINT_CAP = 14
SUBSET_POINT_CAP = 10


@dataclass(frozen=True)
class Infeasible:
    """No candidate member contains some required ball; returned, not raised,
    because at a too-small mesh bound this is an answer, not an accident."""

    point: int
    required: frozenset[int]
    message: str


def _candidate_family(m: FiniteMetricSpace, B: Scalar,
                      include_subsets: bool) -> list[frozenset[int]]:
    """Closed balls of radius <= B, plus all subsets when allowed, every
    candidate filtered to diameter <= B, deduplicated, deterministic order."""
    seen = set()
    out: list[frozenset[int]] = []

    def push(cand: frozenset[int]):
        if cand and cand not in seen:
            if _diameter(m, cand) <= B:
                seen.add(cand)
                out.append(cand)

    radii = sorted({0} | {m.dist[i][j] for i in range(len(m))
                          for j in range(len(m)) if m.dist[i][j] <= B})
    for x in range(len(m)):
        for rho in radii:
            push(ball(m, x, rho, "closed"))
    if include_subsets:
        points = list(range(len(m)))
        for size in range(1, len(points) + 1):
            for combo in itertools.combinations(points, size):
                push(frozenset(combo))
    out.sort(key=lambda cand: (len(cand), tuple(sorted(cand))))
    return out


def _search_with_cap(serve: Sequence[Sequence[int]],
                     candidates: Sequence[frozenset[int]], n_points: int,
                     cap: int) -> tuple[int, ...] | None:
    """Pick candidates so every point's required ball is inside a chosen one
    and no point lies in more than `cap` chosen members.  Backtracking with a
    fail-first point order; deterministic."""
    served_by: dict[int, list[int]] = {}
    for x, sx in enumerate(serve):
        for ci in sx:
            served_by.setdefault(ci, []).append(x)
    counts = [0] * n_points
    satisfied = [0] * n_points
    chosen: set[int] = set()

    def feasible(ci: int) -> bool:
        return all(counts[y] < cap for y in candidates[ci])

    def pick_point() -> int | None:
        best, best_options = None, None
        for x in range(n_points):
            if satisfied[x]:
                continue
            options = sum(1 for ci in serve[x] if ci not in chosen and feasible(ci))
            if best_options is None or options < best_options:
                best, best_options = x, options
                if options == 0:
                    break
        return best

    def descend() -> bool:
        x = pick_point()
        if x is None:
            return True
        for ci in serve[x]:
            if ci in chosen or not feasible(ci):
                continue
            chosen.add(ci)
            for y in candidates[ci]:
                counts[y] += 1
            for z in served_by[ci]:
                satisfied[z] += 1
            if descend():
                return True
            for z in served_by[ci]:
                satisfied[z] -= 1
            for y in candidates[ci]:
                counts[y] -= 1
            chosen.discard(ci)
        return False

    if descend():
        return tuple(sorted(chosen))
    return None


def min_dimension_cover_exact(m: FiniteMetricSpace, R: Scalar, B: Scalar,
                              max_points: int = EXACT_POINT_CAP,
                              subset_points: int = SUBSET_POINT_CAP
                              ) -> Cover | Infeasible:
    """Minimal-dimension cover with Lebesgue number >= R and mesh <= B,
    drawn from the candidate family; Infeasible if some open R-ball fits in
    no candidate.

    Iterative deepening on the multiplicity cap guarantees minimality;
    within a cap the search is plain backtracking with a fail-first point
    order, which is enough at these sizes.  The result is deterministic.
    """
    check_scalar(R, "R")
    check_scalar(B, "B")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if B < 0:
        raise ValueError(f"B must be nonnegative, got {B}")
    if len(m) > max_points:
        raise CapExceededError(
            f"exact search is capped at {max_points} points and {m.name!r} has "
            f"{len(m)}; use greedy_cover for larger spaces")

    candidates = _candidate_family(m, B, include_subsets=len(m) <= subset_points)
    needs = [ball(m, x, R, "open") for x in range(len(m))]
    serve = []
    for x, need in enumerate(needs):
        sx = [ci for ci, cand in enumerate(candidates) if need <= cand]
        if not sx:
            return Infeasible(
                point=x, required=need,
                message=(f"no candidate of diameter <= {B} contains the open "
                         f"{R}-ball around {m.points[x]}"))
        serve.append(sx)

    for cap in range(1, len(m) + 1):
        picked = _search_with_cap(serve, candidates, len(m), cap)
        if picked is not None:
            members = [candidates[ci] for ci in picked]
            cover = Cover(m, members, name=f"{m.name}_exact_R{R}_B{B}")
            cert = certify(cover)
            if not cert.lebesgue >= R:
                raise InternalInvariantError("exact cover misses its Lebesgue target")
            if not cert.mesh <= B:
                raise InternalInvariantError("exact cover exceeds its mesh bound")
            if cert.dimension != cap - 1:
                raise InternalInvariantError(
                    f"search at multiplicity cap {cap} returned dimension "
                    f"{cert.dimension}")
            return cover
    raise InternalInvariantError("exact search failed with nonempty serve sets")


def greedy_cover(m: FiniteMetricSpace, R: Scalar) -> tuple[Cover, CoverCertificate]:
    """Closed 2R-balls around a greedy R-net, redundant members pruned.

    The net is R-dense, so the open R-ball around any point sits inside the
    closed 2R-ball of its nearest center; pruning members contained in
    another member keeps that property while shrinking multiplicities.
    Lebesgue number >= R is re-proved on the result by recomputation.
    """
    check_scalar(R, "R")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    centers = []
    for x in range(len(m)):
        if all(m.dist[x][c] > R for c in centers):
            centers.append(x)
    balls = []
    seen = set()
    for c in centers:
        b = ball(m, c, 2 * R, "closed")
        if b not in seen:
            seen.add(b)
            balls.append(b)
    members = [b for b in balls if not any(b < other for other in balls)]
    cover = Cover(m, members, name=f"{m.name}_greedy_R{R}")
    cert = certify(cover)
    if not cert.lebesgue >= R:
        raise InternalInvariantError(
            f"greedy cover has Lebesgue number {cert.lebesgue} < {R}")
    return cover, cert


@dataclass(frozen=True)
class ProfileEntry:
    """Best cover found at one scale: the target R, the mesh bound that was
    in force (None when greedy ran unconstrained), and the cover's actual,
    recomputed quantities.  cover_name survives serialization even when the
    cover object itself lives in another file."""

    scale: Scalar
    mesh_bound: Scalar | None
    method: str                      # "exact" or "greedy"
    dimension: int | None
    mesh: Scalar | None
    cover: Cover | None
    cover_name: str | None = None
    infeasible: Infeasible | None = None


@dataclass(frozen=True)
class DimensionProfile:
    space_name: str
    entries: tuple[ProfileEntry, ...]


def asdim_profile(m: FiniteMetricSpace, scales: Sequence[Scalar],
                  mesh_bounds: Sequence[Scalar] | None = None,
                  mode: str = "auto",
                  max_points: int = EXACT_POINT_CAP,
                  subset_points: int = SUBSET_POINT_CAP) -> DimensionProfile:
    """Best-found cover dimension per scale.

    Exact search when the space is within the cap (with mesh bound 4R per
    scale unless given), greedy beyond it; each entry records which method
    produced it.  Scales must be positive and strictly increasing.
    """
    scales = list(scales)
    if not scales:
        raise ValueError("at least one scale is required")
    for i, R in enumerate(scales):
        check_scalar(R, f"scale[{i}]")
        if R <= 0:
            raise ValueError(f"scale[{i}] = {R} must be positive")
        if i and not scales[i] > scales[i - 1]:
            raise ValueError("scales must be strictly increasing")
    if mesh_bounds is not None:
        mesh_bounds = list(mesh_bounds)
        if len(mesh_bounds) != len(scales):
            raise ValueError(f"{len(mesh_bounds)} mesh bounds for {len(scales)} scales")
    if mode not in ("auto", "exact", "greedy"):
        raise ValueError(f"mode must be auto, exact or greedy, got {mode!r}")

    entries = []
    for i, R in enumerate(scales):
        bound = mesh_bounds[i] if mesh_bounds is not None else None
        use_exact = mode == "exact" or (mode == "auto" and len(m) <= max_points)
        if use_exact:
            B = bound if bound is not None else 4 * R
            result = min_dimension_cover_exact(m, R, B, max_points=max_points,
                                               subset_points=subset_points)
            if isinstance(result, Infeasible):
                entries.append(ProfileEntry(scale=R, mesh_bound=B, method="exact",
                                            dimension=None, mesh=None, cover=None,
                                            infeasible=result))
            else:
                entries.append(ProfileEntry(scale=R, mesh_bound=B, method="exact",
                                            dimension=dimension(result),
                                            mesh=mesh(result), cover=result,
                                            cover_name=result.name))
        else:
            cover, cert = greedy_cover(m, R)
            entries.append(ProfileEntry(scale=R, mesh_bound=bound, method="greedy",
                                        dimension=cert.dimension, mesh=cert.mesh,
                                        cover=cover, cover_name=cover.name))
    return DimensionProfile(space_name=m.name, entries=tuple(entries))


@dataclass(frozen=True)
class PipelineResult:
    """Everything the quotient-then-lift pipeline produced."""

    quotient: QuotientSpace
    quotient_cover: Cover
    cover: Cover
    trace: LiftTrace
    certificate: CoverCertificate


def equivariant_cover_pipeline(a: IsometricAction, R: Scalar,
                               B: Scalar | None = None, mode: str = "auto",
                               quotient_cover: Cover | None = None,
                               max_points: int = EXACT_POINT_CAP,
                               subset_points: int = SUBSET_POINT_CAP
                               ) -> PipelineResult | Infeasible:
    """Quotient the action, cover the quotient at scale R, lift the cover.

    The result is an invariant cover of the original space with Lebesgue
    number >= R, dimension no worse than the quotient cover's, and mesh
    controlled by the lift bound.  Estimator infeasibility is propagated.
    """
    q = quotient(a)
    if quotient_cover is not None:
        if quotient_cover.space != q.space:
            raise ValueError("supplied cover does not live on the quotient")
        qc = quotient_cover
        supplied = lebesgue_number(qc)
        if not supplied >= R:
            raise ValueError(
                f"supplied quotient cover has Lebesgue number {supplied}, below {R}")
    else:
        use_exact = mode == "exact" or (mode == "auto" and len(q.space) <= max_points)
        if use_exact:
            result = min_dimension_cover_exact(q.space, R, B if B is not None else 4 * R,
                                               max_points=max_points,
                                               subset_points=subset_points)
            if isinstance(result, Infeasible):
                return result
            qc = result
        else:
            qc, _ = greedy_cover(q.space, R)

    cover, trace, cert = lift_equivariant(a, q, qc, R=R)
    return PipelineResult(quotient=q, quotient_cover=qc, cover=cover, trace=trace,
                          certificate=cert)


@dataclass(frozen=True)
class GapReport:
    """Dimension of a space versus its quotient at one scale."""

    space_name: str
    scale: Scalar
    mesh_bound: Scalar | None
    dimension: int | None
    quotient_dimension: int | None
    relation: str        # "equal", "drop" (quotient lower) or "exceeds"


@dataclass(frozen=True)
class FamilyProfile:
    profiles: tuple[DimensionProfile, ...]
    family_dimension: tuple[int | None, ...]       # max over spaces, per scale
    family_mesh: tuple[Scalar | None, ...]         # max realized mesh, per scale
    quotient_profiles: tuple[DimensionProfile, ...] | None = None
    comparisons: tuple[GapReport, ...] | None = None


def family_profile(spaces: Sequence[FiniteMetricSpace], scales: Sequence[Scalar],
                   mesh_bounds: Sequence[Scalar] | None = None,
                   actions: Sequence[IsometricAction] | None = None,
                   mode: str = "auto",
                   max_points: int = EXACT_POINT_CAP,
                   subset_points: int = SUBSET_POINT_CAP) -> FamilyProfile:
    """Profiles for a family of spaces, the family maximum per scale, and,
    when actions are supplied, the same for the quotients with a per-scale
    comparison.  A quotient dimension above the space's is reported, not
    asserted: at a fixed scale that is a finding, not a contradiction."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("at least one space is required")
    if actions is not None and len(actions) != len(spaces):
        raise ValueError(f"{len(actions)} actions for {len(spaces)} spaces")

    profiles = tuple(asdim_profile(m, scales, mesh_bounds, mode=mode,
                                   max_points=max_points, subset_points=subset_points)
                     for m in spaces)

    family_dimension = []
    family_mesh = []
    for i in range(len(scales)):
        dims = [p.entries[i].dimension for p in profiles]
        meshes = [p.entries[i].mesh for p in profiles]
        family_dimension.append(None if any(d is None for d in dims) else max(dims))
        family_mesh.append(None if any(v is None for v in meshes) else max(meshes))

    quotient_profiles = None
    comparisons = None
    if actions is not None:
        qprofiles = []
        reports = []
        for m, a, prof in zip(spaces, actions, profiles):
            if a.space != m:
                raise ValueError(f"action {a.name!r} does not act on {m.name!r}")
            q = quotient(a)
            qprof = asdim_profile(q.space, scales, mesh_bounds, mode=mode,
                                  max_points=max_points, subset_points=subset_points)
            qprofiles.append(qprof)
            for entry, qentry in zip(prof.entries, qprof.entries):
                if entry.dimension is None or qentry.dimension is None:
                    relation = "infeasible"
                elif qentry.dimension == entry.dimension:
                    relation = "equal"
                elif qentry.dimension < entry.dimension:
                    relation = "drop"
                else:
                    relation = "exceeds"
                reports.append(GapReport(space_name=m.name, scale=entry.scale,
                                         mesh_bound=entry.mesh_bound,
                                         dimension=entry.dimension,
                                         quotient_dimension=qentry.dimension,
                                         relation=relation))
        quotient_profiles = tuple(qprofiles)
        comparisons = tuple(reports)

    return FamilyProfile(profiles=profiles,
                         family_dimension=tuple(family_dimension),
                         family_mesh=tuple(family_mesh),
                         quotient_profiles=quotient_profiles,
                         comparisons=comparisons)
