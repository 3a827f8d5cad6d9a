"""Acceptance suite: the end-to-end guarantees this package is built around.

Six independent checks, each printing exactly one PASS/FAIL line (visible
in the pytest summary).  They keep their numbers, 1-3 and 6-8: checks 4 and
5, on weighted unions, decompositions and direct sums, were retired when
the package dropped that code.  All numeric comparisons are exact —
integers and Fractions throughout, no floating point and no numeric
tolerance anywhere.
The only pinned tolerances are two wall-clock budgets:

  * the 500-instance quotient check must finish under 60 seconds,
  * the curated comparison suite must finish under 600 seconds.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from coarsedim import (Infeasible, check_equivariance, dimension,
                       displacement_subgroup, family_profile, greedy_cover,
                       lebesgue_number, lift_equivariant, mesh,
                       min_dimension_cover_exact, pushforward_cover, quotient,
                       validate_metric)
from coarsedim.generators import (cycle_rotation_action, cycle_space,
                                  grid_rotation_action, grid_space,
                                  path_reflection_action, path_space,
                                  random_cover, random_graph_space,
                                  random_invariant_instance)
from coarsedim.groups import cyclic_group, dihedral_group
from coarsedim.metric import set_distance

from oracles import min_dimension_partition, quotient_distance_direct

QUOTIENT_TIME_BUDGET_S = 60.0
CURATED_TIME_BUDGET_S = 600.0

GROUPS = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + [dihedral_group(3)]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def invariant_instance(seed: int, max_points: int = 12):
    """A random space of at most max_points points with a free isometric
    action of a group of order at most six."""
    rng = random.Random(seed)
    group = rng.choice(GROUPS)
    base = rng.randint(1, max(1, max_points // len(group)))
    return random_invariant_instance(group, base, seed)


def test_quotient_metric_on_random_instances():
    """Quotient distances form a metric and equal the direct orbit-to-orbit
    minimum, whichever representatives are chosen — 500 seeded instances."""
    with criterion(1, "quotient metric on 500 random instances"):
        start = time.monotonic()
        for seed in range(500):
            space, action = invariant_instance(seed)
            q = quotient(action)
            assert validate_metric(q.space) == [], (seed, q.space.name)
            for x in range(len(space)):
                for y in range(len(space)):
                    assert (q.space.dist[q.orbit_of[x]][q.orbit_of[y]]
                            == quotient_distance_direct(action, x, y)), \
                        (seed, space.points[x], space.points[y])
        elapsed = time.monotonic() - start
        assert elapsed < QUOTIENT_TIME_BUDGET_S, f"took {elapsed:.1f}s"


def test_pushforward_bounds_on_random_covers():
    """Pushing a cover to the quotient never worsens mesh or Lebesgue number
    and multiplies dimension by at most the group order — 200 seeded
    triples, every quantity recomputed from scratch here."""
    with criterion(2, "pushforward bounds on 200 random covers"):
        for seed in range(200):
            space, action = invariant_instance(seed + 1000)
            c = random_cover(space, seed)
            q = quotient(action)
            pushed, _ = pushforward_cover(action, q, c)
            assert mesh(pushed) <= mesh(c), seed
            assert lebesgue_number(pushed) >= lebesgue_number(c), seed
            order = len(action.group)
            assert dimension(pushed) <= order * (dimension(c) + 1) - 1, seed


def test_lift_postconditions_on_random_covers():
    """Lifting a quotient cover yields an invariant cover with controlled
    mesh, no worse dimension, the requested Lebesgue number and well-spread
    fiber pieces; displacement subgroups conjugate along the action — 200
    seeded triples."""
    with criterion(3, "lift postconditions on 200 random covers"):
        for seed in range(200):
            rng = random.Random(seed + 2000)
            space, action = invariant_instance(seed + 2000)
            q = quotient(action)
            R = rng.choice((1, 2))
            qc, _ = greedy_cover(q.space, R)
            lifted, trace, cert = lift_equivariant(action, q, qc, R=R)
            ok, witness = check_equivariance(action, lifted)
            assert ok, (seed, witness)
            assert mesh(lifted) < 4 * trace.s * (len(action.group) + 1), seed
            assert dimension(lifted) <= dimension(qc), seed
            assert lebesgue_number(lifted) >= R, seed
            assert cert.equivariant is True, seed
            for entry in trace.entries:
                pieces = [p.piece for p in entry.pieces]
                assert frozenset().union(*pieces) == entry.fiber, seed
                for i in range(len(pieces)):
                    for j in range(i + 1, len(pieces)):
                        assert set_distance(space, pieces[i], pieces[j]) \
                            > 2 * trace.s, seed
            inverse = action.group.inverse
            table = action.group.mul_table
            for _ in range(3):
                x = rng.randrange(len(space))
                g = rng.randrange(len(action.group))
                gx = action.perms[g][x]
                conjugated = {table[g][table[h][inverse(g)]]
                              for h in displacement_subgroup(action, x, trace.s)}
                assert set(displacement_subgroup(action, gx, trace.s)) \
                    == conjugated, (seed, x, g)


def test_exact_search_agrees_with_partition_oracle():
    """The exact minimal cover dimension equals an independent exhaustive
    partition search on every space of at most ten points in the corpus, at
    every scale/mesh-bound combination — infeasibility verdicts included."""
    with criterion(6, "exact search equals the partition oracle, 90 cases"):
        corpus = ([path_space(n) for n in (4, 6, 8, 10)]
                  + [cycle_space(n) for n in (4, 5, 6, 8)]
                  + [grid_space(2, 3), grid_space(3, 3)]
                  + [random_graph_space(n, seed) for n, seed in
                     ((6, 11), (7, 12), (8, 13), (9, 14), (10, 15))])
        checked = 0
        for m in corpus:
            for R in (1, 2):
                for B in (2, 3, 4):
                    expected = min_dimension_partition(m, R, B)
                    result = min_dimension_cover_exact(m, R, B)
                    if expected is None:
                        assert isinstance(result, Infeasible), (m.name, R, B)
                    else:
                        assert not isinstance(result, Infeasible), (m.name, R, B)
                        assert dimension(result) == expected, (m.name, R, B)
                    checked += 1
        assert checked == 90


def test_curated_quotient_dimension_comparison():
    """On the curated suite — a nine-point path with its reflection, an
    eight-cycle with its half rotation, a four-by-four grid with its half
    turn — the quotient's exact dimension never exceeds the space's at any
    of the scale/mesh-bound pairs (1,2), (1,3), (2,4); the path and cycle
    reach equality; the strict drops are reported per space and scale."""
    with criterion(7, "curated quotient dimension comparison"):
        start = time.monotonic()
        spaces = [path_space(9), cycle_space(8), grid_space(4, 4)]
        actions = [path_reflection_action(spaces[0]),
                   cycle_rotation_action(spaces[1], 4),
                   grid_rotation_action(spaces[2], 4, 4)]
        fam_a = family_profile(spaces, [1, 2], mesh_bounds=[2, 4],
                               actions=actions, max_points=16)
        fam_b = family_profile(spaces, [1], mesh_bounds=[3],
                               actions=actions, max_points=16)
        reports = list(fam_a.comparisons) + list(fam_b.comparisons)
        assert len(reports) == 9
        for rep in reports:
            assert rep.dimension is not None, (rep.space_name, rep.scale)
            assert rep.quotient_dimension is not None, (rep.space_name, rep.scale)
            assert rep.quotient_dimension <= rep.dimension, \
                (rep.space_name, rep.scale, rep.mesh_bound)
            assert rep.relation in ("equal", "drop")
        assert any(r.relation == "equal" and r.space_name == "P9" for r in reports)
        assert any(r.relation == "equal" and r.space_name == "C8" for r in reports)
        drops = {(r.space_name, r.scale, r.mesh_bound):
                 (r.dimension, r.quotient_dimension)
                 for r in reports if r.relation == "drop"}
        assert drops == {("P9", 2, 4): (1, 0), ("grid4x4", 2, 4): (2, 0)}
        elapsed = time.monotonic() - start
        assert elapsed < CURATED_TIME_BUDGET_S, f"took {elapsed:.1f}s"


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "coarsedim.cli", *argv],
                          capture_output=True, text=True)


def test_cli_round_trip_and_exit_codes(tmp_path):
    """The command-line layer writes canonical files — rerunning a pipeline
    reproduces every output byte for byte and everything it writes loads
    back cleanly — and its five exit codes are each observable."""
    with criterion(8, "CLI round-trip and exit codes 0 through 4"):
        # exit 0, twice, with byte-identical outputs
        runs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            gen = run_cli("generate", "--kind", "path", "--params", "n=5",
                          "--out", str(out))
            assert gen.returncode == 0, gen.stderr
            inputs = gen.stdout.split()
            pipe = run_cli("equivariant-cover", *inputs, "--R", "1",
                           "--out", str(out))
            assert pipe.returncode == 0, pipe.stderr
            runs.append(inputs + pipe.stdout.split())
        assert len(runs[0]) == len(runs[1]) == 8
        for a, b in zip(*runs):
            assert Path(a).read_bytes() == Path(b).read_bytes(), (a, b)
        check = run_cli("validate", *runs[0])
        assert check.returncode == 0, check.stderr

        # exit 1: a document that fails validation
        bad = tmp_path / "bad.space.json"
        bad.write_text(json.dumps({
            "format": "coarsedim/1", "kind": "space", "name": "bad",
            "points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}))
        invalid = run_cli("validate", str(bad))
        assert invalid.returncode == 1
        assert json.loads(invalid.stderr.splitlines()[0])["error"] == "validation"

        # exit 2: a file that does not exist
        missing = run_cli("validate", str(tmp_path / "absent.json"))
        assert missing.returncode == 2

        # exit 3: an infeasible estimation request
        space_file = next(f for f in runs[0] if f.endswith("P5.space.json"))
        infeasible = run_cli("estimate", space_file, "--R", "5", "--B", "1",
                             "--out", str(tmp_path))
        assert infeasible.returncode == 3
        assert json.loads(infeasible.stderr.splitlines()[0])["error"] == "infeasible"

        # exit 4: a failed internal postcondition (forced, since valid inputs
        # cannot reach one) surfaces as the implementation-bug exit code
        script = ("import sys\n"
                  "import coarsedim.cli as cli\n"
                  "def boom(cover):\n"
                  "    raise cli.InternalInvariantError('forced')\n"
                  "cli.certify = boom\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        forced = subprocess.run(
            [sys.executable, "-c", script, "estimate", space_file,
             "--R", "1", "--out", str(tmp_path / "forced")],
            capture_output=True, text=True)
        assert forced.returncode == 4
        assert json.loads(forced.stderr.splitlines()[0])["error"] == "internal"
