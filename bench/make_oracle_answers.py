"""Regenerate oracle_answers.json: reference dimensions for exact_cli.

For every exact_cli space of at most ORACLE_MAX_POINTS points that any seed
can draw (the fixed spaces and the whole pool of each seeded slot), and for
the acceptance-7 family and its quotients, this runs the partition oracle
`min_dimension_partition` from tests/oracles.py at each (R, B) the workload
uses.  The oracle is slow (seconds per 10-point space), so its answers are
computed once and stored; the benchmark then never runs it and never takes
an answer from the program.  Each answer carries a fingerprint of the
distance table it was computed on, so a generator change cannot pair an old
answer with a new space unnoticed.

    python3 bench/make_oracle_answers.py

The 16-point grid of the family is left out: the oracle needs minutes for
one of its cases, so only its bounds are checked.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import workloads as w  # noqa: E402
from oracles import min_dimension_partition  # noqa: E402


class Table:
    """The two things the oracle reads from a space."""

    def __init__(self, dist):
        self.dist = dist

    def __len__(self):
        return len(self.dist)


def oracle_keys() -> list[tuple[str, list, list]]:
    """(key, distance table, (R, B) pairs) for every stored answer."""
    lib = w.import_library()
    out = []

    def add(key, dist, scales):
        out.append((key, [list(row) for row in dist], list(scales)))

    for key in w.FIXED_SPACES:
        space = w.space_for(lib, key)
        if len(space) <= w.ORACLE_MAX_POINTS:
            add(key, space.dist, w.EXACT_SCALES)
    for n in w.RANDOM_GRAPH_SLOTS:
        if n <= w.ORACLE_MAX_POINTS:
            for s in range(w.ORACLE_POOL):
                add(f"random:{n}:{s}", w.space_for(lib, f"random:{n}:{s}").dist,
                    w.EXACT_SCALES)
    for group, base in w.INVARIANT_SLOTS:
        for s in range(w.ORACLE_POOL):
            space = w.space_for(lib, f"invariant:{group}:{base}:{s}")
            if len(space) > w.ORACLE_MAX_POINTS:
                break
            add(f"invariant:{group}:{base}:{s}", space.dist, w.EXACT_SCALES)
    for key, which in w.PROFILE_FAMILY:
        space = w.space_for(lib, key)
        perms = w.profile_action(lib, space, which).perms
        quotient = checks.quotient_table(space.dist, checks.orbits(perms, len(space)))
        add(f"{key}/{which}", quotient, w.PROFILE_SCALES)
        if len(space) <= w.ORACLE_MAX_POINTS:
            add(key, space.dist, w.EXACT_SCALES)
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    answers = {}
    for key, dist, scales in oracle_keys():
        start = time.perf_counter()
        answers[key] = {"fingerprint": w.fingerprint(dist),
                        "dims": {f"{R},{B}": min_dimension_partition(Table(dist), R, B)
                                 for R, B in scales}}
        print(f"{key}: {time.perf_counter() - start:.1f}s", file=sys.stderr, flush=True)
    doc = {"oracle": "tests/oracles.py min_dimension_partition; null = no cover exists",
           "answers": answers}
    w.ANSWERS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
