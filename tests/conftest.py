"""Shared test settings.

Property tests run under one deterministic hypothesis profile: the same
examples on every run, no per-example deadline (timings on a loaded
machine are not a property of the code) and a bounded example count, so
the suite stays reproducible and its run time stays flat.  Hypothesis is
an optional test dependency; without it only the property tests skip.

The package is imported from the checkout's src/ (pyproject.toml sets
pytest's pythonpath), and so are the CLI subprocesses some tests start:
src/ is put first on their PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH")) if p)

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - the property tests skip themselves
    pass
else:
    settings.register_profile(
        "deterministic", derandomize=True, deadline=None, max_examples=150,
        database=None, suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("deterministic")


@pytest.fixture
def lebesgue_calls(monkeypatch):
    """The names of the covers whose Lebesgue number is computed, in order.
    Every computation inside covers.certify and verify_certificate goes
    through covers.lebesgue_number, at every point or (with an action that
    leaves the cover invariant) at the orbit-least points it is passed,
    which this replaces with a counter."""
    import coarsedim.covers

    calls = []
    original = coarsedim.covers.lebesgue_number

    def counting(c, *points):
        calls.append(c.name)
        return original(c, *points)

    monkeypatch.setattr(coarsedim.covers, "lebesgue_number", counting)
    return calls


@pytest.fixture
def quotient_builds(monkeypatch):
    """The actions whose quotient table is built, in order.  Each build in
    groups.quotient calls groups.orbits once, which this replaces with a
    counter; a quotient returned as kept builds nothing."""
    import coarsedim.groups

    builds = []
    original = coarsedim.groups.orbits

    def counting(a):
        builds.append(a.name)
        return original(a)

    monkeypatch.setattr(coarsedim.groups, "orbits", counting)
    return builds


@pytest.fixture
def integer_table_builds(monkeypatch):
    """The distance tables scaled to integer tables, in order.  A space
    scales its table through metric._integer_rows, which this replaces with
    a counter; a table of plain ints is its own integer table and builds
    none, and so does a loaded or quotient table, whose integer rows come
    from the pass that builds it."""
    import coarsedim.metric

    builds = []
    original = coarsedim.metric._integer_rows

    def counting(dist):
        builds.append(dist)
        return original(dist)

    monkeypatch.setattr(coarsedim.metric, "_integer_rows", counting)
    return builds
