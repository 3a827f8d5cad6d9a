"""Benchmark of coarsedim, one workload per process.

    python3 bench/run.py --workload grid_cli --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from src/.
One client, closed loop: each op starts when the previous one has finished,
in this single thread.  The run first sets up SETUP_REPEATS times (import
coarsedim afresh, make the inputs from --seed, write the input documents)
and keeps the last set-up; then it makes passes over the workload's ops
until --seconds have gone by, and at least MIN_PASSES; then it checks the
outputs of the first pass with the benchmark's own code (checks.py) and
every later pass against the first, byte for byte.  None of the checking
is timed.  An op fails when it raises, exits with an unexpected code,
fails its check, or writes anything different from its first repeat.
Every reported time is divided by the machine's slowdown measured next to
it (speed.py), so that runs minutes apart share one scale.

The last line of standard output is the result, as one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (END_TO_END).  With --trace 1 the run
alternates untraced and traced passes and reports the per-layer metrics
(LAYER_METRICS) from the traced ones; spans of the set-up and of the first
traced pass go to .bench_out/<workload>.spans.jsonl.  The line before the
result is a report: the input manifest, sample counts, latency_p90_ms where
a run has at least 100 ops, verify_s where the workload has validate ops,
error_rate, the first failures, and the raw times with the run's slowdown.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2
SUBPROCESS_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
              "latency_p50_ms": "ms", "peak_rss_mib": "MiB"}

LAYER_METRICS = {
    "metric.validate_metric.calls": "count",
    "metric.validate_metric.self_s": "s",
    "metric.build_graph_metric.self_s": "s",
    "covers.lebesgue_number.calls": "count",
    "covers.lebesgue_number.self_s": "s",
    "covers.certify.calls": "count",
    "covers.certify.self_s": "s",
    "covers.verify_certificate.self_s": "s",
    "covers.mesh.calls": "count",
    "covers.dimension.calls": "count",
    "estimation.min_dimension_cover_exact.calls": "count",
    "estimation.min_dimension_cover_exact.self_s": "s",
    "estimation.greedy_cover.self_s": "s",
    "estimation.family_profile.self_s": "s",
    "estimation.exact.infeasible": "count",
    "estimation.exact.dimension_total": "count",
    "constructions.lift_equivariant.self_s": "s",
    "constructions.pushforward_cover.self_s": "s",
    "constructions.displacement_subgroup.calls": "count",
    "groups.quotient.calls": "count",
    "groups.quotient.self_s": "s",
    "groups.validate_action.self_s": "s",
    "groups.generated_subgroup.self_s": "s",
    "formats.load.self_s": "s",
    "formats.write.self_s": "s",
    "formats.bytes_read": "B",
    "formats.bytes_written": "B",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.subprocess_ms": "ms",
    "trace.overhead": "ratio",
}
# Measured on the set-up, where the spaces are built, not on the passes.
SETUP_LAYER_METRICS = {"metric.build_graph_metric.self_s"}


def is_load(name: str) -> bool:
    return name in ("formats.parse_document", "formats.load_entry") or \
        (name.startswith("formats.") and name.endswith("_from_dict"))


def is_write(name: str) -> bool:
    return name in ("formats.dumps", "formats.profile_to_csv") or \
        (name.startswith("formats.") and name.endswith("_to_dict"))


def run_pass(lib, ops, state, probe, tracer=None) -> dict:
    """One pass over the ops; returns its timings, raw and divided by the
    machine's slowdown next to each op.  state collects the first repeat of
    every op and counts attempts and mismatches."""
    gc.collect()
    raw_lat, raw_cpu, spans = [], [], []
    index = len(state["passes"])
    for i, op in enumerate(ops):
        arg = op.prepare(lib)
        probe.sample()
        if tracer is not None:
            tracer.op = f"{index}.{i}"
        c0, t0 = process_time(), perf_counter()
        try:
            outcome, error = op.run(lib, arg), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = perf_counter(), process_time()
        raw_lat.append(t1 - t0)
        raw_cpu.append(c1 - c0)
        spans.append((t0, t1))
        record = op.collect(outcome) if error is None else {"raised": error}
        state["attempted"] += 1
        state["runs"][i] += 1
        if state["first"][i] is None:
            state["first"][i] = record
        elif record != state["first"][i]:
            state["mismatches"][i] += 1
    probe.sample(force=True)
    slow = [probe.slowdown(t0, t1) for t0, t1 in spans]
    return {"lat": [t / s for t, s in zip(raw_lat, slow)],
            "cpu": [t / s for t, s in zip(raw_cpu, slow)],
            "raw_lat": raw_lat, "raw_cpu": raw_cpu, "slowdown": statistics.median(slow)}


def pass_time(passes, key="lat", ops=None) -> float:
    """Time of one pass: the sum over ops (or over the ops given) of each
    op's median over the passes.  A slow stretch of the machine then moves
    the figure only if it hits the same op in most passes."""
    picked = range(len(passes[0][key])) if ops is None else ops
    return sum(statistics.median(p[key][i] for p in passes) for i in picked)


def timed(probe, fn):
    """fn's result and its time divided by the machine's slowdown."""
    probe.sample(force=True)
    t0 = perf_counter()
    result = fn()
    t1 = perf_counter()
    probe.sample(force=True)
    return result, (t1 - t0) / probe.slowdown(t0, t1)


def subprocess_probe(lib, work, probe, failures) -> float:
    """The smallest exact_cli op through `python -m coarsedim.cli`, minus the
    same op in-process, in milliseconds (medians of a few runs each)."""
    op = workloads.smallest_exact_op(lib, work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    inside, outside = [], []
    for _ in range(SUBPROCESS_REPEATS):
        argv = op.prepare(lib)
        (code, *_), took = timed(probe, lambda: op.run(lib, argv))
        inside.append(took)
        argv = op.prepare(lib)
        proc, took = timed(probe, lambda: subprocess.run(
            [sys.executable, "-m", "coarsedim.cli", *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120))
        outside.append(took)
        if code != 0 or proc.returncode != 0:
            failures.append(f"{op.label}: exit {code} in-process, {proc.returncode} "
                            f"in a subprocess: {proc.stderr.strip()}")
    return (statistics.median(outside) - statistics.median(inside)) * 1000


def check_outputs(ops, state) -> tuple[int, list[str]]:
    """Failed op runs and their reasons.  Every run of an op whose first
    repeat fails its check is failed; otherwise each repeat that differs
    from the first is."""
    failed, failures = 0, []
    for i, op in enumerate(ops):
        first = state["first"][i]
        try:
            problems = [first["raised"]] if "raised" in first else op.check(first)
        except Exception as exc:  # malformed output must not stop the report
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += state["runs"][i]
            failures.append(f"{op.label}: {'; '.join(problems)}")
        elif state["mismatches"][i]:
            failed += state["mismatches"][i]
            failures.append(f"{op.label}: {state['mismatches'][i]} repeats "
                            f"differ from the first")
    return failed, failures


def layer_values(traced, setup_stats, setup_slowdown, exact) -> dict:
    """Per-layer metrics from the traced passes: call counts from the first
    (they repeat exactly), self times as the median over passes, each pass
    divided by its slowdown."""
    first = traced[0]["stats"]

    def self_s(match):
        return statistics.median(
            sum(s[1] for n, s in p["stats"].items() if match(n)) / p["slowdown"]
            for p in traced)
    values = {"formats.load.self_s": self_s(is_load),
              "formats.write.self_s": self_s(is_write),
              "estimation.exact.infeasible": exact[0],
              "estimation.exact.dimension_total": exact[1]}
    for metric in LAYER_METRICS:
        fn, _, stat = metric.rpartition(".")
        if metric in values or stat not in ("calls", "self_s"):
            continue
        if metric in SETUP_LAYER_METRICS:
            values[metric] = setup_stats.get(fn, (0, 0.0))[1] / setup_slowdown
        elif stat == "calls":
            values[metric] = first.get(fn, (0, 0.0))[0]
        else:
            values[metric] = self_s(fn.__eq__)
    return values


def set_up(build, seed, work):
    lib = workloads.import_library()
    return lib, build(lib, seed, work)


def run(args, work: Path):
    build = workloads.BUILDERS[args.workload]
    probe = speed.SpeedProbe()

    setups = []
    tracer = None
    if args.trace:
        lib = workloads.import_library()
        tracer = tracing.Tracer()
        tracer.install()
        tracer.recording = True
        probe.sample(force=True)
        t0 = perf_counter()
        wl = build(lib, args.seed, work)
        t1 = perf_counter()
        probe.sample(force=True)
        setup_slowdown = probe.slowdown(t0, t1)
        setup_stats = tracer.take_stats()
        tracer.recording = False
        tracer.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            (lib, wl), took = timed(probe, lambda: set_up(build, args.seed, work))
            setups.append(took)

    ops = wl.ops
    state = {"attempted": 0, "passes": [], "first": [None] * len(ops),
             "runs": [0] * len(ops), "mismatches": [0] * len(ops)}
    exact_results = []
    exact = (0, 0)
    if tracer is not None:
        def observe(result):   # a Cover, or an Infeasible record
            exact_results.append(checks.dimension(result.members, len(result.space))
                                 if hasattr(result, "members") else None)
        tracer.observers["estimation.min_dimension_cover_exact"] = observe
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    start = perf_counter()
    while len(state["passes"]) < min_passes or perf_counter() - start < args.seconds:
        traced = tracer is not None and len(state["passes"]) % 2 == 1
        if traced:
            first_traced = not any(p["traced"] for p in state["passes"])
            tracer.install()
            tracer.recording = first_traced
            exact_results.clear()
        p = run_pass(lib, ops, state, probe, tracer if traced else None)
        p["traced"] = traced
        if traced:
            tracer.uninstall()
            tracer.recording = False
            p["stats"] = tracer.take_stats()
            if first_traced:
                exact = (exact_results.count(None),
                         sum(d for d in exact_results if d is not None))
        state["passes"].append(p)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = state["attempted"]
    failed, failures = check_outputs(ops, state)

    untraced = [p for p in state["passes"] if not p["traced"]]
    lat = [x for p in untraced for x in p["lat"]]
    wall = pass_time(untraced)
    if tracer is None:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": wall,
                  "cpu_s": pass_time(untraced, "cpu"),
                  "ops_per_s": len(ops) / wall,
                  "latency_p50_ms": statistics.median(lat) * 1000,
                  "peak_rss_mib": peak_rss_mib}
        units = END_TO_END
    else:
        traced = [p for p in state["passes"] if p["traced"]]
        values = layer_values(traced, setup_stats, setup_slowdown, exact)
        values["formats.bytes_read"] = sum(r["bytes_read"] for r in state["first"]
                                           if "raised" not in r)
        values["formats.bytes_written"] = sum(r["bytes_written"] for r in state["first"]
                                              if "raised" not in r)
        probe_failures = []
        values["cli.subprocess_ms"] = subprocess_probe(lib, work, probe, probe_failures)
        attempted += 2 * SUBPROCESS_REPEATS
        failed += len(probe_failures)
        failures += probe_failures
        values["trace.overhead"] = pass_time(traced) / wall
        units = LAYER_METRICS
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{args.workload}.spans.jsonl")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops_per_pass": len(ops), "passes": len(untraced),
              "latency_samples": len(lat),
              "error_rate": failed / attempted, "failures": failures[:20],
              "manifest": wl.manifest}
    if len(lat) >= 100:
        report["latency_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1000
    verify_ops = [i for i, op in enumerate(ops) if op.verify]
    if verify_ops:
        report["verify_s"] = pass_time(untraced, ops=verify_ops)
    report["slowdown"] = statistics.median(p["slowdown"] for p in untraced)
    report["raw_wall_s"] = pass_time(untraced, "raw_lat")
    report["raw_cpu_s"] = pass_time(untraced, "raw_cpu")
    report["raw_latency_p50_ms"] = statistics.median(
        x for p in untraced for x in p["raw_lat"]) * 1000
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coarsedim benchmark, one workload")
    parser.add_argument("--workload", required=True,
                        choices=("grid_cli", "exact_cli", "invariant_corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coarsedim" / "__init__.py").is_file():
        print(f"bench: no coarsedim package at {SRC}; run inside a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        report, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
