#!/usr/bin/env python3
"""Seeded benchmark of connsys: one workload per process, single-threaded.

    python3 perfbench/run.py --workload scale --seed 0 --seconds 40 --trace 0

The generator turns the seed into instances and a job list.  The run then
repeats cycles of one set-up (build and validate every instance) and one
round of the whole job list until --seconds have passed, with at least three
cycles.  Each instance's set-up and each job is timed at its mean over the
cycles.  The first round's results are checked against the reference module
and later rounds must reproduce them exactly.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
records a span around every call into connsys instead, reports the per-layer
metrics (per cycle) and writes the spans to perfbench/traces/.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Set-ups and jobs are timed at their mean over at least three cycles spread
# over the whole run.  On a shared machine that runs a third slower for
# stretches of up to a minute, the fastest repeat jumps with whether a run
# caught any fast stretch, and the median with whether fast stretches held
# half of it; the mean moves only in proportion to the slow share.
MIN_CYCLES = 3
TAIL_JOBS_BEYOND = 10

SPAN_METRICS = (
    "core.build",
    "core.values",
    "core.keff",
    "core.planted",
    "families.check",
    "construction.construct",
    "construction.extend",
    "construction.generate",
    "construction.enumerate",
    "construction.enumerate_first",
    "construction.ufnum",
    "decomposition.branch",
    "decomposition.linear",
    "decomposition.cert_eval",
    "decomposition.duality",
    "orders.theorem_audit",
    "orders.antichain",
    "orders.chain_cover",
    "orders.sequence_chain",
    "serialization.load",
)
COUNT_METRICS = (
    ("core.validated_pairs", "count"),
    ("core.efficient_sets", "count"),
    ("families.check_calls", "count"),
    ("construction.construct_ops", "count"),
    ("construction.families_found", "count"),
    ("serialization.report_bytes", "bytes"),
)


def load_program():
    """Import connsys from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "connsys", "__init__.py")):
        sys.stderr.write(f"connsys sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import connsys

    if os.path.dirname(os.path.dirname(os.path.abspath(connsys.__file__))) != SRC:
        sys.stderr.write(f"imported connsys from {connsys.__file__}, not from {SRC}\n")
        sys.exit(2)


def tail_percentile(jobs: int) -> int:
    """The highest whole percentile with at least TAIL_JOBS_BEYOND of `jobs` jobs beyond it."""
    return max(p for p in range(50, 100) if jobs - math.ceil(p / 100 * jobs) >= TAIL_JOBS_BEYOND)


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(workload, tr, seconds: float):
    """Cycles of one set-up and one round of jobs until `seconds` have passed.

    Returns the per-cycle set-up times per instance, the per-round job times,
    the job list, the first round's results and the rounds that differ from it.
    """
    setups: list[dict[str, float]] = []
    rounds: list[list[float]] = []
    first: dict[int, object] = {}
    problems: list[str] = []
    jobs = None
    started = time.perf_counter()
    while len(rounds) < MIN_CYCLES or time.perf_counter() - started < seconds:
        tr.phase = "setup"
        setups.append(workload.setup(tr))
        if jobs is None:
            jobs = workload.jobs()
        tr.phase = "solve"
        done: dict[int, object] = {}
        times = []
        for i, job in enumerate(jobs):
            tr.job = f"{len(rounds)}:{i}"
            t0 = time.perf_counter()
            try:
                result = tr.call("job", job.run, tr, done)
            except Exception as exc:  # an operation that breaks is counted, not fatal
                result = ("raised", type(exc).__name__, str(exc))
            times.append(time.perf_counter() - t0)
            done[i] = result
            if not rounds:
                first[i] = result
            elif result != first[i]:
                problems.append(f"{job.name}: round {len(rounds)} differs from round 0")
        rounds.append(times)
    return setups, rounds, jobs, first, problems


def judge(jobs, first) -> tuple[list[bool], list[str]]:
    """Check every first-round result; returns per-job failure flags and problems."""
    failed, problems = [], []
    for i, job in enumerate(jobs):
        result = first[i]
        if isinstance(result, tuple) and result and result[0] == "raised":
            failed.append(True)
            print(f"FAILED {job.name}: {result[1]}: {result[2]}")
            continue
        bad, problem = job.check(result, first)
        failed.append(bad)
        if bad:
            print(f"FAILED {job.name}")
        if problem:
            problems.append(f"{job.name}: {problem}")
    return failed, problems


def end_to_end(setups, rounds, jobs, rss_kb: int) -> dict:
    per_job = [statistics.fmean(times) for times in zip(*rounds)]
    p = tail_percentile(len(per_job))
    p50 = statistics.median(per_job)
    solve = sum(per_job)
    print(f"{len(rounds)} cycles; {len(per_job)} jobs, each timed as its mean over {len(rounds)} rounds; "
          f"tail is p{p} with {len(per_job) - math.ceil(p / 100 * len(per_job))} jobs beyond it")
    for op in sorted({job.op for job in jobs}):
        mine = [t for job, t in zip(jobs, per_job) if job.op == op]
        print(f"  {op:18s} {len(mine):4d} jobs, {sum(mine) / solve:6.1%} of solve_s, "
              f"{sum(t <= p50 for t in mine):4d} at or below p50, slowest {max(mine) * 1000:.3f} ms")
    return {
        "setup_s": (sum(statistics.fmean(s[name] for s in setups) for name in setups[0]), "s"),
        "solve_s": (solve, "s"),
        "job_p50_ms": (p50 * 1000, "ms"),
        "job_tail_ms": (percentile(per_job, p) * 1000, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tr, rounds) -> dict:
    """Per-layer values for one cycle: one set-up and one round of jobs."""
    n = len(rounds)
    selfs = tr.self_times()
    out = {}
    for name in SPAN_METRICS:
        out[name + "_s"] = ((selfs["setup"][name] + selfs["solve"][name]) / n, "s")
    for name, unit in COUNT_METRICS:
        out[name] = ((tr.counts["setup"][name] + tr.counts["solve"][name]) / n, unit)
    out["cli.main_s"] = (tr.duration("cli.main") / n, "s")
    out["cli.self_s"] = (selfs["solve"]["cli.main"] / n, "s")
    out["trace.solve_s"] = (sum(statistics.fmean(times) for times in zip(*rounds)), "s")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scale", "small"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    load_program()
    sys.path.insert(0, HERE)
    import generate
    import jobs as jobmod
    import spans

    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    traced = bool(args.trace)
    try:
        workload = jobmod.Workload(generate.plan(args.workload, args.seed, workdir))
        tr = spans.Tracer() if traced else spans.NullTracer()
        setups, rounds, job_list, first, problems = measure(workload, tr, args.seconds)
        # Read before the checks, whose reference tables are the benchmark's, not the program's.
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems += workload.setup_problems()
        failed_flags, check_problems = judge(job_list, first)
        problems += check_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        metrics = per_layer(tr, rounds)
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json")
        tr.write(path)
        print(f"spans: {len(tr.spans)} written to {os.path.relpath(path)}")
    else:
        metrics = end_to_end(setups, rounds, job_list, rss_kb)
    attempted = len(job_list) * len(rounds)
    failed = sum(failed_flags) * len(rounds)
    for problem in problems:
        print(f"WRONG {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}, checks {'passed' if not problems else 'FAILED'}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
