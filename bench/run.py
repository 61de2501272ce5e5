#!/usr/bin/env python3
"""Benchmark for semtax.

    python3 bench/run.py --workload {gap,wide_taxonomy,deep_taxonomy} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  A run makes its inputs from the seed and times ``setup()``
``SETUP_REPEATS`` times.  It then repeats the workload's batch job until
``--seconds`` have passed (at least ``MIN_REPEATS`` times) and checks
every output.  Times are seconds at reference speed (see ``speed.py``);
the ``#`` lines give the wall-clock medians as well.

``--trace 0`` measures with no wrappers installed and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced
repeats.  It reports the per-layer metrics of the traced repeats
(medians) and prints the tracing overhead.

Lines starting with ``#`` are for people.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# a fixed count, so that faster set-up does not mean more set-ups and
# another peak RSS
SETUP_REPEATS = 7
MIN_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 90)
# the stage whose wall time gives categorize throughput
CATEGORIZE_STAGE = {"wide_taxonomy": "cli", "deep_taxonomy": "categorize"}


def _import_program():
    """Import semtax from this checkout's ``src/``, never from elsewhere."""
    # one thread: keep numpy/scipy from starting a BLAS pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    try:
        import semtax
    except ImportError as exc:
        raise SystemExit("error: cannot import semtax from %s: %s" % (SRC, exc))
    if not os.path.abspath(semtax.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: semtax was imported from %s, not %s" % (semtax.__file__, SRC))


def describe(samples: list) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return "median of %d, p%g %.6g" % (
                n, p, statistics.quantiles(samples, n=1000)[round(p * 10) - 1])
    return "median of %d, too few samples for a tail percentile" % n


def _line(name, value, unit, note=""):
    print("# %-22s %12.6g %-4s %s" % (name, value, unit, note))


def run_batch(workload, stages, clock, tracer=None):
    """One pass of the batch job.  Returns the seconds of every stage and
    of the batch, the batch's wall seconds, the traced stats of every
    stage, and (attempted, failed) over the checked outputs."""
    seconds, traced = {}, []
    wall = 0.0
    attempted = failed = 0
    for name, run in stages:
        if tracer is None:
            output, dt, seconds[name] = clock.time(run)
        else:
            with tracer.stage(name) as stats:
                output, dt, seconds[name] = clock.time(run)
            traced.append((name, stats))
        wall += dt
        a, f = workload.check(name, output)
        attempted += a
        failed += f
    seconds["batch"] = sum(seconds.values())
    return seconds, wall, traced, attempted, failed


def _speed_lines(clock, walls):
    _line("batch_wall_s", statistics.median(walls), "s", "wall clock, " + describe(walls))
    _line("machine_speed", clock.speed(), "", "reference loop, baseline machine = 1")


def end_to_end(args, workload, stages, shape, setup_times, clock):
    timings = defaultdict(list)
    walls = []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    while len(walls) < MIN_REPEATS or perf_counter() < deadline:
        seconds, wall, _, a, f = run_batch(workload, stages, clock)
        for name, dt in seconds.items():
            timings[name].append(dt)
        walls.append(wall)
        attempted += a
        failed += f
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name in ("experiment", "committee", "calibrate"):
        t = timings.get(name)
        if t:
            _line(name + "_s", statistics.median(t), "s", describe(t))
    _line("setup_s", statistics.median(setup_times), "s", describe(setup_times))
    stage = CATEGORIZE_STAGE.get(args.workload)
    if stage:
        docs = shape["documents"]
        rates = [docs / t for t in timings[stage]]
        _line("categorize_docs_per_s", statistics.median(rates), "1/s", describe(rates))
    _line("batch_s", statistics.median(timings["batch"]), "s", describe(timings["batch"]))
    _speed_lines(clock, walls)
    _line("peak_rss_mb", peak_rss_mb, "MB", "this process, which runs only this workload")
    _line("failed_frac", failed / attempted, "", "%d of %d operations" % (failed, attempted))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "batch_s": (statistics.median(timings["batch"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed


def traced(args, workload, stages, clock):
    """Alternate untraced and traced passes, so that both see the same
    machine load, and report the per-layer metrics of the traced ones."""
    from tracer import LAYER_METRICS, StageStats, Tracer

    tracer = Tracer()
    with tracer:
        with tracer.stage("setup") as setup_stats:
            workload.setup()
    untraced, traced_s, walls, repeats = [], [], [], []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    while len(repeats) < MIN_REPEATS or perf_counter() < deadline:
        seconds, wall, _, a0, f0 = run_batch(workload, stages, clock)
        untraced.append(seconds["batch"])
        walls.append(wall)
        with tracer:
            seconds, _, stats, a1, f1 = run_batch(workload, stages, clock, tracer)
        traced_s.append(seconds["batch"])
        repeats.append(stats)
        attempted += a0 + a1
        failed += f0 + f1
    per_repeat = []
    for repeat in repeats:
        total = StageStats()
        for _, stats in repeat:
            total.merge(stats)
        per_repeat.append(total.layer_metrics())
    for name, stats in [("setup", setup_stats)] + repeats[0]:
        nonzero = {k: round(v, 6) for k, v in stats.layer_metrics().items() if v}
        print("# trace stage %s %s" % (name, json.dumps(nonzero, sort_keys=True)))
    off = statistics.median(untraced)
    on = statistics.median(traced_s)
    _line("batch_s untraced", off, "s", describe(untraced))
    _line("batch_s traced", on, "s", describe(traced_s))
    _line("tracing_overhead", on / off - 1, "", "traced / untraced - 1")
    _speed_lines(clock, walls)
    _line("failed_frac", failed / attempted, "", "%d of %d operations" % (failed, attempted))
    metrics = {
        name: (statistics.median(m[name] for m in per_repeat), unit)
        for name, (unit, _) in LAYER_METRICS.items()
    }
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from speed import Clock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        clock = Clock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            # one set-up alive at a time; the recursive helpers of the
            # taxonomy constructor leave cycles that only the collector frees
            state = None
            gc.collect()
            state, _, dt = clock.time(workload.setup)
            setup_times.append(dt)
        shape = workload.shape(state)
        print("# workload %s seed %d shape %s" % (
            args.workload, args.seed, json.dumps(shape, sort_keys=True)))
        # the stages keep what they need of the set-up and nothing else
        # does: the CLI of wide_taxonomy loads its own inputs, so
        # peak_rss_mb must not count the set-up's copy too
        stages = workload.stages(state)
        state = None
        gc.collect()
        if args.trace:
            metrics, attempted, failed = traced(args, workload, stages, clock)
        else:
            metrics, attempted, failed = end_to_end(
                args, workload, stages, shape, setup_times, clock)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
