"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-d4 --seed 1 --seconds 10 --trace 0

Each run is a fresh process, so the oracle's process memo and every
per-cone cache start cold, as for a CLI user.  Times are reference
seconds (see clock.py): wall seconds corrected for the host's changing
speed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the layer calls are spans and the metrics
are per-layer self times, counts and the tracing overhead.  The exit code
is 0 when every output is correct, 1 when any is wrong, and 2 when the
benchmark cannot run at all.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# spans whose summed self time is the per-layer metric <span>_s
LAYER_SPANS = ("arpresent.knit", "arpresent.catalog", "arpresent.ice",
               "mutation.fpoly", "pathalg.bruteforce", "cone.assemble",
               "cone.prune", "count.init", "count.count", "exact.lp",
               "exact.hnf", "lieoracle.decomp")
# span name -> per-layer metric of its number of calls
CALL_COUNTS = (
    ("exact.lp", "exact.lp_calls"),
    ("exact.hnf", "exact.hnf_calls"),
    ("lieoracle.decomp", "lieoracle.pairs"),
)


TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(run, clock):
    took = {}
    for label, a, b in run.counts:
        took.setdefault(label, []).append(clock.seconds(a, b))
    count_s = sum(map(sum, took.values()))
    # a target's latency is the median of its counts
    lat = sorted(statistics.median(t) for t in took.values())
    p50, _ = percentile(lat, 50)
    # the highest percentile with at least ten targets beyond it
    for tail in TAIL_PERCENTILES:
        tail_value, beyond = percentile(lat, tail)
        if beyond >= 10:
            break
    else:
        raise ValueError("%d targets are too few for a tail" % len(lat))
    metrics = {
        "setup_s": (statistics.median(
            sum(clock.seconds(a, b) for a, b in took) for took in run.setups),
            "s"),
        "counts_per_s": (len(run.counts) / count_s, "1/s"),
        "count_p50_ms": (p50 * 1e3, "ms"),
        "count_tail_ms": (tail_value * 1e3, "ms"),
        "check_s": (sum(clock.seconds(a, b) for a, b in run.checks), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(run.setups),
        "counts_per_s": "%d counts" % len(run.counts),
        "count_p50_ms": "%d targets" % len(lat),
        "count_tail_ms": "p%d of %d targets, %d beyond it"
                         % (tail, len(lat), beyond),
    }
    return metrics, notes


def per_layer(run, tracer, clock, wall_s):
    from spans import span_cost

    summary = tracer.summary(clock.seconds)
    metrics, covered = {}, 0.0
    for span in LAYER_SPANS:
        self_s = summary.get(span, (0, 0.0, 0.0))[1]
        covered += self_s
        metrics[span + "_s"] = (self_s, "s")
    for span, name in CALL_COUNTS:
        metrics[name] = (summary.get(span, (0, 0.0, 0.0))[0], "count")
    metrics["mutation.fpoly_max_s"] = (
        summary.get("mutation.fpoly", (0, 0.0, 0.0))[2], "s")
    for name, value in sorted(run.sizes.items()):
        metrics[name] = (value, "count")
    metrics["other_s"] = (wall_s - covered, "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (len(tracer.spans) * span_cost()
                                   * statistics.median(clock.rates()), "s")
    return metrics, {"other_s": "time outside every span",
                     "trace.overhead_s": "span count x measured cost "
                                         "of one span"}


def main(argv=None, workload_table=None):
    """Run the benchmark; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "arcones", "__init__.py")):
        print("error: arcones sources not found under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from clock import Clock
    from spans import Tracer
    from workloads import Run, workloads

    if workload_table is None:
        with open(os.path.join(HERE, "references.json")) as fh:
            workload_table = workloads(json.load(fh))
    if args.workload not in workload_table:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(sorted(workload_table))),
              file=sys.stderr)
        return 2
    workload = workload_table[args.workload]

    clock = Clock()
    tracer = Tracer(bool(args.trace))
    run = Run(tracer, random.Random(args.seed), args.seconds)
    with clock.running(), tracer.wrapped():
        t0 = time.perf_counter()
        workload.run(run)
        t1 = time.perf_counter()
    wall_s = clock.seconds(t0, t1)

    if args.trace:
        metrics, notes = per_layer(run, tracer, clock, wall_s)
    else:
        metrics, notes = end_to_end(run, clock)
    for failure in run.failures:
        print("WRONG %s" % failure, file=sys.stderr)
    rates = sorted(clock.rates())
    print("# workload %s seed %d seconds %d trace %d: %.3f wall s, %.3f "
          "reference s; host rate %.3f of reference (median of %d samples, "
          "%.3f to %.3f)" % (args.workload, args.seed, args.seconds,
                             args.trace, t1 - t0, wall_s,
                             statistics.median(rates), len(rates), rates[0],
                             rates[-1]))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-22s %14.6g %-5s%s" % (name, value, unit,
                                        "  (%s)" % note if note else ""))
    print("%-22s %14.6g %-5s  (%d wrong of %d outputs)"
          % ("error_rate", run.failed / run.attempted, "1",
             run.failed, run.attempted))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
