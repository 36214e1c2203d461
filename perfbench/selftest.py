"""Smoke self-test of the benchmark on tiny A2 instances of each workload.

    python3 perfbench/selftest.py      # a few seconds; exit 0 iff it passes

Checks that every metric named in BENCHMARK.json is printed with its unit,
in both trace modes, that the exact counters repeat across seeds, and that a
planted wrong reference makes the run report error_rate > 0 and exit
nonzero.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from workloads import BuildMix, Deep, Grid  # noqa: E402

RHO = (1, 1)
# A2: L(rho) (x) L(rho) = 8 (x) 8 = 27 + 10 + 10* + 2*8 + 1, and three
# lambdas of another congruence class, which it cannot contain, so that tiny
# deep-d5 has the 20 targets a latency tail needs
A2_RHO_RHO = {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1,
              (1, 0): 0, (0, 1): 0, (2, 0): 0}
# counters that depend only on the workload and --seconds, not on the seed
EXACT = ("cone.columns", "cone.columns_kept", "mutation.subreps", "count.m",
         "exact.lp_calls", "exact.hnf_calls")


def tiny_workloads(refs, rho_rho=A2_RHO_RHO):
    deep = tuple((RHO, RHO, lam, c) for lam, c in sorted(rho_rho.items()))
    return {
        "grid-d4": Grid("A2", refs, box=2, setups=2),
        "deep-d5": Deep("A2", refs, deep, setups=2),
        # A3, as A2 has too few targets for a latency tail
        "build-mix": BuildMix(refs, families=("A2", "A3"), pruned=("A2",),
                              counted="A3", cones=("A4",), tv_only=("A5",)),
    }


def run_bench(table, workload, seed, trace):
    out, err = io.StringIO(), io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bench.main(argv, table)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1]), err.getvalue()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)["systems"]
    table = tiny_workloads(refs)
    problems = []

    for w in spec["workloads"]:
        name = w["name"]
        counters = []
        for trace, group in ((0, "end_to_end"), (1, "per_layer"),
                             (1, "per_layer")):
            seed = 1 + len(counters)
            code, lines, result, err = run_bench(table, name, seed, trace)
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append("%s trace %d: exit %d, %s" % (
                    name, trace, code, err.strip()))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s trace %d: metrics %s, expected %s"
                                % (name, trace, got, want))
            for metric, unit in want.items():
                if not any(line.split()[:1] == [metric] and
                           unit in line.split() for line in lines[:-1]):
                    problems.append("%s: %s not printed with unit %s"
                                    % (name, metric, unit))
            if not any(line.startswith("error_rate") for line in lines):
                problems.append("%s: error_rate not printed" % name)
            if trace:
                counters.append({k: result["metrics"][k]["value"]
                                 for k in EXACT})
        if counters[0] != counters[1]:
            problems.append("%s: exact counters differ across seeds: %s vs %s"
                            % (name, counters[0], counters[1]))

    planted_refs = json.loads(json.dumps(refs))
    planted_refs["A2"]["h_sha256"] = "0" * 64
    planted = tiny_workloads(planted_refs, {**A2_RHO_RHO, RHO: 3})
    for name in ("deep-d5", "build-mix"):
        code, lines, result, _err = run_bench(planted, name, 1, 0)
        rate = [line for line in lines if line.startswith("error_rate")]
        if code == 0 or result["failed"] == 0 or result["correct"] or \
                float(rate[0].split()[1]) <= 0:
            problems.append("%s: planted wrong reference not caught "
                            "(exit %d, %s)" % (name, code, rate))

    for p in problems:
        print("FAIL", p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
