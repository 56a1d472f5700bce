#!/usr/bin/env python3
"""A/B comparison of two revisions on one perfbench workload.

Usage, from the repository root:

    python3 tools/ab.py --parent REV [--change REV] --workload NAME
                        [--pairs N] [--seeds 1,2,...] [--work DIR]

Each revision is resolved to its commit id, and that commit's files
are exported (git archive) into .ab_cache/<commit>/tree and built into
.ab_cache/<commit>/build by the tree's own perfbench/run.py (a
zero-second run, which also warms it up), so neither side sees the
other's sources or build. The cache outlives the invocation: a later
one at the same commit reuses the tree and its build and neither
re-exports nor rebuilds. An export is always a commit, never the
working tree, so uncommitted edits can never enter the cache. Delete
.ab_cache to reclaim the space. Then the two sides run in ABBA order
for N pairs:
pair i runs the parent first when i is even and the change first when
i is odd, both at seed seeds[i % len(seeds)], so a slow drift of the
host hits both sides alike. Every run lasts the `run_seconds` that the
change tree's BENCHMARK.json fixes.

Per end-to-end metric it prints each side's median and IQR (as a share
of the median), how many pairs the change won (by the metric's
direction in BENCHMARK.json; ties count as neither) and the two-sided
sign-test p-value over the untied pairs. Then one extra `--trace 1`
run per side prints the per-layer metrics side by side.

The exit status is 1 if any run exits nonzero or reports `correct`
false (an output or golden check failed), or if `sim_p50_us` or
`sim_p99_us` differ between the two runs of any pair (the simulated
results must not move); 2 on a usage or build error; 0 otherwise.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Simulated outputs that must be equal within a pair.
SAME_IN_PAIR = ("sim_p50_us", "sim_p99_us")


# Exported and built trees, one per commit id, kept across invocations.
CACHE = os.path.join(ROOT, ".ab_cache")


def resolve(rev):
    """The commit id @rev names."""
    return subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        stdout=subprocess.PIPE, check=True, text=True).stdout.strip()


def export(rev, dest):
    """Write @rev's committed tree into @dest (which must not exist)."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def prepare(name, rev, build_args, log, failures):
    """The side @name running @rev: its commit's cached tree and build,
    exported and built (one perfbench run with @build_args) only when
    the cache does not already hold a good build of that commit."""
    commit = resolve(rev)
    base = os.path.join(CACHE, commit)
    side = {"name": name, "rev": rev, "tree": os.path.join(base, "tree"),
            "build": os.path.join(base, "build")}
    built = os.path.join(base, "built")
    if not os.path.exists(built):
        shutil.rmtree(base, ignore_errors=True)  # a half-made entry
        export(commit, side["tree"])
        ok = len(failures)
        perfbench(side, build_args, log, failures)
        if len(failures) == ok:
            open(built, "w").close()
    return side


def perfbench(side, args, log, failures):
    """Run @side's perfbench/run.py with @args; return its JSON result.
    A nonzero exit or `correct` false is appended to @failures."""
    env = dict(os.environ, CARGO_TARGET_DIR=side["build"])
    run = subprocess.run(
        [sys.executable, os.path.join(side["tree"], "perfbench", "run.py")]
        + args, cwd=side["tree"], env=env, stdout=subprocess.PIPE,
        stderr=log, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s: no output (exit %d)" %
                           (side["name"], run.returncode))
    log.write("%s %s: %s\n" % (side["name"], " ".join(args), lines[-1]))
    log.flush()
    result = json.loads(lines[-1])
    if run.returncode != 0 or result.get("correct") is not True:
        failures.append("%s %s: exit %d, correct %r" %
                        (side["name"], " ".join(args), run.returncode,
                         result.get("correct")))
    return result


def quartiles(xs):
    """(q1, median, q3) by linear interpolation."""
    s = sorted(xs)

    def q(p):
        k = (len(s) - 1) * p
        lo = math.floor(k)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (k - lo)

    return q(0.25), q(0.5), q(0.75)


def sign_test(wins, losses):
    """Two-sided exact sign-test p-value for @wins of @wins + @losses."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def benchmark_spec(tree):
    """@tree's BENCHMARK.json: (run seconds, metric name -> "lower" or
    "higher")."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m.get("better", "lower")
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    return spec["run_seconds"], better


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse(argv):
    ap = argparse.ArgumentParser(
        description="ABBA perfbench comparison of two revisions.")
    ap.add_argument("--parent", required=True, help="baseline revision")
    ap.add_argument("--change", default="HEAD", help="revision under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seeds", default="1",
                    help="comma-separated; pair i uses seeds[i %% len]")
    ap.add_argument("--work", default=os.path.join(ROOT, ".ab"),
                    help="scratch directory (must not exist yet)")
    a = ap.parse_args(argv)
    a.seeds = [int(s) for s in a.seeds.split(",") if s]
    if a.pairs < 1 or not a.seeds:
        ap.error("need --pairs >= 1 and one seed")
    return a


def main(argv):
    a = parse(argv)
    if os.path.exists(a.work):
        print("ab: %s exists; pass a fresh --work" % a.work,
              file=sys.stderr)
        return 2
    os.makedirs(a.work)
    log = open(os.path.join(a.work, "runs.log"), "w")
    base_args = ["--workload", a.workload, "--trace", "0"]
    failures = []
    try:
        sides = [prepare(name, rev, base_args + ["--seconds", "0"], log,
                         failures)
                 for name, rev in (("parent", a.parent),
                                   ("change", a.change))]
        try:
            seconds, better = benchmark_spec(sides[1]["tree"])
        except (OSError, ValueError, KeyError) as e:
            print("ab: change tree's BENCHMARK.json: %r" % e,
                  file=sys.stderr)
            return 2
        runs = {"parent": [], "change": []}
        for i in range(a.pairs):
            seed = a.seeds[i % len(a.seeds)]
            order = sides if i % 2 == 0 else sides[::-1]
            pair = {}
            for side in order:
                pair[side["name"]] = perfbench(
                    side, base_args + ["--seed", str(seed),
                                       "--seconds", str(seconds)], log,
                    failures)
            p, c = pair["parent"], pair["change"]
            pv, cv = values(p), values(c)
            for key in SAME_IN_PAIR:
                if pv.get(key) != cv.get(key):
                    failures.append("pair %d: %s %r vs %r" %
                                    (i, key, pv.get(key), cv.get(key)))
            runs["parent"].append(p)
            runs["change"].append(c)
            print("pair %d seed %d: %s first; wall_s %.4g vs %.4g" %
                  (i, seed, order[0]["name"], pv.get("wall_s", 0.0),
                   cv.get("wall_s", 0.0)), file=sys.stderr)
        traced = {}
        for side in sides:
            traced[side["name"]] = values(perfbench(
                side, ["--workload", a.workload, "--trace", "1",
                       "--seed", str(a.seeds[0]),
                       "--seconds", str(seconds)], log, failures))
    except (RuntimeError, subprocess.CalledProcessError,
            json.JSONDecodeError) as e:
        print("ab: %s (see %s)" % (e, log.name), file=sys.stderr)
        return 2
    finally:
        log.close()

    print("%s: %s (parent) vs %s (change), %d ABBA pairs, %g s, seeds %s"
          % (a.workload, a.parent, a.change, a.pairs, seconds,
             ",".join(map(str, a.seeds))))
    print("%-14s %12s %8s %12s %8s %8s %6s %8s" %
          ("metric", "parent", "IQR%", "change", "IQR%", "delta%", "wins",
           "p"))
    for key in runs["parent"][0]["metrics"]:
        pa = [values(r)[key] for r in runs["parent"]]
        ch = [values(r)[key] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(pa)
        cq1, cmed, cq3 = quartiles(ch)
        lower = better.get(key, "lower") == "lower"
        wins = sum(1 for x, y in zip(pa, ch) if (y < x if lower else y > x))
        losses = sum(1 for x, y in zip(pa, ch)
                     if (y > x if lower else y < x))

        def pct(num, den):
            return 100.0 * num / den if den else 0.0

        print("%-14s %12.6g %7.1f%% %12.6g %7.1f%% %+7.1f%% %3d/%-2d %8.3g"
              % (key, pmed, pct(pq3 - pq1, pmed), cmed,
                 pct(cq3 - cq1, cmed), pct(cmed - pmed, pmed), wins,
                 len(pa), sign_test(wins, losses)))
    print("per-layer (one --trace 1 run per side):")
    for key in traced["parent"]:
        print("  %-40s %14.6g %14.6g" %
              (key, traced["parent"][key], traced["change"].get(key, 0)))
    print("correct: parent %d/%d, change %d/%d" %
          (sum(r["correct"] for r in runs["parent"]), a.pairs,
           sum(r["correct"] for r in runs["change"]), a.pairs))
    for m in failures:
        print("FAIL %s" % m)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
