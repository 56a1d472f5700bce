#!/usr/bin/env python3
"""Build and run the NetDIMM simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest            # unit tests of the math
    python3 perfbench/run.py --bless WORKLOAD      # rewrite golden digests

Workloads: trace-replay, kv-serving, pdes-fabric, incast-hybrid.

The first call configures and builds perfbench/ (the simulator sources
in src/ plus the perfbench program) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is perfbench's
JSON result. The exit status is perfbench's: nonzero when an output
check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env():
    """The environment for every child: temporary files (the compiler's
    included) stay inside the build tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_quiet(cmd):
    """Run a build step, sending its output to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found", file=sys.stderr)
        return False
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", out, "--target", target,
                      "-j", jobs]) == 0


def flag(argv, name):
    """The value after @name in @argv, or None."""
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    golden = os.path.join(HERE, "golden.txt")
    if "--selftest" in argv:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run(
            [os.path.join(build_dir(), "perfbench_selftest")],
            env=child_env()).returncode
    if not build("perfbench"):
        return 2
    exe = os.path.join(build_dir(), "perfbench")
    if "--bless" in argv:
        workload = flag(argv, "--bless")
        if workload is None:
            print("perfbench: --bless needs a workload", file=sys.stderr)
            return 2
        return subprocess.run([exe, "--workload", workload,
                               "--bless", golden], env=child_env()).returncode
    args = [exe] + argv + ["--golden", golden]
    if flag(argv, "--trace") == "1":
        name = flag(argv, "--workload") or "run"
        args += ["--trace-out",
                 os.path.join(build_dir(), "spans-%s.csv" % name)]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S,
                              env=child_env()).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
