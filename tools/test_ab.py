#!/usr/bin/env python3
"""Unit tests for tools/ab.py: the sign test, the quartiles, the
ABBA run order and the per-commit build cache.

Run from anywhere: python3 tools/test_ab.py (ctest runs it as
`ab_py.SelfTest`, label unit). No revision is built or run: the
order and cache tests replace ab.py's resolve, export, benchmark_spec
and perfbench with stand-ins that record each call, and point its
cache at a temporary directory.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


class SignTest(unittest.TestCase):
    def test_exact_values(self):
        self.assertEqual(ab.sign_test(8, 0), 0.0078125)
        self.assertEqual(ab.sign_test(0, 8), 0.0078125)
        self.assertEqual(ab.sign_test(7, 1), 0.0703125)
        self.assertEqual(ab.sign_test(0, 0), 1.0)

    def test_even_split_is_capped_at_one(self):
        self.assertEqual(ab.sign_test(4, 4), 1.0)


class Quartiles(unittest.TestCase):
    def test_known_list(self):
        # Linear interpolation between order statistics.
        self.assertEqual(ab.quartiles([7, 1, 3, 5, 9]), (3.0, 5.0, 7.0))
        self.assertEqual(ab.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))

    def test_single_value(self):
        self.assertEqual(ab.quartiles([2.5]), (2.5, 2.5, 2.5))


class StubbedAb(unittest.TestCase):
    """ab.main with every git, build and perfbench step stubbed out."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.calls = []
        self.exports = []
        self.saved = (ab.CACHE, ab.resolve, ab.export, ab.benchmark_spec,
                      ab.perfbench)

        def perfbench(side, args, log, failures):
            self.calls.append((side["name"], args))
            return {"correct": True,
                    "metrics": {"wall_s": {"value": 1.0},
                                "sim_p50_us": {"value": 2.0},
                                "sim_p99_us": {"value": 3.0}}}

        def export(rev, dest):
            self.exports.append(rev)
            os.makedirs(dest)

        ab.CACHE = os.path.join(self.tmp, "cache")
        ab.resolve = lambda rev: "commit-" + rev
        ab.export = export
        ab.benchmark_spec = lambda tree: (5, {"wall_s": "lower"})
        ab.perfbench = perfbench
        self.runs = 0

    def tearDown(self):
        (ab.CACHE, ab.resolve, ab.export, ab.benchmark_spec,
         ab.perfbench) = self.saved
        shutil.rmtree(self.tmp)

    def run_ab(self, pairs, seeds, parent="P", change="C"):
        self.runs += 1
        argv = ["--parent", parent, "--change", change, "--workload", "w",
                "--pairs", str(pairs), "--seeds", seeds,
                "--work", os.path.join(self.tmp, "work%d" % self.runs)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return ab.main(argv)

    def builds(self):
        """The sides that got a zero-second (building) run so far."""
        return [name for name, args in self.calls
                if args[args.index("--seconds") + 1] == "0"]


class AbbaOrder(StubbedAb):

    def test_pairs_alternate_and_seeds_cycle(self):
        self.assertEqual(self.run_ab(4, "1,2,3"), 0)
        timed = [(name, args[args.index("--seed") + 1])
                 for name, args in self.calls
                 if "--seed" in args and args[args.index("--trace") + 1]
                 == "0"]
        self.assertEqual(timed, [
            ("parent", "1"), ("change", "1"),
            ("change", "2"), ("parent", "2"),
            ("parent", "3"), ("change", "3"),
            ("change", "1"), ("parent", "1"),
        ])
        # One zero-second warm-up per side first, one traced run per
        # side last, at the first seed and the benchmark's run length.
        self.assertEqual([n for n, _ in self.calls[:2]],
                         ["parent", "change"])
        for _, args in self.calls[:2]:
            self.assertEqual(args[args.index("--seconds") + 1], "0")
        for name, args in self.calls[-2:]:
            self.assertEqual(args[args.index("--trace") + 1], "1")
            self.assertEqual(args[args.index("--seed") + 1], "1")
            self.assertEqual(args[args.index("--seconds") + 1], "5")
        self.assertEqual([n for n, _ in self.calls[-2:]],
                         ["parent", "change"])


class BuildCache(StubbedAb):
    def test_same_commit_reuses_tree_and_build(self):
        self.assertEqual(self.run_ab(2, "1"), 0)
        self.assertEqual(self.exports, ["commit-P", "commit-C"])
        self.assertEqual(self.builds(), ["parent", "change"])
        for c in ("commit-P", "commit-C"):
            self.assertTrue(os.path.exists(
                os.path.join(ab.CACHE, c, "built")))

        # A second invocation at the same commits: no export, no build,
        # but the same timed and traced runs.
        timed = len(self.calls)
        self.assertEqual(self.run_ab(2, "1"), 0)
        self.assertEqual(self.exports, ["commit-P", "commit-C"])
        self.assertEqual(self.builds(), ["parent", "change"])
        self.assertEqual(len(self.calls), 2 * timed - 2)

    def test_other_commit_exports_and_builds(self):
        self.assertEqual(self.run_ab(2, "1"), 0)
        self.assertEqual(self.run_ab(2, "1", change="D"), 0)
        self.assertEqual(self.exports, ["commit-P", "commit-C", "commit-D"])
        self.assertEqual(self.builds(), ["parent", "change", "change"])

    def test_failed_build_is_not_cached(self):
        saved = ab.perfbench

        def failing(side, args, log, failures):
            failures.append("build failed")
            return saved(side, args, log, failures)

        ab.perfbench = failing
        self.assertEqual(self.run_ab(1, "1"), 1)
        ab.perfbench = saved
        self.assertEqual(self.run_ab(1, "1"), 0)
        self.assertEqual(self.exports, ["commit-P", "commit-C"] * 2)


if __name__ == "__main__":
    unittest.main()
