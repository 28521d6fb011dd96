"""Smoke test of the benchmark: every workload at a tiny size, and span nesting.

Run with ``python3 perfbench/test_smoke.py`` (or pytest on this file) from
the root of a checkout; it takes a few seconds.
"""
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, nesting_errors, self_seconds  # noqa: E402
from seqshape import harness, shaping  # noqa: E402

TINY = {
    "table1": workloads.Table1Size(trials=3),
    "exact-cold": workloads.ExactSize(shapes=((3, 4), (2, 7)), max_space=1 << 8, warm=20),
    "small-space": workloads.SmallSize(oracle_n=4, validate_n=3),
}


class WorkloadSmoke(unittest.TestCase):
    def check(self, name, trace):
        outcome = workloads.WORKLOADS[name](seed=7, seconds=0, trace=trace, size=TINY[name])
        self.assertEqual(outcome.failed, 0, outcome.errors)
        self.assertGreater(outcome.attempted, 0)
        self.assertTrue(outcome.metrics)
        for value, unit in outcome.metrics.values():
            self.assertIsInstance(value, (int, float))
            self.assertTrue(unit)
        return outcome

    def test_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                outcome = self.check(name, trace=False)
                self.assertEqual(set(outcome.metrics), {"job_s", "first_s", "ops_per_s", "peak_rss_mb"})
                self.assertTrue(all(v > 0 for v, _ in outcome.metrics.values()))

    def test_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                first = self.check(name, trace=True)
                self.assertIn("trace.overhead_share", first.metrics)
                self.assertTrue(first.counts)
                again = workloads.WORKLOADS[name](seed=7, seconds=0, trace=True, size=TINY[name])
                self.assertEqual(first.counts, again.counts)

    def test_counts_come_from_the_program(self):
        # tiny sizes, where the enumerated spaces are easy to count by hand
        small = self.check("small-space", trace=True).counts
        self.assertEqual(small["shaping.sequences_enumerated"], 3**3 + 3**4)
        self.assertEqual(small["shaping.type_classes"], 3 + 4)  # partitions of 3 and 4 into <= 3 parts
        # oracle_report walks 3^4 and 3^5; validation walks 3^3 per strategy and lists 3^4
        self.assertEqual(small["oracle.sequences_enumerated"], 3**4 + 3**5 + 2 * 3**3 + 3**4)
        exact = self.check("exact-cold", trace=True).counts
        self.assertEqual(exact["shaping.sequences_enumerated"], 3**4 + 3**5 + 2**7 + 2**8)
        self.assertEqual(exact["shaping.type_classes"], (4 + 5) + (4 + 5))
        self.assertNotIn("oracle.sequences_enumerated", exact)

    def test_table1_reports_the_gap(self):
        outcome = self.check("table1", trace=False)
        self.assertTrue(any("pcs %" in line for line in outcome.notes))

    def test_small_space_counts_rejections(self):
        size = TINY["small-space"]
        targets = workloads.small_inputs(3, size)
        self.assertEqual(len(targets), workloads.SMALL_NS ** (size.validate_n + workloads.K))
        self.assertEqual(
            [t.symbols.tolist() for t in targets],
            [t.symbols.tolist() for t in workloads.small_inputs(3, size)],
        )


class SpanNesting(unittest.TestCase):
    def test_spans_nest_through_the_layers(self):
        tracer = Tracer()
        tracer.patch(harness, "run_experiment", "harness")
        tracer.patch(harness, "sample", "sources", request=lambda args: args[2])
        tracer.patch(harness, "transform", "shaping")
        tracer.patch(harness, "inverse_transform", "shaping")
        tracer.patch(shaping, "to_digits", "rankcodec")
        try:
            with tracer.span("root", "bench"):
                spec = harness.SourceSpec(ns=5, n=30, pmax=0.5)
                harness.run_experiment(spec, shaping.ShaperConfig(ns=5), trials=2, seed=1)
        finally:
            tracer.restore()
        self.assertIs(harness.transform, shaping.transform)
        spans = tracer.spans
        self.assertEqual(nesting_errors(spans), [])
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        parents = {
            "to_digits": {"transform", "inverse_transform"},
            "transform": {"run_experiment"},
            "inverse_transform": {"run_experiment"},
            "sample": {"run_experiment"},
            "run_experiment": {"root"},
        }
        for child, allowed in parents.items():
            for s in by_name[child]:
                self.assertIn(spans[s.parent].name, allowed)
        self.assertEqual([s.request for s in by_name["transform"]], [0, 1])
        own = self_seconds(spans)
        total = (spans[0].end - spans[0].start) / 1e9
        self.assertAlmostEqual(sum(own.values()), total, places=6)

    def test_nesting_errors_are_found(self):
        tracer = Tracer()
        with tracer.span("a", "bench"):
            with tracer.span("b", "bench"):
                pass
        tracer.spans[1].end = tracer.spans[0].end + 1
        self.assertTrue(nesting_errors(tracer.spans))

    def test_errors_are_recorded(self):
        tracer = Tracer()
        tracer.patch(shaping, "inverse_adaptive", "shaping")
        try:
            seq = shaping.Sequence([1, 0, 0], 3)
            with self.assertRaises(shaping.NotInImageError):
                shaping.inverse_adaptive(seq, 1)
        finally:
            tracer.restore()
        self.assertEqual(tracer.spans[0].error, "NotInImageError")


class CommandLine(unittest.TestCase):
    def test_refuses_a_tree_without_sources(self):
        scratch = HERE.parent / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for path in HERE.glob("*.py"):
                (bench / path.name).write_bytes(path.read_bytes())
            proc = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload", "table1", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
