"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout. The smoke tests build the benchmark
(as perfbench/run.py does) and run each workload once at a tiny size.
"""

import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# Leave no bytecode caches in the source tree.
sys.dont_write_bytecode = True

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_plain_p90_from_100_samples(self):
        samples = list(range(1, 101))
        value, pct, n = stats.tail_percentile(samples)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_lowered_when_fewer_than_100_samples(self):
        samples = list(range(1, 51))
        value, pct, n = stats.tail_percentile(samples)
        self.assertEqual((value, pct, n), (40, 80.0, 50))

    def test_always_keeps_ten_samples_beyond(self):
        rng = random.Random(7)
        for n in range(11, 400):
            samples = [rng.random() for _ in range(n)]
            value, pct, count = stats.tail_percentile(samples)
            self.assertEqual(count, n)
            self.assertGreaterEqual(sum(1 for s in samples if s > value), 10)
            # The nearest-rank p90, or the highest rank that still has
            # ten samples beyond it.
            rank = round(pct * n / 100)
            p90_rank = -(-90 * n // 100)
            self.assertLessEqual(rank, p90_rank)
            self.assertTrue(rank == p90_rank or n - rank == 10)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail_percentile([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(stats.tail_percentile([]), (0.0, 0.0, 0))


class SeedDeterminismTest(unittest.TestCase):
    def generators(self):
        return {
            "paper_jobs": lambda s: inputs.paper_jobs(s),
            "distinct_runs": lambda s: inputs.distinct_runs(s),
            "serve_pool": lambda s: inputs.pool_requests(
                inputs.serve_pool(s)),
            "serve_schedules": lambda s: inputs.serve_schedules(s, 3, 200),
        }

    def test_same_seed_same_inputs(self):
        for name, gen in self.generators().items():
            for seed in (0, 1, 12345):
                self.assertEqual(inputs.to_lines(gen(seed)),
                                 inputs.to_lines(gen(seed)), name)

    def test_different_seed_different_inputs(self):
        for name, gen in self.generators().items():
            self.assertNotEqual(inputs.to_lines(gen(1)),
                                inputs.to_lines(gen(2)), name)

    def test_default_seed_keeps_registry_workload_seeds(self):
        self.assertTrue(all("seed" not in j for j in inputs.paper_jobs(0)))
        self.assertTrue(all("seed" in j for j in inputs.paper_jobs(3)))

    def test_paper_grid_shape(self):
        jobs = inputs.paper_jobs(5)
        self.assertEqual(len(jobs), 15 * 10 + 3 * 9)
        self.assertEqual(len({j["label"] for j in jobs}), len(jobs))

    def test_serve_mix_is_the_same_for_every_seed(self):
        def mix(seed):
            """Per client and block of ten: the kinds, and how often
            each program comes up in five blocks."""
            kinds, programs = set(), set()
            for seq in inputs.serve_schedules(seed, 3, 600):
                for b in range(0, len(seq), 10):
                    kinds.add(tuple(sorted(i // 15 for i in seq[b:b + 10])))
                for b in range(0, len(seq), 50):
                    counts = {}
                    for i in seq[b:b + 50]:
                        counts[i % 15] = counts.get(i % 15, 0) + 1
                    programs.add(tuple(sorted(counts.values())))
            return kinds, programs
        self.assertEqual(mix(1), mix(2))
        kinds, programs = mix(9)
        self.assertEqual(kinds, {(0, 0, 0, 0, 1, 1, 1, 1, 2, 3)})
        self.assertEqual(programs, {(3,) * 10 + (4,) * 5})

    def test_serve_clients_send_the_same_blocks(self):
        """Each block holds the same requests for every client, on three
        programs, in a different order per client."""
        schedules = inputs.serve_schedules(4, 3, 200)
        for b in range(0, 200, 10):
            blocks = [seq[b:b + 10] for seq in schedules]
            self.assertEqual(len({tuple(sorted(x)) for x in blocks}), 1)
            self.assertEqual(len({i % 15 for i in blocks[0]}), 3)
        self.assertNotEqual(schedules[0], schedules[1])


class MetricNameTest(unittest.TestCase):
    def test_names_and_units(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        for name in names:
            self.assertRegex(name, stats.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_script(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in spec["end_to_end"]}
        layers = {m["name"]: (m["unit"], m["better"])
                  for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], stats.METRIC_NAME)


class NormalizeTest(unittest.TestCase):
    def test_sweep_timing_and_cache_fields_are_blanked(self):
        doc = ('{"jobs":[{"label":"1","wall_seconds":0.25,'
               '"refs_per_second":1e6,"sections":{"x":1}}],'
               '"aggregate":{"wall_seconds":2,"refs_per_second":3,'
               '"trace_cache":{"ref_trace_hits":4}}}')
        self.assertEqual(
            run.normalize_document(doc),
            '{"jobs":[{"label":"1","wall_seconds":0,"refs_per_second":0,'
            '"sections":{"x":1}}],"aggregate":{"wall_seconds":0,'
            '"refs_per_second":0}}')


class SmokeTest(unittest.TestCase):
    """Each workload once at a tiny size, untraced and traced."""

    # Per-layer metrics that may read 0 on every workload at the smoke
    # size: nothing is rejected, tiny requests rarely coalesce, and a
    # 20k-reference trace is too short to sample (its plan is exact).
    MAY_BE_ZERO = {"service.rejected", "trace.cache_ref_hit_ratio",
                   "trace.cache_miss_hit_ratio", "trace.cache_plan_hit_ratio",
                   "sim.sampled_warmup_share", "sim.sampled_err_pts"}

    def smoke(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--smoke", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        expected = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], expected[name][0])
            if not trace:
                self.assertGreater(m["value"], 0, name)
        return result["metrics"]

    def test_every_workload(self):
        measured = set()
        for workload in run.WORKLOADS:
            self.smoke(workload, 0)
            layers = self.smoke(workload, 1)
            measured |= {k for k, m in layers.items() if m["value"] != 0}
        # Every per-layer metric is measured by some workload.
        self.assertEqual(set(run.PER_LAYER) - measured - self.MAY_BE_ZERO,
                         set())


if __name__ == "__main__":
    unittest.main()
